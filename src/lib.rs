//! # ev-edge-repro — umbrella crate for the Ev-Edge reproduction
//!
//! Re-exports every workspace crate under one roof so the `examples/` and
//! `tests/` directories (and downstream experiments) can depend on a
//! single package. See the repository `README.md` for an overview,
//! `ARCHITECTURE.md` for the design and `docs/PAPER_MAP.md` for where each
//! part of the paper lives in the code.
//!
//! ```
//! use ev_edge_repro::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::xavier_agx();
//! let graph = NetworkId::SpikeFlowNet.build(&ZooConfig::small())?;
//! assert!(graph.len() > 0);
//! assert_eq!(platform.queue_count(), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ev_core;
pub use ev_datasets;
pub use ev_edge;
pub use ev_nn;
pub use ev_platform;
pub use ev_sparse;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use ev_core::event::{Event, Polarity, SensorGeometry};
    pub use ev_core::stream::EventSlice;
    pub use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
    pub use ev_datasets::mvsec::SequenceId;
    pub use ev_edge::dsfa::{CMode, Dsfa, DsfaConfig};
    pub use ev_edge::e2sf::{E2sf, E2sfConfig};
    pub use ev_edge::pipeline::{run_single_task, PipelineOptions, PipelineSetup, PipelineVariant};
    pub use ev_nn::zoo::{NetworkId, ZooConfig};
    pub use ev_platform::pe::Platform;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_basics() {
        let g = SensorGeometry::DAVIS346;
        assert_eq!(g.pixel_count(), 89_960);
        assert_eq!(Platform::xavier_agx().elements().len(), 4);
        assert_eq!(SequenceId::ALL.len(), 6);
    }
}
