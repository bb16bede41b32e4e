//! # ev-edge — the Ev-Edge framework (DAC 2024) in Rust
//!
//! Reproduction of *"Ev-Edge: Efficient Execution of Event-based Vision
//! Algorithms on Commodity Edge Platforms"*. The framework's three
//! optimizations are integrated into an inference pipeline over the
//! substrate crates:
//!
//! * [`e2sf`] — **Event2Sparse Frame converter**: raw events →
//!   two-channel COO sparse frames, no dense intermediate (§4.1).
//! * [`dsfa`] — **Dynamic Sparse Frame Aggregator**: runtime merging of
//!   sparse frames under time/density thresholds, adapting to input
//!   dynamics and hardware availability (§4.2).
//! * [`nmp`] — **Network Mapper**: offline evolutionary search over
//!   per-layer (processing element, precision) assignments with
//!   communication-aware list scheduling and ΔA accuracy constraints
//!   (§4.3), plus the RR-Network / RR-Layer / random-search baselines.
//! * [`pipeline`] — the integrated single-task runtime reproducing the
//!   Figure 8 experiments.
//!
//! ## Example
//!
//! ```
//! use ev_edge::e2sf::{E2sf, E2sfConfig};
//! use ev_core::event::{Event, Polarity, SensorGeometry};
//! use ev_core::stream::EventSlice;
//! use ev_core::time::{TimeWindow, Timestamp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = SensorGeometry::DAVIS346;
//! let events = EventSlice::new(g, vec![
//!     Event::new(100, 50, Timestamp::from_millis(3), Polarity::On),
//! ])?;
//! let frames = E2sf::new(E2sfConfig::new(4))
//!     .convert(&events, TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20)))?;
//! assert_eq!(frames.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dsfa;
pub mod e2sf;
pub mod frame;
pub mod multipipe;
pub mod pipeline;
pub mod queue;

/// The unified streaming execution core shared by every runtime: the
/// discrete-event clock, the job model, the dispatch/accounting engine,
/// the DSFA frontend stage, and the order-preserving worker pool the
/// NMP search and sweeps fan out on. Every runtime dispatches serially
/// onto one [`ev_platform::DeviceTimeline`].
pub mod exec {
    pub mod clock;
    pub mod engine;
    pub mod job;
    pub mod parallel;
    pub mod stage;

    pub use clock::EventClock;
    pub use engine::{EngineReport, ExecEngine, TaskStats};
    pub use job::{
        BatchCostModel, JobInput, JobModel, JobRecord, MappedJobModel, SchedGraphBuilder,
    };
    pub use parallel::{parallel_map, parallel_try_map};
    pub use stage::{DsfaStage, Stage};
}

/// The Network Mapper, its baselines, and the configuration-sweep
/// engine ablating the search itself (Figure 10).
pub mod nmp {
    pub mod baseline;
    pub mod candidate;
    pub mod evolution;
    pub mod fitness;
    pub mod multitask;
    pub mod random_search;
    pub mod sweep;
    pub mod tune;

    pub use sweep::{
        run_cells, run_sweep, task_spec_for, PlatformPreset, SearchAlgorithm, SweepCell,
        SweepCellReport, SweepReport, SweepSpec, TaskMix, ZooPreset,
    };
    pub use tune::{rank_cells, AutoTuner, TuneObjective, TuneReport, TuneSelection};
}

pub use dsfa::{CMode, Dsfa, DsfaConfig, MergedBatch};
pub use e2sf::{E2sf, E2sfConfig};
pub use frame::SparseFrame;
pub use pipeline::{
    run_single_task, PipelineOptions, PipelineReport, PipelineSetup, PipelineVariant,
};

use core::fmt;
use ev_core::TimeWindow;
use ev_nn::Precision;
use ev_platform::pe::PeId;

/// Errors produced by the Ev-Edge framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum EvEdgeError {
    /// An E2SF interval is too short for the requested bin count.
    DegenerateInterval {
        /// The interval.
        interval: TimeWindow,
        /// Requested bins.
        bins: usize,
    },
    /// A DSFA configuration is inconsistent.
    InvalidDsfaConfig {
        /// Event buffer size.
        ebuf_size: usize,
        /// Merge bucket size.
        mb_size: usize,
    },
    /// A search configuration field is out of range (see
    /// [`nmp::evolution::NmpConfig::validate`]).
    InvalidSearchConfig {
        /// The offending [`nmp::evolution::NmpConfig`] field.
        field: &'static str,
    },
    /// A mapping problem needs at least one task.
    EmptyProblem,
    /// A candidate maps a layer to an unexecutable (PE, precision) pair.
    UnsupportedAssignment {
        /// Task index.
        task: usize,
        /// Layer index.
        layer: usize,
        /// The processing element.
        pe: PeId,
        /// The precision.
        precision: Precision,
    },
    /// A named processing element is missing from the platform.
    MissingPe {
        /// The expected element name.
        name: &'static str,
    },
    /// A runtime simulation received the wrong number of task periods.
    PeriodCountMismatch {
        /// Tasks in the problem.
        tasks: usize,
        /// Periods provided.
        periods: usize,
    },
    /// A task period must be a positive duration.
    InvalidPeriod {
        /// The offending task index.
        task: usize,
    },
    /// An inference queue must hold at least one pending input.
    InvalidQueueCapacity {
        /// The rejected capacity.
        capacity: usize,
    },
    /// A configuration-sweep grid has an empty, out-of-range or
    /// oversized axis, or too many cells.
    InvalidSweepSpec {
        /// The offending axis of the [`nmp::SweepSpec`], or `cells` when
        /// the grid as a whole is over its cap.
        axis: &'static str,
    },
    /// An auto-tuning pass was given a sweep report with no cells.
    EmptySweepReport,
    /// An unrecognized auto-tuning objective name.
    UnknownObjective {
        /// The rejected name.
        name: String,
    },
    /// Sparse-tensor failure.
    Sparse(ev_sparse::SparseError),
    /// Network-substrate failure.
    Nn(ev_nn::NnError),
    /// Platform-model failure.
    Platform(ev_platform::PlatformError),
    /// Event-substrate failure.
    Events(ev_core::EventError),
}

impl fmt::Display for EvEdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvEdgeError::DegenerateInterval { interval, bins } => {
                write!(f, "interval {interval} too short for {bins} bins")
            }
            EvEdgeError::InvalidDsfaConfig { ebuf_size, mb_size } => write!(
                f,
                "invalid DSFA config: buffer {ebuf_size}, bucket {mb_size}"
            ),
            EvEdgeError::InvalidSearchConfig { field } => {
                write!(f, "search config field `{field}` is out of range")
            }
            EvEdgeError::EmptyProblem => f.write_str("mapping problem has no tasks"),
            EvEdgeError::UnsupportedAssignment {
                task,
                layer,
                pe,
                precision,
            } => write!(
                f,
                "task {task} layer {layer} mapped to {pe} at {precision}, which it cannot run"
            ),
            EvEdgeError::MissingPe { name } => {
                write!(f, "platform has no element named {name}")
            }
            EvEdgeError::PeriodCountMismatch { tasks, periods } => {
                write!(f, "{periods} periods provided for {tasks} tasks")
            }
            EvEdgeError::InvalidPeriod { task } => {
                write!(f, "task {task} period must be positive")
            }
            EvEdgeError::InvalidQueueCapacity { capacity } => {
                write!(f, "inference queue capacity {capacity} must be nonzero")
            }
            EvEdgeError::InvalidSweepSpec { axis } => {
                write!(
                    f,
                    "sweep spec `{axis}` is empty, out of range or over its cap"
                )
            }
            EvEdgeError::EmptySweepReport => {
                f.write_str("auto-tuning needs a sweep report with at least one cell")
            }
            EvEdgeError::UnknownObjective { name } => {
                write!(
                    f,
                    "unknown tuning objective `{name}` (latency | energy | edp)"
                )
            }
            EvEdgeError::Sparse(e) => write!(f, "sparse substrate: {e}"),
            EvEdgeError::Nn(e) => write!(f, "network substrate: {e}"),
            EvEdgeError::Platform(e) => write!(f, "platform model: {e}"),
            EvEdgeError::Events(e) => write!(f, "event substrate: {e}"),
        }
    }
}

impl std::error::Error for EvEdgeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvEdgeError::Sparse(e) => Some(e),
            EvEdgeError::Nn(e) => Some(e),
            EvEdgeError::Platform(e) => Some(e),
            EvEdgeError::Events(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ev_sparse::SparseError> for EvEdgeError {
    fn from(e: ev_sparse::SparseError) -> Self {
        EvEdgeError::Sparse(e)
    }
}

impl From<ev_nn::NnError> for EvEdgeError {
    fn from(e: ev_nn::NnError) -> Self {
        EvEdgeError::Nn(e)
    }
}

impl From<ev_platform::PlatformError> for EvEdgeError {
    fn from(e: ev_platform::PlatformError) -> Self {
        EvEdgeError::Platform(e)
    }
}

impl From<ev_core::EventError> for EvEdgeError {
    fn from(e: ev_core::EventError) -> Self {
        EvEdgeError::Events(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let err = EvEdgeError::Sparse(ev_sparse::SparseError::EmptyInput);
        assert!(err.source().is_some());
        assert!(err.to_string().contains("sparse"));
        let err2 = EvEdgeError::MissingPe { name: "gpu" };
        assert!(err2.to_string().contains("gpu"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvEdgeError>();
    }
}
