//! # ev-platform — heterogeneous edge platform model for Ev-Edge
//!
//! The Jetson-Xavier-AGX-class substrate the paper evaluates on: processing
//! element descriptions and platform presets ([`pe`]), roofline latency and
//! energy models ([`latency`], [`energy`]), pre-recorded layer cost tables
//! standing in for TensorRT profiles ([`profile`]), the Equation 3 list
//! scheduler over per-device queues ([`schedule`]), and simulated-time
//! device availability tracking for the online runtime ([`timeline`]).
//!
//! ## Example
//!
//! ```
//! use ev_platform::pe::Platform;
//! use ev_platform::schedule::{list_schedule, SchedGraph, Schedule};
//! use ev_core::TimeDelta;
//!
//! # fn main() -> Result<(), ev_platform::PlatformError> {
//! let platform = Platform::xavier_agx();
//! // Two layers on the GPU queue, one on a DLA queue, then a join.
//! let gpu = platform.id_by_name("gpu").expect("gpu").0;
//! let dla = platform.id_by_name("dla0").expect("dla0").0;
//! let mut graph = SchedGraph::new();
//! let first = graph.push(gpu, TimeDelta::from_millis(4), &[]);
//! let other = graph.push(dla, TimeDelta::from_millis(3), &[]);
//! graph.push(gpu, TimeDelta::from_millis(1), &[first, other]);
//! let mut schedule = Schedule::new();
//! list_schedule(&graph, platform.queue_count(), &mut schedule)?;
//! assert_eq!(schedule.makespan(), TimeDelta::from_millis(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod energy;
pub mod latency;
pub mod pe;
pub mod profile;
pub mod schedule;
pub mod timeline;

pub use energy::Energy;
pub use latency::{layer_cost, transfer_cost, CostEstimate, LayerContext};
pub use pe::{PeId, PeKind, Platform, ProcessingElement};
pub use profile::NetworkProfile;
pub use schedule::{list_schedule, SchedGraph, Schedule};
pub use timeline::{DeviceTimeline, ReservationTimeline, RunRequest};

use core::fmt;
use ev_core::Timestamp;
use ev_nn::Precision;

/// Errors produced by the platform model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlatformError {
    /// A processing-element id is out of range.
    UnknownPe {
        /// The offending id.
        id: PeId,
    },
    /// A processing element does not implement the requested precision.
    UnsupportedPrecision {
        /// Element name.
        pe: String,
        /// Requested precision.
        precision: Precision,
    },
    /// A schedule node names a queue the platform does not have.
    InvalidQueue {
        /// Node index.
        node: usize,
        /// Requested queue.
        queue: usize,
        /// Number of queues available.
        queues: usize,
    },
    /// The dependency graph contains a cycle (or a dangling dependency).
    CyclicDependency {
        /// A node on the cycle.
        node: usize,
    },
    /// A timeline reservation starts before the queue is free.
    ReservationConflict {
        /// The queue.
        queue: usize,
        /// Requested start.
        requested: Timestamp,
        /// When the queue actually frees.
        free_at: Timestamp,
    },
    /// Density overrides do not match the workload count.
    ProfileShapeMismatch {
        /// Number of layers profiled.
        layers: usize,
        /// Number of densities provided.
        densities: usize,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownPe { id } => write!(f, "unknown processing element {id}"),
            PlatformError::UnsupportedPrecision { pe, precision } => {
                write!(f, "{pe} does not support {precision}")
            }
            PlatformError::InvalidQueue {
                node,
                queue,
                queues,
            } => write!(f, "node {node} targets queue {queue} of {queues}"),
            PlatformError::CyclicDependency { node } => {
                write!(f, "dependency cycle involving node {node}")
            }
            PlatformError::ReservationConflict {
                queue,
                requested,
                free_at,
            } => write!(
                f,
                "queue {queue} reservation at {requested} precedes free time {free_at}"
            ),
            PlatformError::ProfileShapeMismatch { layers, densities } => {
                write!(f, "profile got {densities} densities for {layers} layers")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = PlatformError::UnsupportedPrecision {
            pe: "dla0".to_string(),
            precision: Precision::Fp32,
        };
        assert!(e.to_string().contains("dla0"));
        assert!(e.to_string().contains("FP32"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlatformError>();
    }
}
