//! # ev-nn — neural network substrate for the Ev-Edge reproduction
//!
//! The DNN framework substrate the paper's workloads run on: a layer/graph
//! IR with shape inference and workload extraction ([`layer`], [`graph`]),
//! stateful LIF spiking dynamics ([`snn`]), a real forward executor over
//! `ev-sparse` kernels ([`forward`]), the FP32/FP16/INT8 precision
//! lattice ([`quant`]), the Table-2-anchored accuracy-degradation model
//! ([`accuracy`]), and the Table 1 model zoo ([`zoo`]).
//!
//! ## Example
//!
//! ```
//! use ev_nn::zoo::{self, NetworkId, ZooConfig};
//!
//! # fn main() -> Result<(), ev_nn::NnError> {
//! let graph = NetworkId::SpikeFlowNet.build(&ZooConfig::small())?;
//! let (snn, ann) = zoo::counted_layers(&graph);
//! assert_eq!((snn, ann), (4, 8)); // Table 1: 12 layers (4 SNN, 8 ANN)
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod forward;
pub mod gnn;
pub mod graph;
pub mod layer;
pub mod quant;
pub mod snn;
pub mod zoo;

pub use graph::NetworkGraph;
pub use layer::{Domain, Layer, LayerId, LayerKind, Shape};
pub use quant::Precision;

use core::fmt;

/// A perception task from the paper's evaluation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Dense optical-flow estimation.
    OpticalFlow,
    /// Per-pixel semantic segmentation.
    SemanticSegmentation,
    /// Monocular dense depth estimation.
    DepthEstimation,
    /// Object detection/tracking.
    ObjectTracking,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Task::OpticalFlow => f.write_str("optical flow"),
            Task::SemanticSegmentation => f.write_str("semantic segmentation"),
            Task::DepthEstimation => f.write_str("depth estimation"),
            Task::ObjectTracking => f.write_str("object tracking"),
        }
    }
}

/// Errors produced by the network substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// A layer name was used twice in one graph.
    DuplicateLayerName {
        /// The offending name.
        name: String,
    },
    /// A referenced layer id does not exist (yet).
    UnknownLayer {
        /// The unresolved id.
        id: LayerId,
    },
    /// Shape inference failed for a layer.
    IncompatibleShape {
        /// Layer name.
        layer: String,
        /// Why inference failed.
        reason: String,
    },
    /// A graph must contain at least one layer.
    EmptyGraph,
    /// A kernel failed during forward execution.
    Kernel {
        /// The executing layer.
        layer: LayerId,
        /// The underlying kernel error.
        source: ev_sparse::SparseError,
    },
    /// An activation of the wrong kind reached a layer.
    ActivationKind {
        /// What the layer needed.
        expected: &'static str,
        /// What it received.
        actual: &'static str,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::DuplicateLayerName { name } => {
                write!(f, "duplicate layer name: {name}")
            }
            NnError::UnknownLayer { id } => write!(f, "unknown layer {id}"),
            NnError::IncompatibleShape { layer, reason } => {
                write!(f, "incompatible shape at layer {layer}: {reason}")
            }
            NnError::EmptyGraph => f.write_str("network graph has no layers"),
            NnError::Kernel { layer, source } => {
                write!(f, "kernel failure at {layer}: {source}")
            }
            NnError::ActivationKind { expected, actual } => {
                write!(f, "expected {expected} activation, got {actual}")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Kernel { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_display() {
        assert_eq!(Task::OpticalFlow.to_string(), "optical flow");
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let err = NnError::Kernel {
            layer: LayerId(3),
            source: ev_sparse::SparseError::EmptyInput,
        };
        assert!(err.source().is_some());
        assert!(err.to_string().contains("L3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
