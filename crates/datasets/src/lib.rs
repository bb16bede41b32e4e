//! # ev-datasets — synthetic datasets and metrics for the Ev-Edge
//! reproduction
//!
//! Stands in for the MVSEC and DENSE datasets of the paper's evaluation
//! (§5): calibrated statistical sequences ([`mvsec`]), per-network input
//! representations explaining the Figure 3 density spread
//! ([`representation`]), analytic ground truth from procedural scenes
//! ([`groundtruth`]), and real metric implementations — AEE, mIoU, average
//! log-depth error, bounding-box IoU ([`metrics`]).
//!
//! ## Example
//!
//! ```
//! use ev_datasets::mvsec::{SequenceId, default_window};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let seq = SequenceId::IndoorFlying2.sequence();
//! let events = seq.generate(default_window())?;
//! assert!(events.len() > 10_000); // a busy flying sequence
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod groundtruth;
pub mod metrics;
pub mod mvsec;
pub mod representation;

pub use metrics::{BoundingBox, DepthMap, FlowField, LabelMap};
pub use mvsec::{Sequence, SequenceId};
pub use representation::{representation_for, InputRepresentation};

use core::fmt;

/// Errors produced by the dataset substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DatasetError {
    /// A pixel buffer does not match its declared dimensions.
    BufferSize {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        actual: usize,
    },
    /// Two maps that must share dimensions do not.
    DimensionMismatch {
        /// Left `(width, height)`.
        left: (usize, usize),
        /// Right `(width, height)`.
        right: (usize, usize),
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::BufferSize { expected, actual } => {
                write!(f, "buffer holds {actual} elements, expected {expected}")
            }
            DatasetError::DimensionMismatch { left, right } => write!(
                f,
                "map dimensions differ: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
        }
    }
}

impl std::error::Error for DatasetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DatasetError::DimensionMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        assert!(e.to_string().contains("2x3"));
    }
}
