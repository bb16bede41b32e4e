//! # ev-sparse — sparse/dense tensor substrate for the Ev-Edge reproduction
//!
//! The "sparse library" substrate the paper relies on (its reference `[6]`):
//! COO sparse tensors ([`coo`]), CSR matrices ([`csr`]), dense tensors
//! ([`dense`]), and real compute kernels with exact operation accounting
//! ([`ops`], [`opcount`]).
//!
//! There are two convolutions: the register-tiled dense one and the
//! sparse scatter over COO nonzeros ([`ops::conv`]). They agree bit for
//! bit on the same input when the weights are finite and no bias element
//! is `-0.0`, so the caller chooses between them by density.
//!
//! Every kernel returns the work it actually performed; sparse kernels also
//! return the dense-equivalent work, which is the quantity behind the
//! paper's Figure 1 (redundant operations in dense event-frame processing).
//!
//! ## Example
//!
//! ```
//! use ev_sparse::coo::{SparseEntry, SparseTensor};
//! use ev_sparse::dense::Tensor;
//! use ev_sparse::ops::conv::{conv2d_sparse, Conv2dSpec};
//!
//! # fn main() -> Result<(), ev_sparse::SparseError> {
//! // A 2-channel (polarity) sparse frame with three events.
//! let frame = SparseTensor::from_entries(2, 32, 32, vec![
//!     SparseEntry::new(0, 4, 5, 1.0),
//!     SparseEntry::new(1, 4, 6, 2.0),
//!     SparseEntry::new(0, 20, 21, 1.0),
//! ])?;
//! let mut weight = Tensor::zeros(&[8, 2, 3, 3]);
//! weight.fill_pseudorandom(1, 0.1);
//! let (_out, work) = conv2d_sparse(&frame, &weight, None, Conv2dSpec::same(3))?;
//! assert!(work.effectual_fraction() < 0.01); // <1% of dense work needed
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod graph;
pub mod opcount;

/// Compute kernels over the tensor types.
pub mod ops {
    pub mod conv;
    pub mod linear;
    pub mod pool;
}

pub use coo::{SparseEntry, SparseTensor};
pub use csr::CsrMatrix;
pub use dense::Tensor;
pub use graph::EventGraph;
pub use opcount::{OpCount, WorkComparison};

use core::fmt;

/// Errors produced by the sparse substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseError {
    /// Data length or dimension does not match the declared shape.
    ShapeMismatch {
        /// Expected element count / dimension.
        expected: usize,
        /// Actual element count / dimension.
        actual: usize,
    },
    /// Tensor rank differs from what the operation requires.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Provided rank.
        actual: usize,
    },
    /// A COO entry's coordinates exceed the tensor shape.
    EntryOutOfBounds {
        /// Entry channel.
        channel: u32,
        /// Entry row.
        row: u32,
        /// Entry column.
        col: u32,
    },
    /// Two tensors that must share a shape do not.
    TensorShapeMismatch {
        /// Left shape.
        left: [usize; 3],
        /// Right shape.
        right: [usize; 3],
    },
    /// A convolution/pooling window does not fit the (padded) input.
    KernelTooLarge {
        /// Kernel size.
        kernel: usize,
        /// Input dimension.
        input: usize,
        /// Padding.
        padding: usize,
    },
    /// An operation over a collection received no elements.
    EmptyInput,
    /// Entries handed to a canonical-order constructor were not strictly
    /// sorted by `(channel, row, col)`.
    EntriesNotCanonical {
        /// Index of the first out-of-order entry.
        index: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            SparseError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected rank {expected}, got {actual}")
            }
            SparseError::EntryOutOfBounds { channel, row, col } => {
                write!(f, "entry ({channel}, {row}, {col}) outside tensor shape")
            }
            SparseError::TensorShapeMismatch { left, right } => {
                write!(f, "tensor shapes differ: {left:?} vs {right:?}")
            }
            SparseError::KernelTooLarge {
                kernel,
                input,
                padding,
            } => write!(
                f,
                "kernel {kernel} does not fit input {input} with padding {padding}"
            ),
            SparseError::EmptyInput => f.write_str("operation requires at least one input"),
            SparseError::EntriesNotCanonical { index } => {
                write!(
                    f,
                    "entry {index} breaks canonical (channel, row, col) order"
                )
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SparseError::KernelTooLarge {
            kernel: 5,
            input: 3,
            padding: 0,
        };
        assert!(e.to_string().contains("kernel 5"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
