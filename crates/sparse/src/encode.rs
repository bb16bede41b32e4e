//! Dense→sparse conversion with measured cost.
//!
//! The paper's motivation for E2SF (§4.1): converting *dense* event frames
//! into sparse tensors before every layer pays an encode overhead that can
//! outweigh the sparse-kernel savings. [`dense_to_sparse`] performs the
//! conversion and reports the measured cost so the benchmark harness can
//! reproduce that trade-off, while E2SF avoids it by never materializing
//! the dense frame.

use crate::coo::SparseTensor;
use crate::dense::Tensor;
use crate::SparseError;
use std::time::Instant;

/// Cost of one dense→sparse conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeStats {
    /// Dense elements scanned.
    pub elements_scanned: usize,
    /// Entries produced.
    pub entries_out: usize,
    /// Wall-clock nanoseconds spent (measured).
    pub nanos: u64,
}

impl EncodeStats {
    /// Throughput in elements/second (0 when no time elapsed).
    pub fn throughput(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.elements_scanned as f64 / (self.nanos as f64 / 1e9)
        }
    }
}

/// Encodes a dense `[C, H, W]` tensor into COO, measuring the scan cost.
///
/// # Errors
///
/// Returns [`SparseError::RankMismatch`] unless `dense` has rank 3.
///
/// # Examples
///
/// ```
/// use ev_sparse::dense::Tensor;
/// use ev_sparse::encode::dense_to_sparse;
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let mut t = Tensor::zeros(&[1, 8, 8]);
/// t.set(&[0, 3, 3], 1.0);
/// let (sparse, stats) = dense_to_sparse(&t, 0.0)?;
/// assert_eq!(sparse.nnz(), 1);
/// assert_eq!(stats.elements_scanned, 64);
/// # Ok(())
/// # }
/// ```
pub fn dense_to_sparse(
    dense: &Tensor,
    threshold: f32,
) -> Result<(SparseTensor, EncodeStats), SparseError> {
    let start = Instant::now();
    let sparse = SparseTensor::from_dense(dense, threshold)?;
    let nanos = start.elapsed().as_nanos() as u64;
    let stats = EncodeStats {
        elements_scanned: dense.len(),
        entries_out: sparse.nnz(),
        nanos,
    };
    Ok((sparse, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_round_trip_with_stats() {
        let mut t = Tensor::zeros(&[2, 4, 4]);
        t.set(&[0, 1, 1], 2.0);
        t.set(&[1, 3, 0], -1.0);
        let (sparse, enc) = dense_to_sparse(&t, 0.0).unwrap();
        assert_eq!(enc.entries_out, 2);
        assert_eq!(enc.elements_scanned, 32);
        assert_eq!(sparse.to_dense(), t);
    }

    #[test]
    fn encode_rejects_wrong_rank() {
        let t = Tensor::zeros(&[4, 4]);
        assert!(dense_to_sparse(&t, 0.0).is_err());
    }

    #[test]
    fn throughput_is_finite() {
        let stats = EncodeStats {
            elements_scanned: 100,
            entries_out: 10,
            nanos: 50,
        };
        assert!(stats.throughput() > 0.0);
        assert_eq!(EncodeStats::default().throughput(), 0.0);
    }
}
