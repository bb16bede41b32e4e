//! Fully-connected layers and activations.

use crate::dense::Tensor;
use crate::opcount::OpCount;
use crate::SparseError;

/// Dense fully-connected layer: `y = W·x + b` with `W: [N, K]`.
///
/// # Errors
///
/// Returns a [`SparseError`] on rank or dimension mismatch.
///
/// # Examples
///
/// ```
/// use ev_sparse::dense::Tensor;
/// use ev_sparse::ops::linear::linear;
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let w = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let (y, ops) = linear(&w, &[1.0, 1.0], None)?;
/// assert_eq!(y, vec![3.0, 7.0]);
/// assert_eq!(ops.macs, 4);
/// # Ok(())
/// # }
/// ```
pub fn linear(
    weight: &Tensor,
    x: &[f32],
    bias: Option<&[f32]>,
) -> Result<(Vec<f32>, OpCount), SparseError> {
    if weight.rank() != 2 {
        return Err(SparseError::RankMismatch {
            expected: 2,
            actual: weight.rank(),
        });
    }
    let (n, k) = (weight.shape()[0], weight.shape()[1]);
    if x.len() != k {
        return Err(SparseError::ShapeMismatch {
            expected: k,
            actual: x.len(),
        });
    }
    if let Some(b) = bias {
        if b.len() != n {
            return Err(SparseError::ShapeMismatch {
                expected: n,
                actual: b.len(),
            });
        }
    }
    let wd = weight.as_slice();
    let mut y = Vec::with_capacity(n);
    for (row, wrow) in wd.chunks_exact(k).enumerate() {
        let mut acc = bias.map(|b| b[row]).unwrap_or(0.0);
        for (w, xv) in wrow.iter().zip(x) {
            acc += w * xv;
        }
        y.push(acc);
    }
    let ops = OpCount {
        macs: (n * k) as u64,
        adds: if bias.is_some() { n as u64 } else { 0 },
        bytes_read: ((weight.len() + x.len()) * 4) as u64,
        bytes_written: (n * 4) as u64,
    };
    Ok((y, ops))
}

/// In-place ReLU; returns the op count and the surviving-nonzero count
/// (post-activation sparsity feeds the platform model's SNN layers).
pub fn relu_in_place(t: &mut Tensor) -> (OpCount, usize) {
    let mut nnz = 0;
    for v in t.as_mut_slice() {
        if *v > 0.0 {
            nnz += 1;
        } else {
            *v = 0.0;
        }
    }
    (
        OpCount {
            macs: 0,
            adds: t.len() as u64, // comparisons modeled as adds
            bytes_read: (t.len() * 4) as u64,
            bytes_written: (t.len() * 4) as u64,
        },
        nnz,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_with_bias() {
        let w = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (y, ops) = linear(&w, &[1.0, 1.0], Some(&[0.5, -0.5])).unwrap();
        assert_eq!(y, vec![3.5, 6.5]);
        assert_eq!(ops.macs, 4);
        assert_eq!(ops.adds, 2);
        assert!(linear(&w, &[1.0], None).is_err());
        assert!(linear(&w, &[1.0, 1.0], Some(&[0.0])).is_err());
    }

    #[test]
    fn relu_counts_survivors() {
        let mut t = Tensor::from_vec(&[4], vec![-1.0, 2.0, 0.0, 3.0]).unwrap();
        let (_, nnz) = relu_in_place(&mut t);
        assert_eq!(nnz, 2);
        assert_eq!(t.as_slice(), &[0.0, 2.0, 0.0, 3.0]);
    }
}
