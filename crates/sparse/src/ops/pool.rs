//! Pooling kernels.

use crate::dense::Tensor;
use crate::opcount::OpCount;
use crate::SparseError;

/// Pooling window configuration (square window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool2dSpec {
    /// Window side length.
    pub kernel: usize,
    /// Stride (defaults to `kernel` for non-overlapping pooling).
    pub stride: usize,
}

impl Pool2dSpec {
    /// Non-overlapping pooling with window `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be nonzero");
        Pool2dSpec {
            kernel,
            stride: kernel,
        }
    }

    fn out_dim(&self, in_dim: usize) -> Option<usize> {
        if in_dim < self.kernel || self.stride == 0 {
            None
        } else {
            Some((in_dim - self.kernel) / self.stride + 1)
        }
    }
}

/// Max pooling over a `[C, H, W]` tensor.
///
/// # Errors
///
/// Returns a [`SparseError`] on rank mismatch or when the window does not
/// fit the input.
///
/// # Examples
///
/// ```
/// use ev_sparse::dense::Tensor;
/// use ev_sparse::ops::pool::{max_pool2d, Pool2dSpec};
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let t = Tensor::from_vec(&[1, 2, 2], vec![1.0, 5.0, 3.0, 2.0])?;
/// let (out, _) = max_pool2d(&t, Pool2dSpec::new(2))?;
/// assert_eq!(out.as_slice(), &[5.0]);
/// # Ok(())
/// # }
/// ```
pub fn max_pool2d(input: &Tensor, spec: Pool2dSpec) -> Result<(Tensor, OpCount), SparseError> {
    if input.rank() != 3 {
        return Err(SparseError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let ho = spec.out_dim(h).ok_or(SparseError::KernelTooLarge {
        kernel: spec.kernel,
        input: h,
        padding: 0,
    })?;
    let wo = spec.out_dim(w).ok_or(SparseError::KernelTooLarge {
        kernel: spec.kernel,
        input: w,
        padding: 0,
    })?;
    let mut out = Tensor::zeros(&[c, ho, wo]);
    let x = input.as_slice();
    {
        let o = out.as_mut_slice();
        let k = spec.kernel;
        for ch in 0..c {
            let xchan = &x[ch * h * w..(ch + 1) * h * w];
            let ochan = &mut o[ch * ho * wo..(ch + 1) * ho * wo];
            for oy in 0..ho {
                let iy0 = oy * spec.stride;
                let orow = &mut ochan[oy * wo..(oy + 1) * wo];
                for (ox, ov) in orow.iter_mut().enumerate() {
                    let ix0 = ox * spec.stride;
                    let mut acc = f32::NEG_INFINITY;
                    for ky in 0..k {
                        let xrow = &xchan[(iy0 + ky) * w + ix0..(iy0 + ky) * w + ix0 + k];
                        for &v in xrow {
                            acc = acc.max(v);
                        }
                    }
                    *ov = acc;
                }
            }
        }
    }
    let ops = OpCount {
        macs: 0,
        adds: (c * ho * wo * spec.kernel * spec.kernel) as u64,
        bytes_read: (input.len() * 4) as u64,
        bytes_written: (out.len() * 4) as u64,
    };
    Ok((out, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_values() {
        let t = Tensor::from_vec(
            &[1, 4, 4],
            vec![
                1.0, 2.0, 0.0, 0.0, //
                3.0, 4.0, 0.0, 1.0, //
                0.0, 0.0, -1.0, -2.0, //
                0.0, 0.0, -3.0, -4.0,
            ],
        )
        .unwrap();
        let (out, _) = max_pool2d(&t, Pool2dSpec::new(2)).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[4.0, 1.0, 0.0, -1.0]);
    }

    #[test]
    fn overlapping_stride() {
        let t = Tensor::from_vec(&[1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let spec = Pool2dSpec {
            kernel: 1,
            stride: 1,
        };
        let (out, _) = max_pool2d(&t, spec).unwrap();
        assert_eq!(out.shape(), &[1, 1, 4]);
    }

    #[test]
    fn window_must_fit() {
        let t = Tensor::zeros(&[1, 2, 2]);
        assert!(matches!(
            max_pool2d(&t, Pool2dSpec::new(3)),
            Err(SparseError::KernelTooLarge { .. })
        ));
    }
}
