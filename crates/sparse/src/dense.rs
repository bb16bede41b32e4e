//! Dense tensors (row-major `f32`).
//!
//! The dense baseline representation: event frames as `[C, H, W]` tensors,
//! weights as `[C_out, C_in, kH, kW]`, and flat matrices. Dense kernels in
//! [`crate::ops`] operate on these; the all-GPU baseline in the paper
//! processes dense event frames regardless of how few events they hold.

use crate::SparseError;
use core::fmt;

/// A dense row-major `f32` tensor of arbitrary rank.
///
/// # Examples
///
/// ```
/// use ev_sparse::dense::Tensor;
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let mut t = Tensor::zeros(&[2, 3, 4]);
/// t.set(&[1, 2, 3], 5.0);
/// assert_eq!(t.get(&[1, 2, 3]), 5.0);
/// assert_eq!(t.len(), 24);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be nonzero"
        );
        let len: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Tensor::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Builds a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self, SparseError> {
        let len: usize = shape.iter().product();
        if data.len() != len {
            return Err(SparseError::ShapeMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            strides: row_major_strides(shape),
            data,
        })
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true: zero dims are
    /// rejected at construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Flat offset for a multi-index.
    ///
    /// # Panics
    ///
    /// Panics (debug) on rank mismatch or out-of-range index.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (k, (&i, &s)) in index.iter().zip(&self.strides).enumerate() {
            debug_assert!(i < self.shape[k], "index out of range in dim {k}");
            off += i * s;
        }
        off
    }

    /// Element at `index`.
    #[inline]
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at `index`.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Number of nonzero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of nonzero elements, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.len() as f64
    }

    /// Elementwise in-place addition.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn add_assign_elementwise(&mut self, other: &Tensor) -> Result<(), SparseError> {
        if self.shape != other.shape {
            return Err(SparseError::ShapeMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaling.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Maximum absolute value (0 for the all-zero tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Deterministically fills the tensor with pseudo-random values in
    /// `[-scale, scale]` derived from `seed` — used to synthesize network
    /// weights without a training pipeline.
    pub fn fill_pseudorandom(&mut self, seed: u64, scale: f32) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for v in &mut self.data {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let unit = (r >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
            *v = (unit * 2.0 - 1.0) * scale;
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.len())
    }
}

fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; shape.len()];
    for k in (0..shape.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * shape[k + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.get(&[1, 2]), 7.0);
        assert_eq!(t.as_slice()[5], 7.0); // row-major: (1,2) → 1*3+2
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(&[2, 2], vec![1.0; 5]),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn nnz_and_density() {
        let t = Tensor::from_vec(&[4], vec![0.0, 1.0, 0.0, -2.0]).unwrap();
        assert_eq!(t.nnz(), 2);
        assert!((t.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn elementwise_add_and_scale() {
        let mut a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        a.add_assign_elementwise(&b).unwrap();
        a.scale(0.5);
        assert_eq!(a.get(&[0, 0]), 1.5);
        let c = Tensor::zeros(&[3]);
        assert!(a.add_assign_elementwise(&c).is_err());
    }

    #[test]
    fn pseudorandom_fill_is_deterministic_and_bounded() {
        let mut a = Tensor::zeros(&[64]);
        let mut b = Tensor::zeros(&[64]);
        a.fill_pseudorandom(42, 0.5);
        b.fill_pseudorandom(42, 0.5);
        assert_eq!(a, b);
        assert!(a.max_abs() <= 0.5);
        assert!(a.nnz() > 0);
        let mut c = Tensor::zeros(&[64]);
        c.fill_pseudorandom(43, 0.5);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }
}
