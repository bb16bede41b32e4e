//! Compressed Sparse Row matrices.
//!
//! CSR is the workhorse format for the sparse fully-connected kernels: a
//! sparse activation row-vector (or batch) multiplies a dense weight matrix
//! with work proportional to the nonzeros.

use crate::dense::Tensor;
use crate::SparseError;
use core::fmt;

/// A sparse matrix in Compressed Sparse Row format.
///
/// # Examples
///
/// ```
/// use ev_sparse::csr::CsrMatrix;
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let m = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 0, -1.0)])?;
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.get(0, 1), 2.0);
/// assert_eq!(m.get(1, 2), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// An all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        assert!(
            n_rows > 0 && n_cols > 0,
            "matrix dimensions must be nonzero"
        );
        CsrMatrix {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets; duplicates
    /// accumulate, exact zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EntryOutOfBounds`] for out-of-range triplets.
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: &[(u32, u32, f32)],
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in triplets {
            if r as usize >= n_rows || c as usize >= n_cols {
                return Err(SparseError::EntryOutOfBounds {
                    channel: 0,
                    row: r,
                    col: c,
                });
            }
        }
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut merged: Vec<(u32, u32, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0usize; n_rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Extracts the nonzeros of a dense rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::RankMismatch`] unless `dense` has rank 2.
    pub fn from_dense(dense: &Tensor) -> Result<Self, SparseError> {
        let mut out = CsrMatrix {
            n_rows: 0,
            n_cols: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        };
        out.assign_from_dense(dense)?;
        Ok(out)
    }

    /// Re-extracts the nonzeros of a dense rank-2 tensor into this matrix,
    /// reusing its `row_ptr`/`col_idx`/`values` buffers — once the buffers
    /// have grown, steady-state repeated encodes allocate nothing. The
    /// resulting matrix is identical to [`CsrMatrix::from_dense`]: the
    /// row-major scan emits each row's columns already sorted and unique,
    /// so no sort or merge pass is needed.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::RankMismatch`] unless `dense` has rank 2.
    pub fn assign_from_dense(&mut self, dense: &Tensor) -> Result<(), SparseError> {
        if dense.rank() != 2 {
            return Err(SparseError::RankMismatch {
                expected: 2,
                actual: dense.rank(),
            });
        }
        let (m, n) = (dense.shape()[0], dense.shape()[1]);
        self.n_rows = m;
        self.n_cols = n;
        self.row_ptr.clear();
        self.row_ptr.reserve(m + 1);
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.values.clear();
        if n == 0 {
            self.row_ptr.resize(m + 1, 0);
            return Ok(());
        }
        for row in dense.as_slice().chunks_exact(n) {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    self.col_idx.push(c as u32);
                    self.values.push(v);
                }
            }
            self.row_ptr.push(self.values.len());
        }
        Ok(())
    }

    /// Row count.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column count.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of nonzero entries.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.n_rows * self.n_cols) as f64
    }

    /// Value at `(row, col)`, 0.0 when absent.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n_rows`.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.n_rows, "row out of range");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&(col as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// The `(columns, values)` of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n_rows`.
    pub fn row(&self, row: usize) -> (&[u32], &[f32]) {
        assert!(row < self.n_rows, "row out of range");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Materializes the dense `[n_rows, n_cols]` tensor.
    #[allow(clippy::needless_range_loop)]
    pub fn to_dense(&self) -> Tensor {
        let mut dense = Tensor::zeros(&[self.n_rows, self.n_cols]);
        let n = self.n_cols;
        let data = dense.as_mut_slice();
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                data[r * n + *c as usize] = *v;
            }
        }
        dense
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                triplets.push((*c, r as u32, *v));
            }
        }
        CsrMatrix::from_triplets(self.n_cols, self.n_rows, &triplets)
            .expect("transpose of a valid matrix is valid")
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix[{}x{}] ({} nnz)",
            self.n_rows,
            self.n_cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn triplets_build_and_lookup() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.row(2).0, &[0, 1]);
    }

    #[test]
    fn duplicates_accumulate_zeros_drop() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.0);
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(tt, m);
        assert_eq!(m.transpose().get(2, 0), 2.0);
    }

    #[test]
    fn bounds_validated() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
    }
}
