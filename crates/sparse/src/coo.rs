//! COO (coordinate-format) sparse tensors.
//!
//! A [`SparseTensor`] stores only the nonzero sites of a `[C, H, W]` tensor
//! as `(channel, row, col, value)` entries — the representation E2SF emits
//! ("row indices, column indices and their corresponding polarities as
//! separate channels, similar to the sparse Coordinate (COO) format",
//! paper §4.1). Entries are kept canonical: sorted by `(channel, row, col)`
//! with unique coordinates (duplicates accumulate on construction).

use crate::dense::Tensor;
use crate::SparseError;
use core::fmt;

/// One nonzero site of a sparse `[C, H, W]` tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseEntry {
    /// Channel index.
    pub channel: u32,
    /// Row (y).
    pub row: u32,
    /// Column (x).
    pub col: u32,
    /// Stored value.
    pub value: f32,
}

impl SparseEntry {
    /// Creates an entry.
    pub const fn new(channel: u32, row: u32, col: u32, value: f32) -> Self {
        SparseEntry {
            channel,
            row,
            col,
            value,
        }
    }

    #[inline]
    fn key(&self) -> (u32, u32, u32) {
        (self.channel, self.row, self.col)
    }
}

/// A sparse `[C, H, W]` tensor in canonical COO form.
///
/// # Examples
///
/// ```
/// use ev_sparse::coo::{SparseEntry, SparseTensor};
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let t = SparseTensor::from_entries(
///     2, 4, 4,
///     vec![
///         SparseEntry::new(0, 1, 2, 1.0),
///         SparseEntry::new(0, 1, 2, 1.0), // duplicate accumulates
///         SparseEntry::new(1, 3, 0, -1.0),
///     ],
/// )?;
/// assert_eq!(t.nnz(), 2);
/// assert_eq!(t.get(0, 1, 2), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    channels: usize,
    height: usize,
    width: usize,
    entries: Vec<SparseEntry>,
}

impl SparseTensor {
    /// An empty sparse tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn empty(channels: usize, height: usize, width: usize) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "tensor dimensions must be nonzero"
        );
        SparseTensor {
            channels,
            height,
            width,
            entries: Vec::new(),
        }
    }

    /// Builds a tensor from entries, canonicalizing (sort + accumulate
    /// duplicates, drop exact zeros).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EntryOutOfBounds`] if any coordinate exceeds
    /// the shape.
    pub fn from_entries(
        channels: usize,
        height: usize,
        width: usize,
        mut entries: Vec<SparseEntry>,
    ) -> Result<Self, SparseError> {
        for e in &entries {
            if e.channel as usize >= channels || e.row as usize >= height || e.col as usize >= width
            {
                return Err(SparseError::EntryOutOfBounds {
                    channel: e.channel,
                    row: e.row,
                    col: e.col,
                });
            }
        }
        entries.sort_by_key(|e| e.key());
        let mut canonical: Vec<SparseEntry> = Vec::with_capacity(entries.len());
        for e in entries {
            match canonical.last_mut() {
                Some(last) if last.key() == e.key() => last.value += e.value,
                _ => canonical.push(e),
            }
        }
        canonical.retain(|e| e.value != 0.0);
        Ok(SparseTensor {
            channels,
            height,
            width,
            entries: canonical,
        })
    }

    /// Builds a tensor from entries already in canonical form — sorted by
    /// `(channel, row, col)` with unique coordinates — skipping the sort
    /// and duplicate-accumulation passes of
    /// [`SparseTensor::from_entries`]. Exact zeros are still dropped, so
    /// the result is identical to what `from_entries` would produce.
    ///
    /// The E2SF scratch arena emits entries in this order by construction;
    /// this constructor keeps that path allocation- and sort-free.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EntryOutOfBounds`] if any coordinate exceeds
    /// the shape, or [`SparseError::EntriesNotCanonical`] if the entries
    /// are not strictly sorted by coordinate.
    pub fn from_canonical_entries(
        channels: usize,
        height: usize,
        width: usize,
        mut entries: Vec<SparseEntry>,
    ) -> Result<Self, SparseError> {
        for (i, e) in entries.iter().enumerate() {
            if e.channel as usize >= channels || e.row as usize >= height || e.col as usize >= width
            {
                return Err(SparseError::EntryOutOfBounds {
                    channel: e.channel,
                    row: e.row,
                    col: e.col,
                });
            }
            if i > 0 && entries[i - 1].key() >= e.key() {
                return Err(SparseError::EntriesNotCanonical { index: i });
            }
        }
        entries.retain(|e| e.value != 0.0);
        Ok(SparseTensor {
            channels,
            height,
            width,
            entries,
        })
    }

    /// Extracts the nonzeros of a dense `[C, H, W]` tensor.
    ///
    /// Values with `|v| <= threshold` are treated as zero.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::RankMismatch`] unless `dense` has rank 3.
    pub fn from_dense(dense: &Tensor, threshold: f32) -> Result<Self, SparseError> {
        if dense.rank() != 3 {
            return Err(SparseError::RankMismatch {
                expected: 3,
                actual: dense.rank(),
            });
        }
        let (c, h, w) = (dense.shape()[0], dense.shape()[1], dense.shape()[2]);
        let mut entries = Vec::new();
        let data = dense.as_slice();
        for ch in 0..c {
            for row in 0..h {
                for col in 0..w {
                    let v = data[(ch * h + row) * w + col];
                    if v.abs() > threshold {
                        entries.push(SparseEntry::new(ch as u32, row as u32, col as u32, v));
                    }
                }
            }
        }
        // Entries are generated in canonical order with unique coordinates.
        Ok(SparseTensor {
            channels: c,
            height: h,
            width: w,
            entries,
        })
    }

    /// Channel count.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Shape as `[C, H, W]`.
    pub fn shape(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tensor stores no nonzeros.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stored nonzeros divided by total sites, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.entries.len() as f64 / (self.channels * self.height * self.width) as f64
    }

    /// Fraction of *spatial* sites `(row, col)` active in at least one
    /// channel — the event-frame fill ratio from the paper's Figure 3.
    /// DSFA probes it on every frame it places.
    pub fn spatial_density(&self) -> f64 {
        self.count_active_sites() as f64 / (self.height * self.width) as f64
    }

    /// Number of distinct active spatial sites, without materializing them.
    ///
    /// Entries within one channel have distinct sites, so a tensor whose
    /// entries all share a channel counts its entries. Otherwise each
    /// entry sets its site's bit in an `H·W`-bit bitmap and counts the
    /// site if the bit was clear: one pass over the entries, plus
    /// zeroing `H·W / 64` words.
    pub fn count_active_sites(&self) -> usize {
        match (self.entries.first(), self.entries.last()) {
            (Some(first), Some(last)) if first.channel != last.channel => {
                let mut seen = vec![0u64; (self.height * self.width).div_ceil(64)];
                let mut count = 0;
                for e in &self.entries {
                    let site = e.row as usize * self.width + e.col as usize;
                    let word = &mut seen[site / 64];
                    let bit = 1u64 << (site % 64);
                    count += usize::from(*word & bit == 0);
                    *word |= bit;
                }
                count
            }
            _ => self.entries.len(),
        }
    }

    /// The canonical entry slice (sorted by `(channel, row, col)`).
    #[inline]
    pub fn entries(&self) -> &[SparseEntry] {
        &self.entries
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> core::slice::Iter<'_, SparseEntry> {
        self.entries.iter()
    }

    /// Value at `(channel, row, col)` (0.0 when not stored).
    pub fn get(&self, channel: u32, row: u32, col: u32) -> f32 {
        match self
            .entries
            .binary_search_by_key(&(channel, row, col), |e| e.key())
        {
            Ok(idx) => self.entries[idx].value,
            Err(_) => 0.0,
        }
    }

    /// The sorted, deduplicated list of active spatial sites `(row, col)`
    /// (union over channels).
    pub fn active_sites(&self) -> Vec<(u32, u32)> {
        let mut sites: Vec<(u32, u32)> = self.entries.iter().map(|e| (e.row, e.col)).collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// Materializes the dense `[C, H, W]` tensor.
    pub fn to_dense(&self) -> Tensor {
        let (w, h) = (self.width, self.height);
        let mut dense = Tensor::zeros(&[self.channels, h, w]);
        let data = dense.as_mut_slice();
        for e in &self.entries {
            data[(e.channel as usize * h + e.row as usize) * w + e.col as usize] = e.value;
        }
        dense
    }

    /// Pointwise sum of two sparse tensors (the DSFA `cAdd` merge kernel).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::TensorShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &SparseTensor) -> Result<SparseTensor, SparseError> {
        if self.shape() != other.shape() {
            return Err(SparseError::TensorShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let a = self.entries[i];
            let b = other.entries[j];
            match a.key().cmp(&b.key()) {
                core::cmp::Ordering::Less => {
                    merged.push(a);
                    i += 1;
                }
                core::cmp::Ordering::Greater => {
                    merged.push(b);
                    j += 1;
                }
                core::cmp::Ordering::Equal => {
                    let v = a.value + b.value;
                    if v != 0.0 {
                        merged.push(SparseEntry { value: v, ..a });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        Ok(SparseTensor {
            channels: self.channels,
            height: self.height,
            width: self.width,
            entries: merged,
        })
    }

    /// Scales every stored value in place.
    pub fn scale(&mut self, factor: f32) {
        if factor == 0.0 {
            self.entries.clear();
            return;
        }
        for e in &mut self.entries {
            e.value *= factor;
        }
    }

    /// Pointwise average of several same-shape tensors (the DSFA `cAverage`
    /// merge kernel).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EmptyInput`] when `tensors` is empty and
    /// [`SparseError::TensorShapeMismatch`] on shape disagreement.
    pub fn average(tensors: &[SparseTensor]) -> Result<SparseTensor, SparseError> {
        let first = tensors.first().ok_or(SparseError::EmptyInput)?;
        let mut acc = first.clone();
        for t in &tensors[1..] {
            acc = acc.add(t)?;
        }
        acc.scale(1.0 / tensors.len() as f32);
        Ok(acc)
    }

    /// Stacks same-shape tensors along the channel axis (the DSFA `cBatch`
    /// merge kernel): `k` tensors of `[C, H, W]` become `[k*C, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EmptyInput`] when `tensors` is empty and
    /// [`SparseError::TensorShapeMismatch`] on shape disagreement.
    pub fn concat_channels(tensors: &[SparseTensor]) -> Result<SparseTensor, SparseError> {
        let first = tensors.first().ok_or(SparseError::EmptyInput)?;
        let mut entries = Vec::with_capacity(tensors.iter().map(SparseTensor::nnz).sum());
        for (k, t) in tensors.iter().enumerate() {
            if t.shape() != first.shape() {
                return Err(SparseError::TensorShapeMismatch {
                    left: first.shape(),
                    right: t.shape(),
                });
            }
            let offset = (k * first.channels) as u32;
            entries.extend(t.entries.iter().map(|e| SparseEntry {
                channel: e.channel + offset,
                ..*e
            }));
        }
        // Per-tensor entries are canonical and channel offsets are
        // monotonically increasing, so the concatenation stays canonical.
        Ok(SparseTensor {
            channels: first.channels * tensors.len(),
            height: first.height,
            width: first.width,
            entries,
        })
    }

    /// Estimated storage footprint in bytes (COO: 3×u32 + f32 per entry).
    pub fn storage_bytes(&self) -> u64 {
        (self.entries.len() * 16) as u64
    }
}

impl fmt::Display for SparseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseTensor[{}x{}x{}] ({} nnz, {:.2}% dense)",
            self.channels,
            self.height,
            self.width,
            self.nnz(),
            self.density() * 100.0
        )
    }
}

impl<'a> IntoIterator for &'a SparseTensor {
    type Item = &'a SparseEntry;
    type IntoIter = core::slice::Iter<'a, SparseEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(c: u32, r: u32, col: u32, v: f32) -> SparseEntry {
        SparseEntry::new(c, r, col, v)
    }

    #[test]
    fn canonicalization_sorts_and_accumulates() {
        let t = SparseTensor::from_entries(
            1,
            4,
            4,
            vec![
                entry(0, 3, 3, 1.0),
                entry(0, 0, 1, 2.0),
                entry(0, 3, 3, 0.5),
            ],
        )
        .unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.entries()[0].key(), (0, 0, 1));
        assert_eq!(t.get(0, 3, 3), 1.5);
    }

    #[test]
    fn zeros_are_dropped() {
        let t =
            SparseTensor::from_entries(1, 2, 2, vec![entry(0, 0, 0, 1.0), entry(0, 0, 0, -1.0)])
                .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn bounds_are_validated() {
        assert!(matches!(
            SparseTensor::from_entries(1, 2, 2, vec![entry(0, 2, 0, 1.0)]),
            Err(SparseError::EntryOutOfBounds { .. })
        ));
        assert!(matches!(
            SparseTensor::from_entries(1, 2, 2, vec![entry(1, 0, 0, 1.0)]),
            Err(SparseError::EntryOutOfBounds { .. })
        ));
    }

    #[test]
    fn dense_round_trip() {
        let dense =
            Tensor::from_vec(&[2, 2, 2], vec![0.0, 1.0, 0.0, 0.0, -3.0, 0.0, 0.0, 0.5]).unwrap();
        let sparse = SparseTensor::from_dense(&dense, 0.0).unwrap();
        assert_eq!(sparse.nnz(), 3);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn from_dense_rejects_wrong_rank() {
        let dense = Tensor::zeros(&[4, 4]);
        assert!(matches!(
            SparseTensor::from_dense(&dense, 0.0),
            Err(SparseError::RankMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn from_dense_respects_threshold() {
        let dense = Tensor::from_vec(&[1, 1, 3], vec![0.05, 0.2, -0.01]).unwrap();
        let sparse = SparseTensor::from_dense(&dense, 0.1).unwrap();
        assert_eq!(sparse.nnz(), 1);
        assert_eq!(sparse.get(0, 0, 1), 0.2);
    }

    #[test]
    fn densities() {
        let t = SparseTensor::from_entries(
            2,
            2,
            2,
            vec![
                entry(0, 0, 0, 1.0),
                entry(1, 0, 0, 1.0),
                entry(0, 1, 1, 1.0),
            ],
        )
        .unwrap();
        assert!((t.density() - 3.0 / 8.0).abs() < 1e-12);
        // (0,0) and (1,1) are the two active sites of 4.
        assert!((t.spatial_density() - 0.5).abs() < 1e-12);
        assert_eq!(t.active_sites(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn add_merges_and_cancels() {
        let a = SparseTensor::from_entries(1, 2, 2, vec![entry(0, 0, 0, 1.0), entry(0, 1, 1, 2.0)])
            .unwrap();
        let b =
            SparseTensor::from_entries(1, 2, 2, vec![entry(0, 0, 0, -1.0), entry(0, 0, 1, 4.0)])
                .unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.nnz(), 2); // (0,0) cancels
        assert_eq!(sum.get(0, 0, 1), 4.0);
        assert_eq!(sum.get(0, 1, 1), 2.0);
        let c = SparseTensor::empty(1, 3, 3);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn average_scales_sum() {
        let a = SparseTensor::from_entries(1, 2, 2, vec![entry(0, 0, 0, 2.0)]).unwrap();
        let b = SparseTensor::from_entries(1, 2, 2, vec![entry(0, 0, 0, 4.0)]).unwrap();
        let avg = SparseTensor::average(&[a, b]).unwrap();
        assert_eq!(avg.get(0, 0, 0), 3.0);
        assert!(matches!(
            SparseTensor::average(&[]),
            Err(SparseError::EmptyInput)
        ));
    }

    #[test]
    fn concat_offsets_channels() {
        let a = SparseTensor::from_entries(2, 2, 2, vec![entry(1, 0, 0, 1.0)]).unwrap();
        let b = SparseTensor::from_entries(2, 2, 2, vec![entry(0, 1, 1, 2.0)]).unwrap();
        let cat = SparseTensor::concat_channels(&[a, b]).unwrap();
        assert_eq!(cat.channels(), 4);
        assert_eq!(cat.get(1, 0, 0), 1.0);
        assert_eq!(cat.get(2, 1, 1), 2.0);
        // Canonical ordering is preserved.
        let keys: Vec<_> = cat.entries().iter().map(|e| e.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn scale_by_zero_empties() {
        let mut t = SparseTensor::from_entries(1, 2, 2, vec![entry(0, 0, 0, 2.0)]).unwrap();
        t.scale(0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn storage_bytes_scales_with_nnz() {
        let t = SparseTensor::from_entries(1, 4, 4, vec![entry(0, 0, 0, 1.0), entry(0, 1, 0, 1.0)])
            .unwrap();
        assert_eq!(t.storage_bytes(), 32);
    }
}
