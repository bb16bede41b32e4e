//! 2-D convolution kernels: dense and sparse-scatter.
//!
//! Two implementations of the same layer:
//!
//! * [`conv2d_dense`] — the baseline: work is independent of input content.
//! * [`conv2d_sparse`] — scatters each COO nonzero into the output: work
//!   proportional to the number of events (the benefit E2SF unlocks, paper
//!   §4.1). [`sparse_conv_work`] counts that work without running it.
//!
//! Plus [`conv_transpose2d_dense`], the decoders' upsampling layer.
//!
//! # Summation order
//!
//! Each output of every kernel here is its bias (or `+0.0`) plus its
//! products, added one at a time in a fixed order. For [`conv2d_dense`]
//! the order is (ci, ky, kx) over the taps that padding does not clip,
//! which is (ci, iy, ix) order over the inputs. [`conv2d_sparse`] and
//! [`conv_transpose2d_dense`] add in (ci, iy, ix) order over the nonzero
//! inputs. Rust never fuses `a * b + c` into one rounding, so that order
//! alone fixes every output bit. The loop nests around the sums are free
//! to change, and the dense ones here are tuned:
//!
//! * [`conv2d_dense`] splits the output plane into cells of pixels that
//!   share one set of in-bounds taps: the interior, and each band of
//!   border rows or columns that padding clips. It lists each cell's taps
//!   once. Per block of output channels it packs the weights tap-major,
//!   then sums a register tile over the tap list: the block's channels ×
//!   consecutive pixels of one output row. The tile shape follows the
//!   block width: 32 × 1 or 8 × 4 vectorized across channels, and 2 × 16
//!   or 1 × 32 vectorized across pixels.
//! * [`conv_transpose2d_dense`] walks the inputs in (ci, iy, ix) order and
//!   skips zeros. Each in-range tap adds `x · w` into a channels-last
//!   accumulator as one contiguous `c_out`-wide axpy. One transpose at the
//!   end gives `[C_out, H_out, W_out]`. An input reaches each output
//!   through at most one tap, so every output still sees its terms in
//!   (ci, iy, ix) order.
//!
//! `crates/sparse/tests/properties.rs` keeps the plain loop nests these
//! kernels replaced as oracles, and checks every output bit against them
//! on random shapes, strides, paddings and signed zeros.
//!
//! The two convolutions differ only in the zero products the scatter
//! skips. With finite weights such a product is `±0.0`, and adding it
//! changes only a running sum of `-0.0`. A sum that starts at `+0.0` or
//! at a bias other than `-0.0` is never `-0.0`, so under those two
//! conditions [`conv2d_sparse`] and [`conv2d_dense`] on
//! [`SparseTensor::to_dense`] agree bit for bit, and a caller may pick
//! either by input density alone.

use crate::coo::SparseTensor;
use crate::dense::Tensor;
use crate::opcount::{OpCount, WorkComparison};
use crate::SparseError;

/// Stride and zero-padding of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dSpec {
    /// A stride-1 "same" convolution for an odd kernel size `k`.
    pub fn same(kernel: usize) -> Self {
        Conv2dSpec {
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Output spatial size for an input dimension, or `None` if the kernel
    /// does not fit.
    pub fn out_dim(&self, in_dim: usize, kernel: usize) -> Option<usize> {
        let padded = in_dim + 2 * self.padding;
        if padded < kernel || self.stride == 0 {
            None
        } else {
            Some((padded - kernel) / self.stride + 1)
        }
    }
}

/// Validates conv operands, returning `(c_in, h, w, c_out, kh, kw, ho, wo)`.
#[allow(clippy::type_complexity)]
fn validate(
    in_shape: [usize; 3],
    weight: &Tensor,
    bias: Option<&[f32]>,
    spec: Conv2dSpec,
) -> Result<(usize, usize, usize, usize, usize, usize, usize, usize), SparseError> {
    if weight.rank() != 4 {
        return Err(SparseError::RankMismatch {
            expected: 4,
            actual: weight.rank(),
        });
    }
    let [c_in, h, w] = in_shape;
    let (c_out, wc_in, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if wc_in != c_in {
        return Err(SparseError::ShapeMismatch {
            expected: c_in,
            actual: wc_in,
        });
    }
    if let Some(b) = bias {
        if b.len() != c_out {
            return Err(SparseError::ShapeMismatch {
                expected: c_out,
                actual: b.len(),
            });
        }
    }
    let ho = spec.out_dim(h, kh).ok_or(SparseError::KernelTooLarge {
        kernel: kh,
        input: h,
        padding: spec.padding,
    })?;
    let wo = spec.out_dim(w, kw).ok_or(SparseError::KernelTooLarge {
        kernel: kw,
        input: w,
        padding: spec.padding,
    })?;
    Ok((c_in, h, w, c_out, kh, kw, ho, wo))
}

/// The MAC count of a dense convolution with these shapes.
pub fn dense_conv_macs(
    c_in: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
) -> u64 {
    (c_out * ho * wo * c_in * kh * kw) as u64
}

/// Dense direct convolution over a `[C, H, W]` input.
///
/// Returns the `[C_out, H_out, W_out]` output and the work performed (which
/// for the dense kernel is input-independent). Each output is its bias plus
/// its unclipped taps' products, added in (ci, ky, kx) order (see the
/// module docs).
///
/// # Errors
///
/// Returns a [`SparseError`] on rank/shape mismatches or when the kernel
/// does not fit the padded input.
///
/// # Examples
///
/// ```
/// use ev_sparse::dense::Tensor;
/// use ev_sparse::ops::conv::{conv2d_dense, Conv2dSpec};
///
/// # fn main() -> Result<(), ev_sparse::SparseError> {
/// let input = Tensor::full(&[1, 4, 4], 1.0);
/// let weight = Tensor::full(&[2, 1, 3, 3], 0.5);
/// let (out, ops) = conv2d_dense(&input, &weight, None, Conv2dSpec::default())?;
/// assert_eq!(out.shape(), &[2, 2, 2]);
/// assert_eq!(ops.macs, 2 * 2 * 2 * 9);
/// # Ok(())
/// # }
/// ```
pub fn conv2d_dense(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    spec: Conv2dSpec,
) -> Result<(Tensor, OpCount), SparseError> {
    if input.rank() != 3 {
        return Err(SparseError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    let in_shape = [input.shape()[0], input.shape()[1], input.shape()[2]];
    let (c_in, h, w, c_out, kh, kw, ho, wo) = validate(in_shape, weight, bias, spec)?;
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    DenseConv {
        x: input.as_slice(),
        weight: weight.as_slice(),
        bias,
        c_in,
        w,
        plane: h * w,
        kh,
        kw,
        stride: spec.stride,
        pad: spec.padding,
        wo,
        out_plane: ho * wo,
        rows: tap_runs(ho, h, kh, spec.stride, spec.padding),
        cols: tap_runs(wo, w, kw, spec.stride, spec.padding),
    }
    .run(c_out, out.as_mut_slice());
    let macs = dense_conv_macs(c_in, c_out, kh, kw, ho, wo);
    let ops = OpCount {
        macs,
        adds: if bias.is_some() {
            (c_out * ho * wo) as u64
        } else {
            0
        },
        bytes_read: (input.len() * 4 + weight.len() * 4) as u64,
        bytes_written: (out.len() * 4) as u64,
    };
    Ok((out, ops))
}

/// Kernel offsets `[lo, hi)` along one axis for which `pos + k - pad`
/// lands in `[0, dim)`.
fn in_range_taps(pos: usize, pad: usize, k: usize, dim: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(pos).min(k);
    let hi = (dim + pad).saturating_sub(pos).min(k).max(lo);
    (lo, hi)
}

/// Consecutive output coordinates along one axis that share one range of
/// in-bounds kernel offsets.
#[derive(Debug, Clone, Copy)]
struct TapRun {
    /// Output coordinates `[start, end)`.
    out: (usize, usize),
    /// In-bounds kernel offsets `[lo, hi)`.
    taps: (usize, usize),
}

/// Splits `0..out_dim` into maximal [`TapRun`]s.
fn tap_runs(out_dim: usize, in_dim: usize, k: usize, stride: usize, pad: usize) -> Vec<TapRun> {
    let mut runs: Vec<TapRun> = Vec::new();
    for o in 0..out_dim {
        let taps = in_range_taps(o * stride, pad, k, in_dim);
        match runs.last_mut() {
            Some(run) if run.taps == taps => run.out.1 = o + 1,
            _ => runs.push(TapRun {
                out: (o, o + 1),
                taps,
            }),
        }
    }
    runs
}

/// One [`conv2d_dense`] call: its operands and the tap runs of both axes.
struct DenseConv<'a> {
    x: &'a [f32],
    weight: &'a [f32],
    bias: Option<&'a [f32]>,
    c_in: usize,
    w: usize,
    plane: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    wo: usize,
    out_plane: usize,
    rows: Vec<TapRun>,
    cols: Vec<TapRun>,
}

impl DenseConv<'_> {
    /// Fills `out` (`[c_out, H_out, W_out]`) one block of output channels at
    /// a time, the widest block first.
    fn run(&self, c_out: usize, out: &mut [f32]) {
        // Scratch reused by every block: its packed weights, a cell's taps.
        let (mut w, mut t) = (Vec::new(), Vec::new());
        let mut co = 0;
        while co < c_out {
            co += match c_out - co {
                32.. => self.block::<32, 1, 1>(co, &mut w, &mut t, out),
                8.. => self.block::<8, 4, 1>(co, &mut w, &mut t, out),
                2.. => self.block::<2, 16, 4>(co, &mut w, &mut t, out),
                _ => self.block::<1, 32, 8>(co, &mut w, &mut t, out),
            };
        }
    }

    /// Computes output channels `co0..co0 + CB` in tiles of `PX` pixels
    /// (`NV` four-lane vectors when `CB < 4`) and returns `CB`.
    fn block<const CB: usize, const PX: usize, const NV: usize>(
        &self,
        co0: usize,
        packed: &mut Vec<f32>,
        taps: &mut Vec<(usize, usize)>,
        out: &mut [f32],
    ) -> usize {
        let n_taps = self.c_in * self.kh * self.kw;
        packed.clear();
        packed.extend(
            (0..n_taps).flat_map(|t| (co0..co0 + CB).map(move |co| self.weight[co * n_taps + t])),
        );
        let init: [f32; CB] = std::array::from_fn(|c| self.bias.map_or(0.0, |b| b[co0 + c]));
        for row in &self.rows {
            for col in &self.cols {
                self.cell_taps(row.taps, col.taps, taps);
                let tiles = Tiles {
                    x: self.x,
                    packed,
                    taps,
                    stride: self.stride,
                    init,
                };
                let (ox0, ox1) = col.out;
                for oy in row.out.0..row.out.1 {
                    // Output index of pixel (oy, 0) in channel co0 + c.
                    let o = |c: usize| (co0 + c) * self.out_plane + oy * self.wo;
                    if taps.is_empty() {
                        for (c, &b) in init.iter().enumerate() {
                            out[o(c) + ox0..o(c) + ox1].fill(b);
                        }
                        continue;
                    }
                    // Input index of the first in-bounds tap of pixel `ox`.
                    let iy = oy * self.stride + row.taps.0 - self.pad;
                    let base = |ox: usize| iy * self.w + ox * self.stride + col.taps.0 - self.pad;
                    if ox1 - ox0 < PX {
                        for ox in ox0..ox1 {
                            let [px] = tiles.channel_major::<1>(base(ox));
                            for (c, v) in px.into_iter().enumerate() {
                                out[o(c) + ox] = v;
                            }
                        }
                        continue;
                    }
                    // The last tile ends at `ox1` and overlaps its
                    // predecessor, whose outputs it rewrites with the
                    // same bits.
                    for ox in (ox0..ox1).step_by(PX) {
                        let at = ox.min(ox1 - PX);
                        if CB >= 4 {
                            let acc = tiles.channel_major::<PX>(base(at));
                            for (p, px) in acc.iter().enumerate() {
                                for (c, &v) in px.iter().enumerate() {
                                    out[o(c) + at + p] = v;
                                }
                            }
                        } else {
                            let acc = tiles.pixel_major::<NV>(base(at));
                            for (c, lanes) in acc.iter().enumerate() {
                                let dst = out[o(c) + at..o(c) + at + PX].chunks_exact_mut(4);
                                for (d, v) in dst.zip(lanes) {
                                    d.copy_from_slice(v);
                                }
                            }
                        }
                    }
                }
            }
        }
        CB
    }

    /// Lists a cell's in-bounds taps in (ci, ky, kx) order, each as (input
    /// offset from the pixel's first tap, tap index into the packed weights).
    fn cell_taps(&self, ky: (usize, usize), kx: (usize, usize), taps: &mut Vec<(usize, usize)>) {
        taps.clear();
        for ci in 0..self.c_in {
            for y in ky.0..ky.1 {
                for x in kx.0..kx.1 {
                    taps.push((
                        ci * self.plane + (y - ky.0) * self.w + (x - kx.0),
                        (ci * self.kh + y) * self.kw + x,
                    ));
                }
            }
        }
    }
}

/// What the register tiles of one cell read: the input, one block's packed
/// weights and the cell's tap list. Every accumulator starts at `init` and
/// adds the listed taps in order.
struct Tiles<'a, const CB: usize> {
    x: &'a [f32],
    packed: &'a [f32],
    taps: &'a [(usize, usize)],
    stride: usize,
    init: [f32; CB],
}

impl<const CB: usize> Tiles<'_, CB> {
    /// `PX` consecutive output pixels of one row × `CB` output channels,
    /// vectorized across channels. `base` is the first pixel's first tap.
    fn channel_major<const PX: usize>(&self, base: usize) -> [[f32; CB]; PX] {
        let span = (PX - 1) * self.stride + 1;
        let mut acc = [self.init; PX];
        for &(offset, t) in self.taps {
            let wv = &self.packed[t * CB..(t + 1) * CB];
            let xs = &self.x[base + offset..base + offset + span];
            for (p, a) in acc.iter_mut().enumerate() {
                let xv = xs[p * self.stride];
                for c in 0..CB {
                    a[c] += xv * wv[c];
                }
            }
        }
        acc
    }

    /// `CB` output channels × `4 * NV` consecutive output pixels of one row,
    /// vectorized across pixels. `base` is the first pixel's first tap.
    /// Stride 1 gets its own copy: its loads are contiguous and vectorize,
    /// which makes the 1×1 two-channel head about 3× faster.
    fn pixel_major<const NV: usize>(&self, base: usize) -> [[[f32; 4]; NV]; CB] {
        if self.stride == 1 {
            self.pixel_major_at::<NV, true>(base)
        } else {
            self.pixel_major_at::<NV, false>(base)
        }
    }

    /// [`Tiles::pixel_major`], with a stride of 1 known at compile time
    /// when `UNIT`.
    #[inline(always)]
    fn pixel_major_at<const NV: usize, const UNIT: bool>(
        &self,
        base: usize,
    ) -> [[[f32; 4]; NV]; CB] {
        let stride = if UNIT { 1 } else { self.stride };
        let span = (4 * NV - 1) * stride + 1;
        let mut acc = self.init.map(|b| [[b; 4]; NV]);
        for &(offset, t) in self.taps {
            let wv: [f32; CB] = std::array::from_fn(|c| self.packed[t * CB + c]);
            let xs = &self.x[base + offset..base + offset + span];
            for v in 0..NV {
                for l in 0..4 {
                    let xv = xs[(4 * v + l) * stride];
                    for c in 0..CB {
                        acc[c][v][l] += xv * wv[c];
                    }
                }
            }
        }
        acc
    }
}

/// Event-sparse convolution: scatters each COO nonzero into the dense
/// output. Work is proportional to `nnz × C_out × kH × kW` instead of the
/// dense `C_in × H × W × C_out × kH × kW`. Each output is its bias plus one
/// product per nonzero input that reaches it, added in (ci, iy, ix) order
/// (see the module docs).
///
/// # Errors
///
/// Returns a [`SparseError`] on rank/shape mismatches or when the kernel
/// does not fit the padded input.
pub fn conv2d_sparse(
    input: &SparseTensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    spec: Conv2dSpec,
) -> Result<(Tensor, WorkComparison), SparseError> {
    let (c_in, _h, _w, c_out, kh, kw, ho, wo) = validate(input.shape(), weight, bias, spec)?;
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    let wt = weight.as_slice();
    let mut macs = 0u64;
    {
        // Within one entry every (ky, kx, co) tap scatters into a *distinct*
        // output element, so the tap loops can be reordered freely; only the
        // entry order (which decides the order of same-element adds across
        // entries) must stay fixed. That makes it safe to hoist the
        // stride-divisibility and bounds checks into per-entry valid-tap
        // lists and then sweep contiguous weight/output rows — for stride 1
        // the taps of one kernel row map onto a reversed contiguous output
        // span, which the fast path walks as a slice zip.
        let o = out.as_mut_slice();
        if let Some(b) = bias {
            for co in 0..c_out {
                o[co * ho * wo..(co + 1) * ho * wo].fill(b[co]);
            }
        }
        let stride = spec.stride;
        // Reused across entries: the (kernel offset, output coordinate)
        // pairs that survive the stride/bounds tests.
        let mut valid_ky: Vec<(usize, usize)> = Vec::with_capacity(kh);
        let mut valid_kx: Vec<(usize, usize)> = Vec::with_capacity(kw);
        for e in input.iter() {
            let ci = e.channel as usize;
            let iy = e.row as usize + spec.padding;
            let ix = e.col as usize + spec.padding;
            valid_ky.clear();
            for ky in 0..kh.min(iy + 1) {
                let oy_num = iy - ky;
                if oy_num.is_multiple_of(stride) {
                    let oy = oy_num / stride;
                    if oy < ho {
                        valid_ky.push((ky, oy));
                    }
                }
            }
            if valid_ky.is_empty() {
                continue;
            }
            valid_kx.clear();
            for kx in 0..kw.min(ix + 1) {
                let ox_num = ix - kx;
                if ox_num.is_multiple_of(stride) {
                    let ox = ox_num / stride;
                    if ox < wo {
                        valid_kx.push((kx, ox));
                    }
                }
            }
            if valid_kx.is_empty() {
                continue;
            }
            macs += (valid_ky.len() * valid_kx.len() * c_out) as u64;
            let ev = e.value;
            if stride == 1 {
                // Contiguous fast path: kx in [kx_lo, kx_hi] maps to
                // ox = ix - kx, a reversed run of output columns.
                let (kx_lo, _) = valid_kx[0];
                let (kx_hi, ox_lo) = valid_kx[valid_kx.len() - 1];
                for co in 0..c_out {
                    let wchan = &wt[(co * c_in + ci) * kh * kw..][..kh * kw];
                    let ochan = &mut o[co * ho * wo..][..ho * wo];
                    for &(ky, oy) in &valid_ky {
                        let wrow = &wchan[ky * kw + kx_lo..=ky * kw + kx_hi];
                        let orow = &mut ochan[oy * wo + ox_lo..oy * wo + ox_lo + wrow.len()];
                        for (ov, wv) in orow.iter_mut().rev().zip(wrow) {
                            *ov += ev * wv;
                        }
                    }
                }
            } else {
                for co in 0..c_out {
                    let wchan = &wt[(co * c_in + ci) * kh * kw..][..kh * kw];
                    let ochan = &mut o[co * ho * wo..][..ho * wo];
                    for &(ky, oy) in &valid_ky {
                        let wrow = &wchan[ky * kw..][..kw];
                        let obase = oy * wo;
                        for &(kx, ox) in &valid_kx {
                            ochan[obase + ox] += ev * wrow[kx];
                        }
                    }
                }
            }
        }
    }
    Ok((out, scatter_work(input, weight, macs, ho, wo)))
}

/// The [`WorkComparison`] that [`conv2d_sparse`] returns for these
/// operands, counted without running the scatter: each nonzero makes one
/// product per output channel for each of its in-range taps. Takes
/// `O(nnz + H + W)` time, so a caller that runs [`conv2d_dense`] instead
/// can still report the scatter's work.
///
/// # Errors
///
/// Returns a [`SparseError`] on rank/shape mismatches or when the kernel
/// does not fit the padded input.
pub fn sparse_conv_work(
    input: &SparseTensor,
    weight: &Tensor,
    spec: Conv2dSpec,
) -> Result<WorkComparison, SparseError> {
    let (_, h, w, c_out, kh, kw, ho, wo) = validate(input.shape(), weight, None, spec)?;
    let rows = reach(h, kh, ho, spec);
    let cols = reach(w, kw, wo, spec);
    let taps: usize = input
        .iter()
        .map(|e| rows[e.row as usize] * cols[e.col as usize])
        .sum();
    Ok(scatter_work(input, weight, (taps * c_out) as u64, ho, wo))
}

/// For each input coordinate along one axis, the number of kernel offsets
/// that carry it to an output coordinate in `0..out_dim`: the outputs `o`
/// with `0 <= i + padding - o·stride < k`.
fn reach(in_dim: usize, k: usize, out_dim: usize, spec: Conv2dSpec) -> Vec<usize> {
    (0..in_dim)
        .map(|i| {
            let p = i + spec.padding;
            let first = (p + 1).saturating_sub(k).div_ceil(spec.stride);
            let last = (p / spec.stride).min(out_dim - 1);
            (last + 1).saturating_sub(first)
        })
        .collect()
}

/// The work of scattering `input` in `macs` products into a `ho × wo`
/// output, beside that of the dense kernel on the same operands.
fn scatter_work(
    input: &SparseTensor,
    weight: &Tensor,
    macs: u64,
    ho: usize,
    wo: usize,
) -> WorkComparison {
    let [c_in, h, w] = input.shape();
    let (c_out, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let bytes_written = (c_out * ho * wo * 4) as u64;
    WorkComparison {
        actual: OpCount {
            macs,
            adds: 0,
            bytes_read: input.storage_bytes() + (weight.len() * 4) as u64,
            bytes_written,
        },
        dense_equivalent: OpCount {
            macs: dense_conv_macs(c_in, c_out, kh, kw, ho, wo),
            adds: 0,
            bytes_read: ((c_in * h * w + weight.len()) * 4) as u64,
            bytes_written,
        },
    }
}

/// Transposed ("deconvolution") 2-D convolution over a `[C, H, W]` input.
///
/// The decoder upsampling layer of the encoder-decoder networks in the model
/// zoo. Output spatial size is `(in - 1) * stride + k - 2 * padding`. Each
/// output is its bias plus one product per nonzero input that reaches it,
/// added in (ci, iy, ix) order (see the module docs).
///
/// # Errors
///
/// Returns a [`SparseError`] on rank/shape mismatches or a degenerate output
/// size.
pub fn conv_transpose2d_dense(
    input: &Tensor,
    weight: &Tensor, // [C_in, C_out, kH, kW]
    bias: Option<&[f32]>,
    stride: usize,
    padding: usize,
) -> Result<(Tensor, OpCount), SparseError> {
    if input.rank() != 3 {
        return Err(SparseError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    if weight.rank() != 4 {
        return Err(SparseError::RankMismatch {
            expected: 4,
            actual: weight.rank(),
        });
    }
    let (c_in, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (wc_in, c_out, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if wc_in != c_in {
        return Err(SparseError::ShapeMismatch {
            expected: c_in,
            actual: wc_in,
        });
    }
    if let Some(b) = bias {
        if b.len() != c_out {
            return Err(SparseError::ShapeMismatch {
                expected: c_out,
                actual: b.len(),
            });
        }
    }
    let ho_full = (h - 1) * stride + kh;
    let wo_full = (w - 1) * stride + kw;
    if ho_full < 2 * padding + 1 || wo_full < 2 * padding + 1 {
        return Err(SparseError::KernelTooLarge {
            kernel: kh,
            input: h,
            padding,
        });
    }
    let ho = ho_full - 2 * padding;
    let wo = wo_full - 2 * padding;
    let mut out = Tensor::zeros(&[c_out, ho, wo]);
    if c_out > 0 {
        let x = input.as_slice();
        let wt = weight.as_slice();
        let taps = kh * kw;
        // Channels-last: `acc[(oy * wo + ox) * c_out + co]`, seeded with the
        // bias, so the taps of one kernel row land on one contiguous span.
        let mut acc = vec![0.0f32; ho * wo * c_out];
        if let Some(b) = bias {
            for px in acc.chunks_exact_mut(c_out) {
                px.copy_from_slice(b);
            }
        }
        // One input channel's weights as `[ky][kx][co]`.
        let mut packed = vec![0.0f32; taps * c_out];
        for ci in 0..c_in {
            for (t, row) in packed.chunks_exact_mut(c_out).enumerate() {
                for (co, v) in row.iter_mut().enumerate() {
                    *v = wt[(ci * c_out + co) * taps + t];
                }
            }
            for iy in 0..h {
                let (ky_lo, ky_hi) = in_range_taps(iy * stride, padding, kh, ho);
                for ix in 0..w {
                    let xv = x[(ci * h + iy) * w + ix];
                    let (kx_lo, kx_hi) = in_range_taps(ix * stride, padding, kw, wo);
                    if xv == 0.0 || kx_lo == kx_hi {
                        continue;
                    }
                    let ox = ix * stride + kx_lo - padding;
                    let len = (kx_hi - kx_lo) * c_out;
                    for ky in ky_lo..ky_hi {
                        let oy = iy * stride + ky - padding;
                        let start = (oy * wo + ox) * c_out;
                        let wrow = &packed[(ky * kw + kx_lo) * c_out..][..len];
                        for (a, wv) in acc[start..start + len].iter_mut().zip(wrow) {
                            *a += xv * wv;
                        }
                    }
                }
            }
        }
        let o = out.as_mut_slice();
        for (p, px) in acc.chunks_exact(c_out).enumerate() {
            for (co, &v) in px.iter().enumerate() {
                o[co * ho * wo + p] = v;
            }
        }
    }
    let ops = OpCount {
        macs: (c_in * h * w * c_out * kh * kw) as u64,
        adds: if bias.is_some() {
            (c_out * ho * wo) as u64
        } else {
            0
        },
        bytes_read: ((input.len() + weight.len()) * 4) as u64,
        bytes_written: (out.len() * 4) as u64,
    };
    Ok((out, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::SparseEntry;

    #[test]
    fn out_dim_math() {
        let spec = Conv2dSpec {
            stride: 2,
            padding: 1,
        };
        assert_eq!(spec.out_dim(8, 3), Some(4));
        assert_eq!(Conv2dSpec::default().out_dim(2, 3), None);
        assert_eq!(Conv2dSpec::same(5).padding, 2);
    }

    #[test]
    fn dense_conv_known_values() {
        let input = Tensor::from_vec(
            &[1, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap();
        let weight = Tensor::full(&[1, 1, 2, 2], 1.0);
        let (out, ops) = conv2d_dense(&input, &weight, None, Conv2dSpec::default()).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.get(&[0, 0, 0]), 12.0); // 1+2+4+5
        assert_eq!(out.get(&[0, 1, 1]), 28.0); // 5+6+8+9
        assert_eq!(ops.macs, 16);
    }

    #[test]
    fn dense_conv_bias_and_padding() {
        let input = Tensor::full(&[1, 2, 2], 1.0);
        let weight = Tensor::full(&[1, 1, 3, 3], 1.0);
        let (out, ops) = conv2d_dense(&input, &weight, Some(&[10.0]), Conv2dSpec::same(3)).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        // Each output sees the 4 ones minus those padded away: corners see 4.
        assert_eq!(out.get(&[0, 0, 0]), 14.0);
        assert_eq!(ops.adds, 4);
    }

    #[test]
    fn sparse_conv_matches_dense() {
        let mut dense_in = Tensor::zeros(&[2, 6, 6]);
        dense_in.set(&[0, 1, 2], 1.0);
        dense_in.set(&[1, 4, 4], -2.0);
        dense_in.set(&[0, 5, 0], 0.5);
        let sparse_in = SparseTensor::from_dense(&dense_in, 0.0).unwrap();
        let mut weight = Tensor::zeros(&[3, 2, 3, 3]);
        weight.fill_pseudorandom(7, 1.0);
        for spec in [
            Conv2dSpec::default(),
            Conv2dSpec::same(3),
            Conv2dSpec {
                stride: 2,
                padding: 1,
            },
        ] {
            let (d, _) = conv2d_dense(&dense_in, &weight, None, spec).unwrap();
            let (s, work) = conv2d_sparse(&sparse_in, &weight, None, spec).unwrap();
            assert_eq!(d.shape(), s.shape());
            for (a, b) in d.as_slice().iter().zip(s.as_slice()) {
                assert!((a - b).abs() < 1e-4, "mismatch {a} vs {b} for {spec:?}");
            }
            assert!(work.actual.macs < work.dense_equivalent.macs);
        }
    }

    #[test]
    fn sparse_conv_bias_matches_dense() {
        let mut dense_in = Tensor::zeros(&[1, 4, 4]);
        dense_in.set(&[0, 2, 2], 3.0);
        let sparse_in = SparseTensor::from_dense(&dense_in, 0.0).unwrap();
        let mut weight = Tensor::zeros(&[2, 1, 3, 3]);
        weight.fill_pseudorandom(3, 1.0);
        let bias = [0.5, -0.25];
        let (d, _) = conv2d_dense(&dense_in, &weight, Some(&bias), Conv2dSpec::same(3)).unwrap();
        let (s, _) = conv2d_sparse(&sparse_in, &weight, Some(&bias), Conv2dSpec::same(3)).unwrap();
        for (a, b) in d.as_slice().iter().zip(s.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sparse_work_scales_with_events() {
        let weight = Tensor::full(&[4, 2, 3, 3], 0.1);
        let one =
            SparseTensor::from_entries(2, 32, 32, vec![SparseEntry::new(0, 5, 5, 1.0)]).unwrap();
        let many = SparseTensor::from_entries(
            2,
            32,
            32,
            (0..20)
                .map(|k| SparseEntry::new(k % 2, 6 + k / 2, 7, 1.0))
                .collect(),
        )
        .unwrap();
        let (_, w1) = conv2d_sparse(&one, &weight, None, Conv2dSpec::same(3)).unwrap();
        let (_, w2) = conv2d_sparse(&many, &weight, None, Conv2dSpec::same(3)).unwrap();
        assert!(w2.actual.macs > 10 * w1.actual.macs);
        assert_eq!(w1.dense_equivalent.macs, w2.dense_equivalent.macs);
    }

    #[test]
    fn conv_transpose_upsamples() {
        // A single 1.0 at the centre of a 2x2 input, stride-2 k=2 kernel of
        // ones → each input pixel expands into a 2x2 block.
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weight = Tensor::full(&[1, 1, 2, 2], 1.0);
        let (out, ops) = conv_transpose2d_dense(&input, &weight, None, 2, 0).unwrap();
        assert_eq!(out.shape(), &[1, 4, 4]);
        assert_eq!(out.get(&[0, 0, 0]), 1.0);
        assert_eq!(out.get(&[0, 0, 1]), 1.0);
        assert_eq!(out.get(&[0, 3, 3]), 4.0);
        assert_eq!(ops.macs, 16);
    }

    #[test]
    fn conv_transpose_inverts_stride2_shape() {
        // Shape check: 4x4 --conv s2 k4 p1--> 2x2? Use the common
        // "k=4, s=2, p=1" upsampling pair: in 3x3 → out 6x6.
        let input = Tensor::full(&[2, 3, 3], 0.5);
        let mut weight = Tensor::zeros(&[2, 3, 4, 4]);
        weight.fill_pseudorandom(9, 0.2);
        let (out, _) = conv_transpose2d_dense(&input, &weight, None, 2, 1).unwrap();
        assert_eq!(out.shape(), &[3, 6, 6]);
    }

    #[test]
    fn conv_transpose_bias_and_validation() {
        let input = Tensor::full(&[1, 2, 2], 0.0);
        let weight = Tensor::full(&[1, 2, 2, 2], 1.0);
        let (out, _) = conv_transpose2d_dense(&input, &weight, Some(&[1.0, -1.0]), 2, 0).unwrap();
        assert_eq!(out.get(&[0, 0, 0]), 1.0);
        assert_eq!(out.get(&[1, 0, 0]), -1.0);
        let bad_weight = Tensor::full(&[2, 2, 2, 2], 1.0);
        assert!(conv_transpose2d_dense(&input, &bad_weight, None, 2, 0).is_err());
        assert!(conv_transpose2d_dense(&input, &weight, Some(&[0.0]), 2, 0).is_err());
    }

    #[test]
    fn dense_conv_never_adds_a_padding_tap() {
        // Each in-bounds product is -0.0 · 1 = -0.0, so every output stays
        // at its -0.0 bias. A padding tap would add +0.0 and clear the sign.
        let input = Tensor::full(&[2, 5, 5], -0.0);
        let weight = Tensor::full(&[3, 2, 3, 3], 1.0);
        for spec in [
            Conv2dSpec::same(3),
            Conv2dSpec {
                stride: 2,
                padding: 2,
            },
        ] {
            let (out, _) = conv2d_dense(&input, &weight, Some(&[-0.0; 3]), spec).unwrap();
            assert!(out
                .as_slice()
                .iter()
                .all(|v| v.to_bits() == (-0.0f32).to_bits()));
        }
    }

    #[test]
    fn conv_transpose_skips_zero_inputs() {
        // Adding any +0.0 · 1 = +0.0 product to the -0.0 bias would clear
        // its sign.
        let input = Tensor::zeros(&[2, 3, 3]);
        let weight = Tensor::full(&[2, 4, 4, 4], 1.0);
        let (out, _) = conv_transpose2d_dense(&input, &weight, Some(&[-0.0; 4]), 2, 1).unwrap();
        assert!(out
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn shape_validation_errors() {
        let input = Tensor::zeros(&[2, 4, 4]);
        let weight = Tensor::zeros(&[1, 3, 3, 3]); // wrong C_in
        assert!(conv2d_dense(&input, &weight, None, Conv2dSpec::default()).is_err());
        let weight2 = Tensor::zeros(&[1, 2, 3, 3]);
        assert!(conv2d_dense(&input, &weight2, Some(&[0.0, 0.0]), Conv2dSpec::default()).is_err());
        let weight3 = Tensor::zeros(&[1, 2, 5, 5]);
        assert!(matches!(
            conv2d_dense(&input, &weight3, None, Conv2dSpec::default()),
            Err(SparseError::KernelTooLarge { .. })
        ));
    }
}
