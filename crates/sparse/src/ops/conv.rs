//! 2-D convolution kernels: dense, sparse-scatter, and submanifold.
//!
//! Three implementations of the same layer:
//!
//! * [`conv2d_dense`] — the baseline: work is independent of input content.
//! * [`conv2d_sparse`] — gather/scatter over COO nonzeros: work proportional
//!   to the number of events (the benefit E2SF unlocks, paper §4.1).
//! * [`conv2d_submanifold`] — outputs only at active input sites (Graham et
//!   al., the sparse library `[6]` the paper cites), preserving sparsity
//!   through stacked layers.

use crate::coo::{SparseEntry, SparseTensor};
use crate::dense::Tensor;
use crate::opcount::{OpCount, WorkComparison};
use crate::SparseError;
use std::collections::HashMap;

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
/// for the dense kernel is input-independent).
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
    let x = input.as_slice();
    let wt = weight.as_slice();
    {
        // Axpy formulation: initialize every output channel with its bias,
        // then for each (ci, ky, kx) tap sweep a whole output row with one
        // scalar weight. The padding/stride legality tests are hoisted into
        // per-tap `[lo, hi)` ranges, so the innermost loop is a flat slice
        // zip with no bounds checks or index math — which autovectorizes.
        // Each output element still receives its contributions in the
        // original bias → ci → ky → kx order, so results are bitwise
        // identical to the naive triple loop.
        let o = out.as_mut_slice();
        let stride = spec.stride;
        let pad = spec.padding;
        // Valid output range for a kernel offset: `k + out*stride - pad`
        // must land in `[0, in_dim)`.
        let valid_range = |k: usize, in_dim: usize, out_dim: usize| -> (usize, usize) {
            let lo = pad.saturating_sub(k).div_ceil(stride);
            let hi = if in_dim + pad > k {
                ((in_dim + pad - k - 1) / stride + 1).min(out_dim)
            } else {
                0
            };
            (lo, hi)
        };
        for co in 0..c_out {
            let ochan = &mut o[co * ho * wo..(co + 1) * ho * wo];
            let b = bias.map(|b| b[co]).unwrap_or(0.0);
            ochan.fill(b);
            for ci in 0..c_in {
                let xchan = &x[ci * h * w..(ci + 1) * h * w];
                for ky in 0..kh {
                    let (oy_lo, oy_hi) = valid_range(ky, h, ho);
                    for kx in 0..kw {
                        let (ox_lo, ox_hi) = valid_range(kx, w, wo);
                        if oy_lo >= oy_hi || ox_lo >= ox_hi {
                            continue;
                        }
                        let wv = wt[((co * c_in + ci) * kh + ky) * kw + kx];
                        for oy in oy_lo..oy_hi {
                            let iy = oy * stride + ky - pad;
                            let ix0 = ox_lo * stride + kx - pad;
                            let orow = &mut ochan[oy * wo + ox_lo..oy * wo + ox_hi];
                            let xrow = &xchan[iy * w + ix0..];
                            if stride == 1 {
                                let xrow = &xrow[..orow.len()];
                                for (ov, xv) in orow.iter_mut().zip(xrow) {
                                    *ov += xv * wv;
                                }
                            } else {
                                for (ov, xv) in orow.iter_mut().zip(xrow.iter().step_by(stride)) {
                                    *ov += xv * wv;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
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

/// Event-sparse convolution: scatters each COO nonzero into the dense
/// output. Work is proportional to `nnz × C_out × kH × kW` instead of the
/// dense `C_in × H × W × C_out × kH × kW`.
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
    let actual = OpCount {
        macs,
        adds: 0,
        bytes_read: input.storage_bytes() + (weight.len() * 4) as u64,
        bytes_written: (out.len() * 4) as u64,
    };
    let dense_equivalent = OpCount {
        macs: dense_conv_macs(c_in, c_out, kh, kw, ho, wo),
        adds: 0,
        bytes_read: ((c_in * input.height() * input.width() + weight.len()) * 4) as u64,
        bytes_written: (out.len() * 4) as u64,
    };
    Ok((
        out,
        WorkComparison {
            actual,
            dense_equivalent,
        },
    ))
}

/// Submanifold sparse convolution: a stride-1 "same" convolution whose
/// outputs exist only at the input's active spatial sites, so sparsity is
/// preserved through stacked layers.
///
/// # Errors
///
/// Returns a [`SparseError`] on rank/shape mismatches; the kernel must be
/// odd-sized (required for a centred "same" convolution), otherwise
/// [`SparseError::EvenSubmanifoldKernel`] is returned.
pub fn conv2d_submanifold(
    input: &SparseTensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
) -> Result<(SparseTensor, WorkComparison), SparseError> {
    if weight.rank() != 4 {
        return Err(SparseError::RankMismatch {
            expected: 4,
            actual: weight.rank(),
        });
    }
    let kh = weight.shape()[2];
    let kw = weight.shape()[3];
    if kh.is_multiple_of(2) || kw.is_multiple_of(2) {
        return Err(SparseError::EvenSubmanifoldKernel { kh, kw });
    }
    let spec = Conv2dSpec {
        stride: 1,
        padding: kh / 2,
    };
    let (c_in, h, w, c_out, kh, kw, _ho, _wo) = validate(input.shape(), weight, bias, spec)?;

    // Index nonzeros per (ci, y, x) for O(1) gathers.
    let mut lookup: HashMap<(u32, u32, u32), f32> = HashMap::with_capacity(input.nnz());
    for e in input.iter() {
        lookup.insert((e.channel, e.row, e.col), e.value);
    }
    let sites = input.active_sites();
    let wt = weight.as_slice();
    let mut entries = Vec::with_capacity(sites.len() * c_out);
    let mut macs = 0u64;
    for &(sy, sx) in &sites {
        for co in 0..c_out {
            let mut acc = bias.map(|b| b[co]).unwrap_or(0.0);
            for ci in 0..c_in {
                for ky in 0..kh {
                    let iy = sy as i64 + ky as i64 - (kh / 2) as i64;
                    if iy < 0 || iy >= h as i64 {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = sx as i64 + kx as i64 - (kw / 2) as i64;
                        if ix < 0 || ix >= w as i64 {
                            continue;
                        }
                        if let Some(v) = lookup.get(&(ci as u32, iy as u32, ix as u32)) {
                            let wv = wt[((co * c_in + ci) * kh + ky) * kw + kx];
                            acc += v * wv;
                            macs += 1;
                        }
                    }
                }
            }
            if acc != 0.0 {
                entries.push(SparseEntry::new(co as u32, sy, sx, acc));
            }
        }
    }
    let out = SparseTensor::from_entries(c_out, h, w, entries)?;
    let actual = OpCount {
        macs,
        adds: 0,
        bytes_read: input.storage_bytes() + (weight.len() * 4) as u64,
        bytes_written: out.storage_bytes(),
    };
    let dense_equivalent = OpCount {
        macs: dense_conv_macs(c_in, c_out, kh, kw, h, w),
        adds: 0,
        bytes_read: ((c_in * h * w + weight.len()) * 4) as u64,
        bytes_written: (c_out * h * w * 4) as u64,
    };
    Ok((
        out,
        WorkComparison {
            actual,
            dense_equivalent,
        },
    ))
}

/// Transposed ("deconvolution") 2-D convolution over a `[C, H, W]` input.
///
/// The decoder upsampling layer of the encoder-decoder networks in the model
/// zoo. Output spatial size is `(in - 1) * stride + k - 2 * padding`.
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
    let x = input.as_slice();
    let wt = weight.as_slice();
    {
        let o = out.as_mut_slice();
        if let Some(b) = bias {
            for co in 0..c_out {
                for v in &mut o[co * ho * wo..(co + 1) * ho * wo] {
                    *v = b[co];
                }
            }
        }
        for ci in 0..c_in {
            for iy in 0..h {
                for ix in 0..w {
                    let xv = x[(ci * h + iy) * w + ix];
                    if xv == 0.0 {
                        continue;
                    }
                    for co in 0..c_out {
                        for ky in 0..kh {
                            let oy = iy * stride + ky;
                            if oy < padding || oy - padding >= ho {
                                continue;
                            }
                            let oy = oy - padding;
                            for kx in 0..kw {
                                let ox = ix * stride + kx;
                                if ox < padding || ox - padding >= wo {
                                    continue;
                                }
                                let ox = ox - padding;
                                let wv = wt[((ci * c_out + co) * kh + ky) * kw + kx];
                                o[(co * ho + oy) * wo + ox] += xv * wv;
                            }
                        }
                    }
                }
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

    fn weight_identity3(c: usize) -> Tensor {
        // 3x3 kernels that pass each channel through unchanged (centre = 1).
        let mut w = Tensor::zeros(&[c, c, 3, 3]);
        for ch in 0..c {
            w.set(&[ch, ch, 1, 1], 1.0);
        }
        w
    }

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
    fn submanifold_preserves_active_sites() {
        let input = SparseTensor::from_entries(
            1,
            8,
            8,
            vec![
                SparseEntry::new(0, 2, 2, 1.0),
                SparseEntry::new(0, 2, 3, -1.0),
                SparseEntry::new(0, 6, 6, 2.0),
            ],
        )
        .unwrap();
        let weight = weight_identity3(1);
        let (out, work) = conv2d_submanifold(&input, &weight, None).unwrap();
        // Identity kernel: output equals input at the same sites.
        assert_eq!(out.active_sites(), input.active_sites());
        assert_eq!(out.get(0, 2, 2), 1.0);
        assert_eq!(out.get(0, 6, 6), 2.0);
        assert!(work.actual.macs < work.dense_equivalent.macs);
    }

    #[test]
    fn submanifold_matches_dense_at_active_sites() {
        let mut dense_in = Tensor::zeros(&[2, 6, 6]);
        dense_in.set(&[0, 1, 1], 1.0);
        dense_in.set(&[1, 1, 2], 2.0);
        dense_in.set(&[0, 4, 4], -1.0);
        let sparse_in = SparseTensor::from_dense(&dense_in, 0.0).unwrap();
        let mut weight = Tensor::zeros(&[3, 2, 3, 3]);
        weight.fill_pseudorandom(11, 1.0);
        let (dense_out, _) = conv2d_dense(&dense_in, &weight, None, Conv2dSpec::same(3)).unwrap();
        let (sub_out, _) = conv2d_submanifold(&sparse_in, &weight, None).unwrap();
        for &(y, x) in &sparse_in.active_sites() {
            for co in 0..3u32 {
                let d = dense_out.get(&[co as usize, y as usize, x as usize]);
                let s = sub_out.get(co, y, x);
                assert!((d - s).abs() < 1e-4, "site ({y},{x}) ch {co}: {d} vs {s}");
            }
        }
    }

    #[test]
    fn submanifold_rejects_even_kernel() {
        let input = SparseTensor::empty(1, 4, 4);
        let weight = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(matches!(
            conv2d_submanifold(&input, &weight, None),
            Err(SparseError::EvenSubmanifoldKernel { .. })
        ));
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
