//! Property-based tests for the sparse tensor substrate.
#![allow(clippy::needless_range_loop)]

use ev_sparse::coo::{SparseEntry, SparseTensor};
use ev_sparse::csr::CsrMatrix;
use ev_sparse::dense::Tensor;
use ev_sparse::graph::{
    active_fraction, dilate_active, gather_mean, grid_adjacency, grid_edge_count,
};
use ev_sparse::opcount::OpCount;
use ev_sparse::ops::conv::{
    conv2d_dense, conv2d_sparse, conv_transpose2d_dense, dense_conv_macs, sparse_conv_work,
    Conv2dSpec,
};
use ev_sparse::SparseError;
use proptest::prelude::*;

const H: usize = 12;
const W: usize = 10;
const C: usize = 2;

fn arb_entries(max: usize) -> impl Strategy<Value = Vec<SparseEntry>> {
    prop::collection::vec(
        (0..C as u32, 0..H as u32, 0..W as u32, -4i8..=4)
            .prop_map(|(c, r, col, v)| SparseEntry::new(c, r, col, v as f32 * 0.5)),
        0..max,
    )
}

fn arb_sparse(max: usize) -> impl Strategy<Value = SparseTensor> {
    arb_entries(max).prop_map(|e| SparseTensor::from_entries(C, H, W, e).expect("in bounds"))
}

/// Canonical tensors with 1–6 channels over the same `H × W` sites, so
/// entries in different channels often share a site. Zero values and
/// cancelling duplicates drop out, which leaves some tensors empty.
fn arb_multichannel(max: usize) -> impl Strategy<Value = SparseTensor> {
    (
        1usize..=6,
        prop::collection::vec(
            (
                any::<prop::sample::Index>(),
                0..H as u32,
                0..W as u32,
                -2i8..=2,
            ),
            0..max,
        ),
    )
        .prop_map(|(channels, raw)| {
            let entries = raw
                .into_iter()
                .map(|(c, r, col, v)| SparseEntry::new(c.index(channels) as u32, r, col, v as f32))
                .collect();
            SparseTensor::from_entries(channels, H, W, entries).expect("in bounds")
        })
}

proptest! {
    #[test]
    fn dense_round_trip(t in arb_sparse(40)) {
        let dense = t.to_dense();
        let back = SparseTensor::from_dense(&dense, 0.0).expect("rank 3");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn add_is_commutative(a in arb_sparse(30), b in arb_sparse(30)) {
        let ab = a.add(&b).expect("same shape");
        let ba = b.add(&a).expect("same shape");
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn add_matches_dense_add(a in arb_sparse(30), b in arb_sparse(30)) {
        let sparse_sum = a.add(&b).expect("same shape").to_dense();
        let mut dense_sum = a.to_dense();
        dense_sum.add_assign_elementwise(&b.to_dense()).expect("same shape");
        for (x, y) in sparse_sum.as_slice().iter().zip(dense_sum.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn nnz_never_exceeds_sites(t in arb_multichannel(80)) {
        prop_assert!(t.nnz() <= t.channels() * H * W);
        prop_assert!(t.density() <= 1.0);
        prop_assert!(t.spatial_density() <= 1.0);
        // Spatial density counts sites, never more than nnz.
        let sites = t.active_sites().len();
        prop_assert!(sites <= t.nnz().max(1));
        // The counted union over channels is the materialized one.
        prop_assert_eq!(t.count_active_sites(), sites);
        prop_assert_eq!(t.spatial_density(), sites as f64 / (H * W) as f64);
    }

    #[test]
    fn concat_preserves_total_nnz(a in arb_sparse(20), b in arb_sparse(20)) {
        let cat = SparseTensor::concat_channels(&[a.clone(), b.clone()]).expect("same shape");
        prop_assert_eq!(cat.nnz(), a.nnz() + b.nnz());
        prop_assert_eq!(cat.channels(), 2 * C);
    }

    #[test]
    fn csr_assign_reuse_matches_from_dense(
        grids in prop::collection::vec(
            (1usize..7, 0usize..7, prop::collection::vec(-3i8..=3, 42)),
            1..5,
        ),
    ) {
        // One matrix re-encoded across arbitrary shapes and contents must
        // stay identical to a fresh `from_dense` extraction every time.
        let mut reused = CsrMatrix::zeros(1, 1);
        for (rows, cols, values) in grids {
            let data: Vec<f32> = values[..rows * cols].iter().map(|&v| v as f32).collect();
            let dense = Tensor::from_vec(&[rows, cols], data).expect("shape matches");
            reused.assign_from_dense(&dense).expect("rank 2");
            let fresh = CsrMatrix::from_dense(&dense).expect("rank 2");
            prop_assert_eq!(&reused, &fresh);
        }
    }

    #[test]
    fn graph_gather_matches_dense_reference(
        h in 1usize..6,
        w in 1usize..6,
        radius in 0usize..3,
        f in 1usize..4,
        values in prop::collection::vec(-3i8..=3, 36 * 3),
    ) {
        // The event-graph gather over CSR adjacency must equal the naive
        // dense aggregation: out[i] = (x[i] + Σ_j A[i][j]·x[j]) / (1 + deg(i)).
        let nodes = h * w;
        let adj = grid_adjacency(h, w, radius).expect("valid grid");
        let data: Vec<f32> = values[..nodes * f].iter().map(|&v| v as f32).collect();
        let x = Tensor::from_vec(&[nodes, f], data.clone()).expect("shape matches");
        let (out, work) = gather_mean(&adj, &x).expect("valid gather");
        let dense = adj.to_dense();
        for i in 0..nodes {
            let mut deg = 0usize;
            let mut acc = vec![0.0f32; f];
            for j in 0..nodes {
                let a = dense.get(&[i, j]);
                if a != 0.0 {
                    deg += 1;
                }
                for k in 0..f {
                    acc[k] += a * data[j * f + k];
                }
            }
            for k in 0..f {
                let reference = (data[i * f + k] + acc[k]) / (1.0 + deg as f32);
                prop_assert!(
                    (out.get(&[i, k]) - reference).abs() < 1e-4,
                    "node {} feature {}: {} vs {}",
                    i, k, out.get(&[i, k]), reference
                );
            }
        }
        prop_assert!(work.actual.macs <= work.dense_equivalent.macs);
        prop_assert_eq!(work.actual.macs, (adj.nnz() * f) as u64);
    }

    #[test]
    fn graph_dilation_matches_dense_reachability(
        h in 1usize..6,
        w in 1usize..6,
        radius in 0usize..3,
        bits in prop::collection::vec(any::<bool>(), 36),
    ) {
        let nodes = h * w;
        let adj = grid_adjacency(h, w, radius).expect("valid grid");
        let active: Vec<bool> = bits[..nodes].to_vec();
        let (dilated, _) = dilate_active(&adj, &active).expect("valid dilation");
        let dense = adj.to_dense();
        for i in 0..nodes {
            let reference = active[i]
                || (0..nodes).any(|j| dense.get(&[i, j]) != 0.0 && active[j]);
            prop_assert_eq!(dilated[i], reference, "node {}", i);
        }
        // Dilation is monotone and the fraction never shrinks.
        prop_assert!(active_fraction(&dilated) >= active_fraction(&active));
        for i in 0..nodes {
            prop_assert!(!active[i] || dilated[i]);
        }
    }

    #[test]
    fn grid_edge_count_is_exact(
        h in 1usize..8,
        w in 1usize..8,
        radius in 0usize..4,
    ) {
        let adj = grid_adjacency(h, w, radius).expect("valid grid");
        prop_assert_eq!(adj.nnz() as u64, grid_edge_count(h, w, radius));
    }

    #[test]
    fn csr_transpose_involution(
        triplets in prop::collection::vec((0u32..6, 0u32..5, -3i8..=3), 0..20),
    ) {
        let trip: Vec<(u32, u32, f32)> =
            triplets.into_iter().map(|(r, c, v)| (r, c, v as f32)).collect();
        let m = CsrMatrix::from_triplets(6, 5, &trip).expect("in bounds");
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}

/// SplitMix64 over one drawn seed: fills a case's tensors.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `+0.0` or `-0.0` one time in eight each, otherwise uniform in
    /// `[-2, 2)`.
    fn value(&mut self) -> f32 {
        let r = self.next();
        match r % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => (r >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0,
        }
    }

    fn tensor(&mut self, shape: &[usize]) -> Tensor {
        let data = (0..shape.iter().product()).map(|_| self.value()).collect();
        Tensor::from_vec(shape, data).expect("shape matches")
    }

    /// A sparse `[C, H, W]` tensor whose sites each hold a nonzero with
    /// probability `eighths / 8`: empty at 0, full at 8.
    fn sparse(&mut self, shape: &[usize], eighths: u64) -> SparseTensor {
        let data = (0..shape.iter().product())
            .map(|_| {
                let (keep, v) = (self.next() % 8 < eighths, self.value());
                if !keep {
                    0.0
                } else if v == 0.0 {
                    1.0
                } else {
                    v
                }
            })
            .collect();
        let dense = Tensor::from_vec(shape, data).expect("shape matches");
        SparseTensor::from_dense(&dense, 0.0).expect("rank 3")
    }

    /// No bias (`kind` 0), a drawn one (1), or a drawn one with a `-0.0`
    /// element (2).
    fn bias(&mut self, kind: u8, len: usize) -> Option<Vec<f32>> {
        let mut bias: Vec<f32> = (0..len).map(|_| self.value()).collect();
        match kind {
            0 => None,
            1 => Some(bias),
            _ => {
                let at = self.next() as usize % len;
                bias[at] = -0.0;
                Some(bias)
            }
        }
    }
}

/// Whether two kernel results have the same shape, `OpCount` and output
/// bits, or are both the same error.
fn bit_identical(
    got: &Result<(Tensor, OpCount), SparseError>,
    want: &Result<(Tensor, OpCount), SparseError>,
) -> Result<(), String> {
    match (got, want) {
        (Ok((g, g_ops)), Ok((w, w_ops))) => {
            if g.shape() != w.shape() {
                return Err(format!("shape {:?} vs {:?}", g.shape(), w.shape()));
            }
            if g_ops != w_ops {
                return Err(format!("ops {g_ops:?} vs {w_ops:?}"));
            }
            match g
                .as_slice()
                .iter()
                .zip(w.as_slice())
                .position(|(a, b)| a.to_bits() != b.to_bits())
            {
                Some(i) => Err(format!(
                    "element {i}: {} vs {}",
                    g.as_slice()[i],
                    w.as_slice()[i]
                )),
                None => Ok(()),
            }
        }
        (Err(a), Err(b)) if a == b => Ok(()),
        (g, w) => Err(format!(
            "{:?} vs {:?}",
            g.as_ref().map(|r| r.0.shape()),
            w.as_ref().map(|r| r.0.shape())
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn dense_conv_matches_its_oracle_bit_for_bit(
        c_in in 1usize..=12,
        c_out in 1usize..=20,
        kernel in 1usize..=5,
        stride in 1usize..=3,
        padding in 0usize..=2,
        h in 1usize..=12,
        w in 1usize..=12,
        bias_kind in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let input = mix.tensor(&[c_in, h, w]);
        let weight = mix.tensor(&[c_out, c_in, kernel, kernel]);
        let bias = mix.bias(bias_kind, c_out);
        let spec = Conv2dSpec { stride, padding };
        let got = conv2d_dense(&input, &weight, bias.as_deref(), spec);
        let want = oracle_conv2d_dense(&input, &weight, bias.as_deref(), spec);
        let verdict = bit_identical(&got, &want);
        prop_assert!(
            verdict.is_ok(),
            "{}→{} k{} s{} p{} {}×{} bias {}: {:?}",
            c_in, c_out, kernel, stride, padding, h, w, bias_kind, verdict
        );
    }

    #[test]
    fn sparse_conv_equals_dense_conv(
        c_in in 1usize..=8,
        c_out in 1usize..=20,
        kernel in 1usize..=5,
        stride in 1usize..=3,
        padding in 0usize..=2,
        h in 1usize..=12,
        w in 1usize..=12,
        eighths in 0u64..=8,
        with_bias in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        // Both kernels add each output's terms in (ci, iy, ix) order. The
        // dense one also adds the zero products the sparse one skips, and
        // with finite weights those can only change a sum that is -0.0,
        // which no sum can be when no bias element is -0.0. So the outputs
        // agree bit for bit, and `sparse_conv_work` counts the scatter's
        // work without running it.
        let mut mix = Mix(seed);
        let input = mix.sparse(&[c_in, h, w], eighths);
        let weight = mix.tensor(&[c_out, c_in, kernel, kernel]);
        // Drawn signed zeros become +0.0.
        let bias: Option<Vec<f32>> = with_bias
            .then(|| (0..c_out).map(|_| mix.value() + 0.0).collect());
        let spec = Conv2dSpec { stride, padding };
        let dense = conv2d_dense(&input.to_dense(), &weight, bias.as_deref(), spec);
        let sparse = conv2d_sparse(&input, &weight, bias.as_deref(), spec);
        let work = sparse_conv_work(&input, &weight, spec);
        let case = format!(
            "{c_in}→{c_out} k{kernel} s{stride} p{padding} {h}×{w} nnz {} bias {with_bias}",
            input.nnz()
        );
        match (dense, sparse, work) {
            (Ok((d, _)), Ok((s, s_work)), Ok(work)) => {
                prop_assert_eq!(d.shape(), s.shape(), "{}", case);
                let differs = d
                    .as_slice()
                    .iter()
                    .zip(s.as_slice())
                    .position(|(a, b)| a.to_bits() != b.to_bits());
                prop_assert!(differs.is_none(), "{}: element {:?}", case, differs);
                prop_assert_eq!(work, s_work, "{}", case);
                prop_assert!(work.actual.macs <= work.dense_equivalent.macs, "{}", case);
            }
            (Err(a), Err(b), Err(c)) => {
                prop_assert_eq!(a, b, "{}", case);
                prop_assert_eq!(b, c, "{}", case);
            }
            (d, s, work) => prop_assert!(
                false,
                "{}: dense {:?}, sparse {:?}, work {:?}",
                case,
                d.map(|r| r.1),
                s.map(|r| r.1),
                work
            ),
        }
    }

    #[test]
    fn dense_conv_transpose_matches_its_oracle_bit_for_bit(
        c_in in 1usize..=12,
        c_out in 1usize..=20,
        kernel in 1usize..=5,
        stride in 1usize..=3,
        padding in 0usize..=2,
        h in 1usize..=12,
        w in 1usize..=12,
        bias_kind in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let input = mix.tensor(&[c_in, h, w]);
        let weight = mix.tensor(&[c_in, c_out, kernel, kernel]);
        let bias = mix.bias(bias_kind, c_out);
        let got = conv_transpose2d_dense(&input, &weight, bias.as_deref(), stride, padding);
        let want = oracle_conv_transpose2d_dense(&input, &weight, bias.as_deref(), stride, padding);
        let verdict = bit_identical(&got, &want);
        prop_assert!(
            verdict.is_ok(),
            "{}→{} k{} s{} p{} {}×{} bias {}: {:?}",
            c_in, c_out, kernel, stride, padding, h, w, bias_kind, verdict
        );
    }
}

// ---------------------------------------------------------------------
// Dense-kernel oracles
// ---------------------------------------------------------------------

// The dense convolution and transposed convolution as they were before
// their register-blocked rewrite, copied verbatim (only renamed). Each
// output adds the same products in the same order in both versions, so
// the rewrite must match these bit for bit.

/// Validates conv operands, returning `(c_in, h, w, c_out, kh, kw, ho, wo)`.
#[allow(clippy::type_complexity)]
fn oracle_validate(
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

/// The straightforward dense convolution: an axpy per (co, ci, ky, kx) tap.
fn oracle_conv2d_dense(
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
    let (c_in, h, w, c_out, kh, kw, ho, wo) = oracle_validate(in_shape, weight, bias, spec)?;
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

/// The straightforward transposed convolution: a scalar scatter per input.
fn oracle_conv_transpose2d_dense(
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
