//! Property-based tests for the sparse tensor substrate.
#![allow(clippy::needless_range_loop)]

use ev_sparse::coo::{SparseEntry, SparseTensor};
use ev_sparse::csr::CsrMatrix;
use ev_sparse::dense::Tensor;
use ev_sparse::graph::{
    active_fraction, dilate_active, gather_mean, grid_adjacency, grid_edge_count, scatter_add,
};
use ev_sparse::ops::conv::{conv2d_dense, conv2d_sparse, Conv2dSpec};
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
    fn sparse_conv_equals_dense_conv(
        t in arb_sparse(25),
        seed in 0u64..1000,
        stride in 1usize..=2,
    ) {
        let mut weight = Tensor::zeros(&[3, C, 3, 3]);
        weight.fill_pseudorandom(seed, 1.0);
        let spec = Conv2dSpec { stride, padding: 1 };
        let (dense_out, _) = conv2d_dense(&t.to_dense(), &weight, None, spec).expect("valid");
        let (sparse_out, work) = conv2d_sparse(&t, &weight, None, spec).expect("valid");
        prop_assert_eq!(dense_out.shape(), sparse_out.shape());
        for (a, b) in dense_out.as_slice().iter().zip(sparse_out.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "dense {} vs sparse {}", a, b);
        }
        prop_assert!(work.actual.macs <= work.dense_equivalent.macs);
    }

    #[test]
    fn csr_spmv_matches_dense(
        triplets in prop::collection::vec((0u32..6, 0u32..5, -3i8..=3), 0..20),
        x in prop::collection::vec(-2.0f32..2.0, 5),
    ) {
        let trip: Vec<(u32, u32, f32)> =
            triplets.into_iter().map(|(r, c, v)| (r, c, v as f32)).collect();
        let m = CsrMatrix::from_triplets(6, 5, &trip).expect("in bounds");
        let (y, _) = m.spmv(&x).expect("length 5");
        let dense = m.to_dense();
        for r in 0..6 {
            let mut acc = 0.0f32;
            for c in 0..5 {
                acc += dense.get(&[r, c]) * x[c];
            }
            prop_assert!((y[r] - acc).abs() < 1e-4);
        }
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
    fn graph_scatter_matches_dense_reference(
        h in 1usize..6,
        w in 1usize..6,
        radius in 0usize..3,
        f in 1usize..4,
        values in prop::collection::vec(-3i8..=3, 36 * 3),
    ) {
        // Scatter is the adjacency-transpose aggregation:
        // out[j] = Σ_i A[i][j]·x[i], computed naively over the dense matrix.
        let nodes = h * w;
        let adj = grid_adjacency(h, w, radius).expect("valid grid");
        let data: Vec<f32> = values[..nodes * f].iter().map(|&v| v as f32).collect();
        let x = Tensor::from_vec(&[nodes, f], data.clone()).expect("shape matches");
        let (out, work) = scatter_add(&adj, &x).expect("valid scatter");
        let dense = adj.to_dense();
        for j in 0..nodes {
            for k in 0..f {
                let mut reference = 0.0f32;
                for i in 0..nodes {
                    reference += dense.get(&[i, j]) * data[i * f + k];
                }
                prop_assert!(
                    (out.get(&[j, k]) - reference).abs() < 1e-4,
                    "node {} feature {}: {} vs {}",
                    j, k, out.get(&[j, k]), reference
                );
            }
        }
        prop_assert!(work.actual.macs <= work.dense_equivalent.macs);
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
