//! Sparse vs dense convolution over an input-density sweep: the raw
//! kernel-level benefit E2SF unlocks, and where it ends.
//!
//! The `crossover_*` groups are the layers whose crossovers set
//! `ev_nn::forward::DENSE_KERNEL_DENSITY`, so
//! `cargo bench -p ev-bench --bench sparse_conv` re-measures the threshold
//! in one command: for each layer, the density at which `sparse_scatter`
//! stops beating `dense`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ev_sparse::coo::SparseTensor;
use ev_sparse::dense::Tensor;
use ev_sparse::ops::conv::{conv2d_dense, conv2d_sparse, Conv2dSpec};

/// A `[C, H, W]` input with `density · C·H·W` ones at distinct
/// pseudorandom sites.
fn make_input(shape: [usize; 3], density: f64, seed: u64) -> (Tensor, SparseTensor) {
    let mut dense = Tensor::zeros(&shape);
    let total = dense.len();
    let nnz = (total as f64 * density) as usize;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = dense.as_mut_slice();
    let mut set = 0;
    while set < nnz {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let idx = (state as usize) % total;
        if data[idx] == 0.0 {
            data[idx] = 1.0;
            set += 1;
        }
    }
    let sparse = SparseTensor::from_dense(&dense, 0.0).expect("rank 3");
    (dense, sparse)
}

/// Benches both kernels on one layer at each input density.
fn sweep(
    c: &mut Criterion,
    group: &str,
    input: [usize; 3],
    c_out: usize,
    kernel: usize,
    spec: Conv2dSpec,
    densities: &[f64],
) {
    let mut weight = Tensor::zeros(&[c_out, input[0], kernel, kernel]);
    weight.fill_pseudorandom(5, 0.2);
    let mut group = c.benchmark_group(group);
    group.sample_size(20);
    for &density in densities {
        let (dense, sparse) = make_input(input, density, 42);
        group.bench_with_input(
            BenchmarkId::new("dense", format!("{density}")),
            &dense,
            |b, input| {
                b.iter(|| conv2d_dense(input, &weight, None, spec).expect("valid"));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sparse_scatter", format!("{density}")),
            &sparse,
            |b, input| {
                b.iter(|| conv2d_sparse(input, &weight, None, spec).expect("valid"));
            },
        );
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let same3 = Conv2dSpec::same(3);
    let down3 = Conv2dSpec {
        stride: 2,
        padding: 1,
    };
    sweep(
        c,
        "conv2d_64x64_c2_to_c8",
        [2, 64, 64],
        8,
        3,
        same3,
        &[0.002, 0.02, 0.1, 0.3],
    );
    let crossover = [0.01, 0.05, 0.1, 0.2, 0.3];
    // The stride-2 encoder input layers of Fusion-FlowNet, Adaptive-SpikeNet
    // and EV-FlowNet at 64×64.
    sweep(
        c,
        "crossover_64x64_c2_to_c8_k3_s2",
        [2, 64, 64],
        8,
        3,
        down3,
        &crossover,
    );
    // DOTIE's one spiking layer.
    sweep(
        c,
        "crossover_64x64_c2_to_c20_k5",
        [2, 64, 64],
        20,
        5,
        Conv2dSpec::same(5),
        &crossover,
    );
    // The spiking residual layers at the bottom of the 64×64 encoders.
    sweep(
        c,
        "crossover_4x4_c64_to_c64_k3",
        [64, 4, 4],
        64,
        3,
        same3,
        &crossover,
    );
}

criterion_group!(benches, bench_conv);
criterion_main!(benches);
