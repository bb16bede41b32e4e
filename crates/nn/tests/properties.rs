//! Property-based tests for the network substrate: random chains through
//! the executor, LIF dynamics.

use ev_nn::forward::{Activation, Executor};
use ev_nn::graph::GraphBuilder;
use ev_nn::layer::{Conv2dCfg, LayerKind, LifCfg, Shape};
use ev_nn::snn::LifState;
use ev_nn::Task;
use ev_sparse::coo::{SparseEntry, SparseTensor};
use ev_sparse::dense::Tensor;
use proptest::prelude::*;

const SIZE: usize = 16;

/// A random valid chain of conv / spiking-conv / pool stages over a
/// 16×16 2-channel input.
fn arb_chain() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 1..5)
}

fn build_chain(stages: &[u8]) -> ev_nn::NetworkGraph {
    let mut b = GraphBuilder::new(
        "prop-chain",
        Task::OpticalFlow,
        Shape::Chw {
            c: 2,
            h: SIZE,
            w: SIZE,
        },
    );
    let mut prev = None;
    let mut channels = 2usize;
    let mut spatial = SIZE;
    for (i, stage) in stages.iter().enumerate() {
        let preds: Vec<_> = prev.into_iter().collect();
        let id = match stage {
            0 => {
                let out = (channels * 2).min(16);
                let id = b
                    .layer(
                        format!("conv{i}"),
                        LayerKind::Conv2d(Conv2dCfg::same(channels, out, 3)),
                        &preds,
                    )
                    .expect("valid conv");
                channels = out;
                id
            }
            1 => {
                let out = (channels * 2).min(16);
                let id = b
                    .layer(
                        format!("spike{i}"),
                        LayerKind::SpikingConv2d {
                            conv: Conv2dCfg::same(channels, out, 3),
                            lif: LifCfg::default(),
                        },
                        &preds,
                    )
                    .expect("valid spiking conv");
                channels = out;
                id
            }
            _ => {
                if spatial >= 4 {
                    spatial /= 2;
                    b.layer(
                        format!("pool{i}"),
                        LayerKind::MaxPool2d { kernel: 2 },
                        &preds,
                    )
                    .expect("valid pool")
                } else {
                    b.layer(
                        format!("conv{i}"),
                        LayerKind::Conv2d(Conv2dCfg::same(channels, channels, 3)),
                        &preds,
                    )
                    .expect("valid conv")
                }
            }
        };
        prev = Some(id);
    }
    b.finish().expect("nonempty chain")
}

fn arb_sparse_input(max: usize) -> impl Strategy<Value = SparseTensor> {
    prop::collection::vec(
        (0u32..2, 0u32..SIZE as u32, 0u32..SIZE as u32, 1u8..4),
        0..max,
    )
    .prop_map(|entries| {
        SparseTensor::from_entries(
            2,
            SIZE,
            SIZE,
            entries
                .into_iter()
                .map(|(c, r, col, v)| SparseEntry::new(c, r, col, v as f32))
                .collect(),
        )
        .expect("in bounds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn executor_handles_random_chains(stages in arb_chain(), input in arb_sparse_input(30)) {
        let graph = build_chain(&stages);
        let mut exec = Executor::new(graph, 5);
        let result = exec.run(&Activation::Sparse(input)).expect("forward runs");
        prop_assert_eq!(result.traces.len(), stages.len());
        for trace in &result.traces {
            prop_assert!(trace.output_density >= 0.0 && trace.output_density <= 1.0);
            prop_assert!(trace.work.actual.macs <= trace.work.dense_equivalent.macs);
        }
    }

    #[test]
    fn lif_spike_count_bounded_by_charge(
        current in 0.0f32..3.0,
        steps in 1usize..40,
        leak in 0.5f32..1.0,
    ) {
        let mut lif = LifState::new(1, 1, 1, LifCfg {
            leak,
            threshold: 1.0,
            reset_to_zero: false,
        });
        let input = Tensor::full(&[1, 1, 1], current);
        let mut spikes = 0usize;
        for _ in 0..steps {
            let (s, _) = lif.step(&input).expect("shape matches");
            spikes += s.nnz();
        }
        // Charge conservation: total injected current bounds emitted
        // spikes × threshold.
        let injected = current as f64 * steps as f64;
        prop_assert!(spikes as f64 <= injected + 1.0, "{spikes} spikes from {injected}");
    }
}
