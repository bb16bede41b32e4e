//! Pins real forward execution bit for bit.
//!
//! Each case runs one zoo network through `Executor::run` over the E2SF
//! frames of a synthetic event stream and hashes (FNV-1a, 64-bit) the MAC
//! count and every output bit of every pass. The recorded digests are the
//! ones the plain loop-nest dense kernels produced before the
//! register-blocked ones replaced them, so any change to a kernel's
//! summation order, or to what the executor feeds it, shows up here.

use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
use ev_core::{SensorGeometry, TimeWindow, Timestamp};
use ev_edge::e2sf::{E2sf, E2sfConfig};
use ev_nn::forward::{Activation, Executor};
use ev_nn::zoo::{NetworkId, ZooConfig};

const NETWORKS: [NetworkId; 4] = [
    NetworkId::FusionFlowNet,
    NetworkId::AdaptiveSpikeNet,
    NetworkId::EvFlowNet,
    NetworkId::Dotie,
];

/// Four 10 ms E2SF frames of a uniform stream at `rate` events/s over the
/// 32×32 sensor of [`ZooConfig::small`], and their mean density.
fn frames(rate: f64) -> (Vec<Activation>, f64) {
    let zoo = ZooConfig::small();
    let geometry = SensorGeometry::new(zoo.width as u32, zoo.height as u32);
    let mut generator = StatisticalGenerator::new(
        geometry,
        RateProfile::Constant(rate),
        SpatialModel::Uniform,
        7,
    );
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(40));
    let events = generator.generate(window).expect("generation succeeds");
    let frames: Vec<Activation> = E2sf::new(E2sfConfig::new(4))
        .convert(&events, window)
        .expect("conversion succeeds")
        .iter()
        .map(|f| Activation::Sparse(f.tensor().clone()))
        .collect();
    let density = frames.iter().map(Activation::density).sum::<f64>() / frames.len() as f64;
    (frames, density)
}

/// FNV-1a over the MAC count and every output bit of each pass.
fn digest(network: NetworkId, frames: &[Activation]) -> u64 {
    let graph = network.build(&ZooConfig::small()).expect("zoo network");
    let mut executor = Executor::new(graph, 11);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for frame in frames {
        let result = executor.run(frame).expect("forward pass");
        feed(&result.total_actual().macs.to_le_bytes());
        for (_, activation) in &result.outputs {
            for x in activation.to_flat() {
                feed(&x.to_bits().to_le_bytes());
            }
        }
    }
    hash
}

fn check(rate: f64, density: std::ops::Range<f64>, expected: [u64; 4]) {
    let (frames, mean) = frames(rate);
    assert!(density.contains(&mean), "input density {mean}");
    for (network, want) in NETWORKS.into_iter().zip(expected) {
        assert_eq!(
            digest(network, &frames),
            want,
            "{network:?} at {rate} events/s"
        );
    }
}

#[test]
fn forward_passes_match_recorded_digests_on_sparse_frames() {
    check(
        2_500.0,
        0.005..0.02,
        [
            0xc9fe_c7fa_399b_fa08,
            0x2b9f_a539_981d_ea34,
            0xda15_a070_350f_30b9,
            0xa768_7ea8_c55a_10dd,
        ],
    );
}

#[test]
fn forward_passes_match_recorded_digests_on_dense_frames() {
    check(
        75_000.0,
        0.2..0.4,
        [
            0x6360_d108_2e15_79bd,
            0x675d_58a7_45ba_83c4,
            0x955d_0bff_af68_e6a7,
            0xe8cc_77ae_ff63_a9ec,
        ],
    );
}
