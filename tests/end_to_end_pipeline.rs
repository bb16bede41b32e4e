//! Cross-crate integration: modeled MVSEC stream → E2SF → DSFA → real
//! network execution, exercising every substrate together.

use ev_core::event::SensorGeometry;
use ev_core::generator::RateProfile;
use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
use ev_datasets::mvsec::{Sequence, SequenceId};
use ev_edge::dsfa::{CMode, Dsfa, DsfaConfig};
use ev_edge::e2sf::{E2sf, E2sfConfig};
use ev_nn::forward::{Activation, Executor};
use ev_nn::zoo::{NetworkId, ZooConfig};

/// A 32×32 crop of modeled MVSEC indoor_flying1 at a steady 20k events/s.
fn crop_32(seed: u64, frame_interval: TimeDelta) -> Sequence {
    Sequence {
        geometry: SensorGeometry::new(32, 32),
        profile: RateProfile::Constant(20_000.0),
        gray_frame_interval: frame_interval,
        seed,
        ..SequenceId::IndoorFlying1.sequence()
    }
}

fn zoo_32() -> ZooConfig {
    ZooConfig {
        height: 32,
        width: 32,
        ..ZooConfig::small()
    }
}

#[test]
fn stream_to_network_round_trip() {
    // Generate, convert, aggregate, execute — all real computation.
    let sequence = crop_32(1, TimeDelta::from_millis(20));
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(80));
    let events = sequence.generate(window).expect("stream generates");
    assert!(events.len() > 100, "the stream generates events");

    let frames = E2sf::new(E2sfConfig::new(4))
        .convert_intervals(&events, &sequence.frame_intervals(window))
        .expect("conversion succeeds");
    let total_events: usize = frames.iter().map(|f| f.event_count()).sum();
    assert_eq!(total_events, events.len(), "E2SF loses no events");

    let mut dsfa = Dsfa::new(DsfaConfig {
        cmode: CMode::CAdd,
        ..DsfaConfig::default()
    })
    .expect("valid config");
    let mut merged = Vec::new();
    for frame in frames {
        if let Some(batch) = dsfa.push(frame).expect("push succeeds") {
            merged.extend(batch.frames);
        }
    }
    if let Some(batch) = dsfa.flush(window.end()) {
        merged.extend(batch.frames);
    }
    let merged_events: usize = merged.iter().map(|f| f.frame.event_count()).sum();
    assert_eq!(merged_events, total_events, "DSFA loses no events");

    // Execute SpikeFlowNet on the first merged frame: head output must be
    // a dense flow field of the input resolution.
    let mut exec = Executor::new(
        NetworkId::SpikeFlowNet.build(&zoo_32()).expect("buildable"),
        9,
    );
    let result = exec
        .run(&Activation::Sparse(merged[0].frame.tensor().clone()))
        .expect("forward pass succeeds");
    match &result.outputs[0].1 {
        Activation::Dense(t) => assert_eq!(t.shape(), &[2, 32, 32]),
        other => panic!("flow head must be dense, got {other:?}"),
    }
    // Sparse input ⇒ less work than dense.
    assert!(result.total_actual().macs < result.total_dense_equivalent().macs);
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let sequence = crop_32(5, TimeDelta::from_millis(10));
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(40));
        let events = sequence.generate(window).expect("stream generates");
        let frames = E2sf::new(E2sfConfig::new(2))
            .convert_intervals(&events, &sequence.frame_intervals(window))
            .expect("conversion succeeds");
        let zoo = ZooConfig {
            height: 32,
            width: 32,
            ..ZooConfig::tiny()
        };
        let mut exec = Executor::new(NetworkId::Dotie.build(&zoo).expect("buildable"), 3);
        let inputs: Vec<Activation> = frames
            .iter()
            .map(|f| Activation::Sparse(f.tensor().clone()))
            .collect();
        exec.run_sequence(&inputs).expect("sequence runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "the whole pipeline is deterministic per seed");
}

#[test]
fn snn_timesteps_preserve_sparsity() {
    // Across a timestep sequence, SNN activations stay sparse and the
    // output density never exceeds 1.
    let zoo = zoo_32();
    let mut exec = Executor::new(
        NetworkId::AdaptiveSpikeNet.build(&zoo).expect("buildable"),
        13,
    );
    let sequence = crop_32(8, TimeDelta::from_millis(10));
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(40));
    let events = sequence.generate(window).expect("stream generates");
    let frames = E2sf::new(E2sfConfig::new(1))
        .convert_intervals(&events, &sequence.frame_intervals(window))
        .expect("conversion succeeds");
    let inputs: Vec<Activation> = frames
        .iter()
        .map(|f| Activation::Sparse(f.tensor().clone()))
        .collect();
    let results = exec.run_sequence(&inputs).expect("sequence runs");
    for result in &results {
        for trace in &result.traces {
            assert!(trace.output_density <= 1.0);
            assert!(trace.work.actual.macs <= trace.work.dense_equivalent.macs);
        }
        // The final (output) layer is spiking: its output is sparse.
        match &result.outputs[0].1 {
            Activation::Sparse(s) => assert!(s.density() < 0.9),
            other => panic!("all-SNN output must be sparse, got {other:?}"),
        }
    }
}
