//! Unified exec core: the multi-task runtime on periodic arrivals
//! (`exec_runtime/serial_timeline`), the three-stream E2SF → DSFA →
//! engine scenario (`exec_modes/streams_serial`, the scenario the
//! `evbench` streams workload measures end to end), and the service
//! layer over the engine (`serve/synthetic_6x0.5`: six tenants at twice
//! saturation with churn over a 10 s window, the shape of `evbench`'s
//! serve workload at seed 0).

use criterion::{criterion_group, criterion_main, Criterion};
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_datasets::mvsec::SequenceId;
use ev_edge::dsfa::{CMode, DsfaConfig};
use ev_edge::multipipe::{
    run_multi_task_runtime, run_multi_task_streams, MultiTaskRuntimeConfig, StreamTask,
};
use ev_edge::nmp::baseline;
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::task_spec_for;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use ev_serve::{run_service, synthetic_scenario, ServeConfig};

fn problem() -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![
            task_spec_for(NetworkId::FusionFlowNet, &cfg, 1.0).expect("buildable"),
            task_spec_for(NetworkId::E2Depth, &cfg, 1.0).expect("buildable"),
            task_spec_for(NetworkId::Dotie, &cfg, 1.0).expect("buildable"),
        ],
    )
    .expect("valid problem")
}

fn bench_periodic_runtime(c: &mut Criterion) {
    let p = problem();
    let candidate = baseline::rr_network(&p);
    let periods = [
        TimeDelta::from_millis(4),
        TimeDelta::from_millis(6),
        TimeDelta::from_millis(8),
    ];
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(60));
    let mut group = c.benchmark_group("exec_runtime");
    group.sample_size(10);

    group.bench_function("serial_timeline", |b| {
        let config = MultiTaskRuntimeConfig::new(window);
        b.iter(|| run_multi_task_runtime(&p, &candidate, &periods, config).expect("runs"));
    });
    group.finish();
}

fn bench_streams(c: &mut Criterion) {
    let p = problem();
    let candidate = baseline::rr_network(&p);
    let streams = vec![
        StreamTask {
            sequence: SequenceId::IndoorFlying1.sequence(),
            bins_per_interval: 8,
            dsfa: DsfaConfig::default(),
        },
        StreamTask {
            sequence: SequenceId::OutdoorDay1.sequence(),
            bins_per_interval: 6,
            dsfa: DsfaConfig {
                cmode: CMode::CBatch,
                mb_size: 1,
                ..DsfaConfig::default()
            },
        },
        StreamTask {
            sequence: SequenceId::DenseTown10.sequence(),
            bins_per_interval: 8,
            dsfa: DsfaConfig::default(),
        },
    ];
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(120));
    let config = MultiTaskRuntimeConfig::new(window);
    let mut group = c.benchmark_group("exec_modes");
    group.sample_size(10);
    group.bench_function("streams_serial", |b| {
        b.iter(|| run_multi_task_streams(&p, &candidate, &streams, config).expect("runs"));
    });
    group.finish();
}

fn bench_serve(c: &mut Criterion) {
    let mut config = ServeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_secs(10)));
    config.workers = 1;
    let scenario = synthetic_scenario(&config, 6, 0.5).expect("valid scenario");
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("synthetic_6x0.5", |b| {
        b.iter(|| run_service(&scenario, &config).expect("runs"));
    });
    group.finish();
}

criterion_group!(benches, bench_periodic_runtime, bench_streams, bench_serve);
criterion_main!(benches);
