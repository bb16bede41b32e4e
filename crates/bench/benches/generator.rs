//! Statistical event-stream generator throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ev_core::event::SensorGeometry;
use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
use ev_core::{TimeWindow, Timestamp};

fn bench_generator(c: &mut Criterion) {
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20));
    let mut group = c.benchmark_group("event_sources");
    group.sample_size(10);

    for &rate in &[100_000.0f64, 1_000_000.0] {
        group.bench_with_input(
            BenchmarkId::new(
                "statistical_davis346_20ms",
                format!("{}k", (rate / 1e3) as u64),
            ),
            &rate,
            |b, &rate| {
                b.iter(|| {
                    let mut generator = StatisticalGenerator::new(
                        SensorGeometry::DAVIS346,
                        RateProfile::Constant(rate),
                        SpatialModel::Uniform,
                        1,
                    );
                    generator.generate(window).expect("generation succeeds")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generator);
criterion_main!(benches);
