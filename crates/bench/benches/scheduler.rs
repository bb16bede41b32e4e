//! Equation 3 list-scheduler throughput — the inner loop of every NMP
//! candidate evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ev_core::TimeDelta;
use ev_platform::schedule::{list_schedule, SchedGraph, Schedule};

fn chain_with_transfers(layers: usize, queues: usize) -> SchedGraph {
    let mut graph = SchedGraph::new();
    for l in 0..layers {
        let queue = l % queues;
        let mut deps = Vec::new();
        if l > 0 {
            // Transfer node on the last queue (memory).
            let producer = graph.len() - 1;
            deps.push(graph.push(queues, TimeDelta::from_micros(20), &[producer]));
        }
        graph.push(
            queue,
            TimeDelta::from_micros(100 + (l as i64 * 37) % 400),
            &deps,
        );
    }
    graph
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("list_schedule");
    for &layers in &[16usize, 64, 256] {
        let graph = chain_with_transfers(layers, 4);
        let mut schedule = Schedule::new();
        group.bench_with_input(BenchmarkId::from_parameter(layers), &graph, |b, graph| {
            b.iter(|| list_schedule(graph, 5, &mut schedule).expect("valid graph"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
