//! Property-based tests for the list scheduler and latency model.

use ev_core::{TimeDelta, Timestamp};
use ev_nn::graph::LayerWorkload;
use ev_nn::{Domain, Precision};
use ev_platform::latency::{layer_cost, transfer_cost, LayerContext};
use ev_platform::pe::Platform;
use ev_platform::schedule::{list_schedule, NodeTiming, SchedGraph, Schedule};
use ev_platform::PlatformError;
use proptest::prelude::*;

const QUEUES: usize = 4;

/// One oracle node: a layer execution or a data transfer, with its own
/// dependency list.
#[derive(Debug, Clone, PartialEq)]
struct SchedNode {
    queue: usize,
    duration: TimeDelta,
    deps: Vec<usize>,
}

impl SchedNode {
    fn new(queue: usize, duration: TimeDelta, deps: Vec<usize>) -> Self {
        SchedNode {
            queue,
            duration,
            deps,
        }
    }
}

/// The oracle's result: per-node timings, makespan and busy time per
/// queue.
type OracleSchedule = (Vec<NodeTiming>, TimeDelta, Vec<TimeDelta>);

/// The reference list scheduler: a full Kahn order (a `Vec` of
/// successors per node, each newly ready batch sorted), then Equation 3
/// end times in that order.
fn oracle_list_schedule(
    nodes: &[SchedNode],
    queue_count: usize,
) -> Result<OracleSchedule, PlatformError> {
    for (i, n) in nodes.iter().enumerate() {
        if n.queue >= queue_count {
            return Err(PlatformError::InvalidQueue {
                node: i,
                queue: n.queue,
                queues: queue_count,
            });
        }
        for &d in &n.deps {
            if d >= nodes.len() {
                return Err(PlatformError::CyclicDependency { node: i });
            }
        }
    }

    // Kahn topological order.
    let mut indegree: Vec<usize> = nodes.iter().map(|n| n.deps.len()).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for &d in &n.deps {
            succs[d].push(i);
        }
    }
    let mut ready: Vec<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, d)| **d == 0)
        .map(|(i, _)| i)
        .collect();
    ready.sort_unstable();
    let mut order = Vec::with_capacity(nodes.len());
    let mut cursor = 0;
    while cursor < ready.len() {
        let i = ready[cursor];
        cursor += 1;
        order.push(i);
        let mut newly = Vec::new();
        for &s in &succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                newly.push(s);
            }
        }
        newly.sort_unstable();
        ready.extend(newly);
    }
    if order.len() != nodes.len() {
        let stuck = indegree.iter().position(|d| *d > 0).unwrap_or(0);
        return Err(PlatformError::CyclicDependency { node: stuck });
    }

    let mut timings = vec![
        NodeTiming {
            start: Timestamp::ZERO,
            end: Timestamp::ZERO,
        };
        nodes.len()
    ];
    let mut queue_free = vec![Timestamp::ZERO; queue_count];
    let mut queue_busy = vec![TimeDelta::ZERO; queue_count];
    let mut makespan_end = Timestamp::ZERO;
    for &i in &order {
        let n = &nodes[i];
        let dep_ready = n
            .deps
            .iter()
            .map(|&d| timings[d].end)
            .fold(Timestamp::ZERO, Timestamp::max);
        let start = dep_ready.max(queue_free[n.queue]);
        let end = start + n.duration;
        timings[i] = NodeTiming { start, end };
        queue_free[n.queue] = end;
        queue_busy[n.queue] += n.duration;
        makespan_end = makespan_end.max(end);
    }
    Ok((timings, makespan_end - Timestamp::ZERO, queue_busy))
}

fn to_graph(nodes: &[SchedNode]) -> SchedGraph {
    let mut graph = SchedGraph::new();
    for n in nodes {
        graph.push(n.queue, n.duration, &n.deps);
    }
    graph
}

/// Random DAG: each node may depend on a subset of earlier nodes (indices
/// strictly smaller), guaranteeing acyclicity.
fn arb_dag(max_nodes: usize) -> impl Strategy<Value = Vec<SchedNode>> {
    prop::collection::vec(
        (
            0usize..QUEUES,
            1i64..500,
            prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        1..max_nodes,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (queue, dur, dep_idx))| {
                let mut deps: Vec<usize> = dep_idx
                    .into_iter()
                    .filter(|_| i > 0)
                    .map(|ix| ix.index(i.max(1)))
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                SchedNode::new(queue, TimeDelta::from_micros(dur), deps)
            })
            .collect()
    })
}

/// Random graph with no ordering promise: dependencies may point at any
/// node (forward, duplicated, self, or one past the end) and a queue may
/// be one past the last, so cycles and both error kinds occur.
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = Vec<SchedNode>> {
    prop::collection::vec(
        (
            0usize..=QUEUES,
            0i64..500,
            prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        0..max_nodes,
    )
    .prop_map(|raw| {
        let n = raw.len();
        raw.into_iter()
            .map(|(queue, dur, dep_idx)| {
                let deps = dep_idx.into_iter().map(|ix| ix.index(n + 1)).collect();
                SchedNode::new(queue, TimeDelta::from_micros(dur), deps)
            })
            .collect()
    })
}

/// Length of the longest dependency chain (sum of durations).
fn critical_path(nodes: &[SchedNode]) -> i64 {
    let mut longest = vec![0i64; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        let base = n.deps.iter().map(|&d| longest[d]).max().unwrap_or(0);
        longest[i] = base + n.duration.as_micros();
    }
    longest.into_iter().max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedule_respects_bounds(nodes in arb_dag(24)) {
        let mut schedule = Schedule::new();
        list_schedule(&to_graph(&nodes), QUEUES, &mut schedule)
            .expect("acyclic by construction");
        let makespan = schedule.makespan().as_micros();

        // Lower bound 1: the critical dependency path.
        prop_assert!(makespan >= critical_path(&nodes));

        // Lower bound 2: the busiest queue.
        let max_busy = schedule
            .queue_busy()
            .iter()
            .map(|b| b.as_micros())
            .max()
            .unwrap_or(0);
        prop_assert!(makespan >= max_busy);

        // Upper bound: fully serial execution.
        let total: i64 = nodes.iter().map(|n| n.duration.as_micros()).sum();
        prop_assert!(makespan <= total);

        // Per-node causality: start after every dependency's end, end =
        // start + duration, and per-queue non-overlap.
        let timings = schedule.timings();
        for (i, n) in nodes.iter().enumerate() {
            let t = timings[i];
            prop_assert_eq!((t.end - t.start).as_micros(), n.duration.as_micros());
            for &d in &n.deps {
                prop_assert!(timings[d].end <= t.start);
            }
        }
        for q in 0..QUEUES {
            let mut spans: Vec<(i64, i64)> = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.queue == q)
                .map(|(i, _)| {
                    (
                        timings[i].start.as_micros() as i64,
                        timings[i].end.as_micros() as i64,
                    )
                })
                .collect();
            spans.sort_unstable();
            for pair in spans.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0, "queue {q} overlap: {spans:?}");
            }
        }
    }

    /// The flat scheduler equals the oracle node for node, and a reused
    /// `Schedule` carries nothing over from the graph it held before.
    #[test]
    fn list_schedule_matches_oracle(previous in arb_dag(32), nodes in arb_dag(32)) {
        let mut schedule = Schedule::new();
        list_schedule(&to_graph(&previous), QUEUES, &mut schedule)
            .expect("acyclic by construction");
        list_schedule(&to_graph(&nodes), QUEUES, &mut schedule)
            .expect("acyclic by construction");
        let (timings, makespan, queue_busy) =
            oracle_list_schedule(&nodes, QUEUES).expect("acyclic by construction");
        prop_assert_eq!(schedule.timings(), &timings[..]);
        prop_assert_eq!(schedule.makespan(), makespan);
        prop_assert_eq!(schedule.queue_busy(), &queue_busy[..]);
    }

    /// On graphs that may be cyclic or malformed, both schedulers return
    /// the same error, naming the same node.
    #[test]
    fn list_schedule_errors_match_oracle(nodes in arb_graph(12)) {
        let mut schedule = Schedule::new();
        let flat = list_schedule(&to_graph(&nodes), QUEUES, &mut schedule)
            .map(|()| (schedule.timings().to_vec(), schedule.makespan(), schedule.queue_busy().to_vec()));
        prop_assert_eq!(flat, oracle_list_schedule(&nodes, QUEUES));
    }

    #[test]
    fn latency_is_monotone_in_work(
        macs in 1u64..1_000_000_000,
        scale in 2u64..10,
        density in 0.01f64..1.0,
    ) {
        let platform = Platform::xavier_agx();
        let gpu = platform.id_by_name("gpu").expect("gpu exists");
        let workload = |m: u64| LayerWorkload {
            macs: m,
            input_bytes: 1 << 16,
            output_bytes: 1 << 16,
            param_bytes: 1 << 12,
            domain: Domain::Ann,
        };
        let ctx = LayerContext::default().with_density(density);
        let small = layer_cost(&platform, gpu, &workload(macs), ctx).expect("supported");
        let big = layer_cost(&platform, gpu, &workload(macs * scale), ctx).expect("supported");
        prop_assert!(big.latency >= small.latency);
        prop_assert!(big.energy >= small.energy);
    }

    #[test]
    fn latency_is_monotone_in_density(d1 in 0.0f64..1.0, d2 in 0.0f64..1.0) {
        let platform = Platform::xavier_agx();
        let gpu = platform.id_by_name("gpu").expect("gpu exists");
        let workload = LayerWorkload {
            macs: 500_000_000,
            input_bytes: 1 << 16,
            output_bytes: 1 << 16,
            param_bytes: 1 << 12,
            domain: Domain::Snn,
        };
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let sparse = layer_cost(
            &platform,
            gpu,
            &workload,
            LayerContext::default().with_density(lo),
        )
        .expect("supported");
        let dense = layer_cost(
            &platform,
            gpu,
            &workload,
            LayerContext::default().with_density(hi),
        )
        .expect("supported");
        prop_assert!(sparse.latency <= dense.latency);
        prop_assert!(sparse.effective_macs <= dense.effective_macs);
    }

    #[test]
    fn transfers_scale_with_bytes(bytes in 1u64..100_000_000) {
        let platform = Platform::xavier_agx();
        let gpu = platform.id_by_name("gpu").expect("gpu exists");
        let dla = platform.id_by_name("dla0").expect("dla exists");
        let small = transfer_cost(&platform, gpu, dla, bytes, Precision::Fp32);
        let big = transfer_cost(&platform, gpu, dla, bytes * 2, Precision::Fp32);
        prop_assert!(big.latency >= small.latency);
        // Same-PE transfers are always free.
        let same = transfer_cost(&platform, gpu, gpu, bytes, Precision::Fp32);
        prop_assert_eq!(same.latency, TimeDelta::ZERO);
    }
}
