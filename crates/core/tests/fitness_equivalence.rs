//! Evaluator equivalence: `FitnessEvaluator` on its flat, reused
//! buffers scores every candidate exactly as the reference path does —
//! one `Vec` of dependencies per scheduler node, a full Kahn order with
//! each newly ready batch sorted, then Equation 3 end times — down to
//! the last bit of every latency, energy and score, and fails the same
//! way on unexecutable assignments.

use ev_core::{TimeDelta, Timestamp};
use ev_edge::nmp::candidate::{Assignment, Candidate};
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator, FitnessReport, Objective};
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::{task_spec_for, TaskMix};
use ev_edge::EvEdgeError;
use ev_nn::zoo::ZooConfig;
use ev_nn::Precision;
use ev_platform::energy::Energy;
use ev_platform::latency::transfer_cost;
use ev_platform::pe::{PeId, Platform};
use ev_platform::PlatformError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One reference scheduler node with its own dependency list.
struct SchedNode {
    queue: usize,
    duration: TimeDelta,
    deps: Vec<usize>,
}

/// The reference list scheduler; returns every node's end time and the
/// busy time per queue.
fn oracle_list_schedule(
    nodes: &[SchedNode],
    queue_count: usize,
) -> Result<(Vec<Timestamp>, Vec<TimeDelta>), PlatformError> {
    for (i, n) in nodes.iter().enumerate() {
        if n.queue >= queue_count {
            return Err(PlatformError::InvalidQueue {
                node: i,
                queue: n.queue,
                queues: queue_count,
            });
        }
        if n.deps.iter().any(|&d| d >= nodes.len()) {
            return Err(PlatformError::CyclicDependency { node: i });
        }
    }
    let mut indegree: Vec<usize> = nodes.iter().map(|n| n.deps.len()).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for &d in &n.deps {
            succs[d].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
    let mut cursor = 0;
    while cursor < ready.len() {
        let i = ready[cursor];
        cursor += 1;
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
    if ready.len() != nodes.len() {
        let stuck = indegree.iter().position(|d| *d > 0).unwrap_or(0);
        return Err(PlatformError::CyclicDependency { node: stuck });
    }
    let mut ends = vec![Timestamp::ZERO; nodes.len()];
    let mut queue_free = vec![Timestamp::ZERO; queue_count];
    let mut queue_busy = vec![TimeDelta::ZERO; queue_count];
    for &i in &ready {
        let n = &nodes[i];
        let dep_ready = n
            .deps
            .iter()
            .map(|&d| ends[d])
            .fold(Timestamp::ZERO, Timestamp::max);
        let end = dep_ready.max(queue_free[n.queue]) + n.duration;
        ends[i] = end;
        queue_free[n.queue] = end;
        queue_busy[n.queue] += n.duration;
    }
    Ok((ends, queue_busy))
}

/// The reference evaluation: the joint DAG with a transfer node on every
/// cross-PE edge, scheduled by the reference scheduler, scored as the
/// evaluator documents.
fn oracle_evaluate(
    problem: &MultiTaskProblem,
    candidate: &Candidate,
    objective: Objective,
) -> Result<FitnessReport, EvEdgeError> {
    let platform = problem.platform();
    let tasks = problem.tasks();
    let mut nodes: Vec<SchedNode> = Vec::new();
    let mut energy = Energy::ZERO;
    let mut task_nodes: Vec<Vec<usize>> = Vec::new();
    for (t, task) in tasks.iter().enumerate() {
        let assignment = |l: usize| candidate.assignment(problem.global_index(t, l));
        let mut node_of_layer = vec![usize::MAX; task.graph.len()];
        for layer in task.graph.layers() {
            let l = layer.id.0;
            let a = assignment(l);
            let cost = problem.profile(t).layer(l).cost(a.pe, a.precision).ok_or(
                EvEdgeError::UnsupportedAssignment {
                    task: t,
                    layer: l,
                    pe: a.pe,
                    precision: a.precision,
                },
            )?;
            energy += cost.energy;
            let mut deps = Vec::new();
            for pred in task.graph.predecessors(layer.id) {
                let pa = assignment(pred.0);
                if pa.pe == a.pe {
                    deps.push(node_of_layer[pred.0]);
                } else {
                    let bytes = problem.workload(t, pred.0).output_bytes;
                    let tc = transfer_cost(platform, pa.pe, a.pe, bytes, pa.precision);
                    energy += tc.energy;
                    nodes.push(SchedNode {
                        queue: platform.memory_queue(),
                        duration: tc.latency,
                        deps: vec![node_of_layer[pred.0]],
                    });
                    deps.push(nodes.len() - 1);
                }
            }
            nodes.push(SchedNode {
                queue: a.pe.0,
                duration: cost.latency,
                deps,
            });
            node_of_layer[l] = nodes.len() - 1;
        }
        task_nodes.push(node_of_layer);
    }
    let (ends, queue_busy) = oracle_list_schedule(&nodes, platform.queue_count())?;
    let per_task_latency: Vec<TimeDelta> = task_nodes
        .iter()
        .map(|idxs| {
            idxs.iter()
                .map(|&i| ends[i])
                .max()
                .map(|end| end - Timestamp::ZERO)
                .unwrap_or(TimeDelta::ZERO)
        })
        .collect();
    let max_latency = per_task_latency
        .iter()
        .copied()
        .max()
        .unwrap_or(TimeDelta::ZERO);
    let mut per_task_degradation = Vec::new();
    let mut violation = 0.0f64;
    for (t, task) in tasks.iter().enumerate() {
        let precisions: Vec<Precision> = (0..task.graph.len())
            .map(|l| candidate.assignment(problem.global_index(t, l)).precision)
            .collect();
        let degradation =
            task.accuracy
                .degradation(problem.shares(t), &precisions, task.aggregation);
        if degradation > task.max_degradation && task.max_degradation > 0.0 {
            violation += (degradation - task.max_degradation) / task.max_degradation;
        }
        per_task_degradation.push(degradation);
    }
    let pes = platform.elements().len();
    let bottleneck = (0..pes)
        .map(|q| queue_busy[q])
        .max()
        .unwrap_or(TimeDelta::ZERO);
    let objective_secs = match objective {
        Objective::JointLatency => max_latency.as_secs_f64(),
        Objective::Streaming => {
            let mut pe_task_busy = vec![vec![0.0f64; tasks.len()]; pes];
            for (t, idxs) in task_nodes.iter().enumerate() {
                for &i in idxs {
                    pe_task_busy[nodes[i].queue][t] += nodes[i].duration.as_secs_f64();
                }
            }
            let mut load = 0.0f64;
            for (t, task) in tasks.iter().enumerate() {
                let latency_s = per_task_latency[t].as_secs_f64();
                load = load.max(match task.arrival_period {
                    Some(p) => latency_s / p.as_secs_f64(),
                    None => latency_s,
                });
            }
            for pe_busy in &pe_task_busy {
                let mut util = 0.0;
                for (t, busy) in pe_busy.iter().enumerate() {
                    if let Some(p) = tasks[t].arrival_period {
                        util += busy / p.as_secs_f64();
                    }
                }
                load = load.max(util);
            }
            load
        }
    };
    Ok(FitnessReport {
        per_task_latency,
        max_latency,
        per_task_degradation,
        feasible: violation == 0.0,
        energy,
        bottleneck,
        score: objective_secs * (1.0 + 10.0 * violation),
    })
}

/// The mix on `platform`, with streaming periods on every task but the
/// last (which keeps the one-shot branch of the streaming objective)
/// and DSFA aggregation on the first.
fn problem(mix: &TaskMix, platform: Platform) -> MultiTaskProblem {
    let zoo = ZooConfig::mvsec();
    let networks = mix.networks();
    let tasks = networks
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut spec = task_spec_for(n, &zoo, mix.delta_scale()).expect("zoo network");
            if i + 1 < networks.len() {
                spec = spec.with_period(TimeDelta::from_micros(2_500 * (i as i64 + 1)));
            }
            if i == 0 {
                spec = spec.with_aggregation(0.5);
            }
            spec
        })
        .collect();
    MultiTaskProblem::new(platform, tasks).expect("valid problem")
}

/// `candidate` with node `node` moved to an assignment the platform
/// cannot execute: a precision its element lacks, or an element past the
/// platform's last.
fn unsupported(
    problem: &MultiTaskProblem,
    candidate: &Candidate,
    node: usize,
    past_last: bool,
) -> Candidate {
    let elements = problem.platform().elements();
    let bad = if past_last {
        Assignment {
            pe: PeId(elements.len()),
            precision: Precision::Fp16,
        }
    } else {
        elements
            .iter()
            .enumerate()
            .find_map(|(pe, e)| {
                Precision::ALL
                    .into_iter()
                    .find(|&p| !e.supports(p))
                    .map(|precision| Assignment {
                        pe: PeId(pe),
                        precision,
                    })
            })
            .expect("every preset has an element lacking a precision")
    };
    let mut assignments = candidate.assignments().to_vec();
    assignments[node] = bad;
    Candidate::from_assignments(assignments)
}

#[test]
fn flat_evaluator_matches_the_reference_path() {
    const RANDOM: usize = 24;
    let mixes = [
        TaskMix::AllAnn,
        TaskMix::AllSnn,
        TaskMix::MixedSnnAnn,
        TaskMix::GnnHeavy,
        TaskMix::CornerPlusInference,
    ];
    let platforms = [
        Platform::xavier_agx,
        Platform::orin_like,
        Platform::nano_like,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let mut failures = 0;
    for mix in &mixes {
        for platform in platforms {
            let p = problem(mix, platform());
            // Random mappings (cross-PE transfers on most edges), FP-only
            // mappings, and unexecutable ones spliced in between, so an
            // evaluation that fails midway precedes a good one on the
            // same worker buffers.
            let mut candidates = Vec::new();
            for i in 0..RANDOM {
                let good = if i % 3 == 2 {
                    Candidate::random_fp(&p, &mut rng)
                } else {
                    Candidate::random(&p, &mut rng)
                };
                if i % 4 == 3 {
                    let node = rng.gen_range(0..p.node_count());
                    candidates.push(unsupported(&p, &good, node, i % 8 == 7));
                }
                candidates.push(good);
            }
            for objective in [Objective::JointLatency, Objective::Streaming] {
                let config = FitnessConfig { objective };
                let mut evaluator = FitnessEvaluator::new(&p, config);
                for candidate in &candidates {
                    let flat = evaluator.evaluate(candidate);
                    let oracle = oracle_evaluate(&p, candidate, objective);
                    if format!("{flat:?}") != format!("{oracle:?}") {
                        failures += 1;
                        eprintln!(
                            "{} on {} ({objective:?}): {flat:?} != {oracle:?}",
                            mix.name(),
                            p.platform().name()
                        );
                    }
                }
                // The pooled path over two workers, each on its own buffers.
                let good: Vec<Candidate> = candidates
                    .iter()
                    .filter(|c| c.is_valid(&p))
                    .cloned()
                    .collect();
                let mut pool = FitnessEvaluator::new(&p, config);
                let pooled = pool.evaluate_all(&good, 2).expect("valid candidates");
                for (candidate, report) in good.iter().zip(&pooled) {
                    let oracle = oracle_evaluate(&p, candidate, objective).expect("valid");
                    assert_eq!(format!("{report:?}"), format!("{oracle:?}"));
                }
            }
        }
    }
    assert_eq!(failures, 0, "evaluations differing from the reference");
}

#[test]
fn element_past_the_last_is_unsupported_not_a_panic() {
    let p = problem(&TaskMix::AllSnn, Platform::xavier_agx());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let candidate = Candidate::random(&p, &mut rng);
    let last = p.node_count() - 1;
    let bad = unsupported(&p, &candidate, last, true);
    let (task, layer) = p.node(last);
    let result = FitnessEvaluator::new(&p, FitnessConfig::default()).evaluate(&bad);
    assert!(
        matches!(
            result,
            Err(EvEdgeError::UnsupportedAssignment { task: t, layer: l, pe, .. })
                if t == task && l == layer && pe.0 == p.platform().elements().len()
        ),
        "{result:?}"
    );
}
