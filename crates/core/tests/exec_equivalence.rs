//! Engine equivalence: the multi-task runtime is the unified exec
//! engine — a single-task problem run through `run_multi_task_runtime`
//! must produce exactly the counts, latencies, energy and makespan of
//! the same workload driven through `ExecEngine` directly — its
//! periodic arrivals come in the order an `EventClock` pops them, and
//! `MappedJobModel`'s compiled plans book exactly what the per-layer
//! walk they replace booked.

use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::exec::clock::EventClock;
use ev_edge::exec::engine::ExecEngine;
use ev_edge::exec::job::{JobInput, JobModel, MappedJobModel};
use ev_edge::multipipe::{
    for_each_phased_arrival, run_multi_task_runtime, MultiTaskRuntimeConfig, PhasedArrivals,
};
use ev_edge::nmp::baseline;
use ev_edge::nmp::candidate::{Assignment, Candidate};
use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
use ev_edge::nmp::TaskMix;
use ev_edge::EvEdgeError;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_nn::Precision;
use ev_platform::energy::Energy;
use ev_platform::latency::transfer_cost;
use ev_platform::pe::{PeId, Platform};
use ev_platform::timeline::DeviceTimeline;
use ev_platform::ReservationTimeline;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn single_task_problem() -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![TaskSpec::new(
            NetworkId::Dotie.build(&cfg).unwrap(),
            NetworkId::Dotie.accuracy_model(),
            0.04,
        )],
    )
    .unwrap()
}

#[test]
fn single_task_through_multi_runtime_matches_unified_engine() {
    let problem = single_task_problem();
    let candidate = baseline::rr_network(&problem);
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(80));
    let period = TimeDelta::from_millis(3);
    let config = MultiTaskRuntimeConfig::new(window);

    // Path 1: the multi-task runtime with one task.
    let multi = run_multi_task_runtime(&problem, &candidate, &[period], config).unwrap();

    // Path 2: the same periodic workload driven through the unified
    // engine as a dedicated single-task run.
    let mut engine = ExecEngine::new(
        window.start(),
        DeviceTimeline::new(problem.platform().queue_count()),
        1,
        config.queue_capacity,
    )
    .unwrap();
    let mut model = MappedJobModel::new(&problem, &candidate);
    let mut clock: EventClock<usize> = EventClock::new(window.start());
    clock.schedule(window.start(), 0);
    while let Some((arrival, task)) = clock.next_event() {
        engine.submit(task, JobInput::arrival(arrival));
        let next = arrival + period;
        if next < window.end() {
            clock.schedule(next, task);
        }
        engine.service_all(arrival, &mut model).unwrap();
    }
    engine.drain_all(&mut model).unwrap();
    let single = engine.finish(problem.platform().static_power_w);

    // Identical counts, latencies, makespan, energy and utilization.
    assert_eq!(multi.per_task.len(), 1);
    let m = &multi.per_task[0];
    let s = &single.per_task[0];
    assert!(m.completed > 0, "workload must execute inferences");
    assert_eq!(m.arrivals, s.arrivals);
    assert_eq!(m.completed, s.completed);
    assert_eq!(m.dropped, s.dropped);
    assert_eq!(m.mean_latency, s.mean_latency);
    assert_eq!(m.max_latency, s.max_latency);
    assert_eq!(multi.makespan, single.makespan);
    assert_eq!(multi.energy, single.energy);
    assert_eq!(multi.utilization, single.utilization);
}

#[test]
fn overloaded_single_task_drops_identically() {
    let problem = single_task_problem();
    let candidate = baseline::rr_layer(&problem);
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(15));
    // Arrivals far faster than service: the §4.2 oldest-drop rule fires.
    let period = TimeDelta::from_micros(50);
    let config = MultiTaskRuntimeConfig::new(window);

    let multi = run_multi_task_runtime(&problem, &candidate, &[period], config).unwrap();
    assert!(multi.total_dropped() > 0, "overload must drop inputs");

    let mut engine = ExecEngine::new(
        window.start(),
        DeviceTimeline::new(problem.platform().queue_count()),
        1,
        config.queue_capacity,
    )
    .unwrap();
    let mut model = MappedJobModel::new(&problem, &candidate);
    let mut clock: EventClock<usize> = EventClock::new(window.start());
    clock.schedule(window.start(), 0);
    while let Some((arrival, _)) = clock.next_event() {
        engine.submit(0, JobInput::arrival(arrival));
        let next = arrival + period;
        if next < window.end() {
            clock.schedule(next, 0);
        }
        engine.service_all(arrival, &mut model).unwrap();
    }
    engine.drain_all(&mut model).unwrap();
    let single = engine.finish(problem.platform().static_power_w);

    assert_eq!(multi.per_task[0].dropped, single.per_task[0].dropped);
    assert_eq!(multi.per_task[0].completed, single.per_task[0].completed);
    assert_eq!(
        multi.per_task[0].mean_latency,
        single.per_task[0].mean_latency
    );
}

#[test]
fn zero_queue_capacity_propagates_as_error() {
    let problem = single_task_problem();
    let candidate = baseline::rr_network(&problem);
    let mut config =
        MultiTaskRuntimeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(10)));
    config.queue_capacity = 0;
    let result = run_multi_task_runtime(&problem, &candidate, &[TimeDelta::from_millis(5)], config);
    assert!(matches!(
        result,
        Err(EvEdgeError::InvalidQueueCapacity { capacity: 0 })
    ));
}

/// The periodic arrivals of `for_each_phased_arrival`, replayed on an
/// [`EventClock`]: every task's first arrival at or after the window
/// start (keeping its cadence), then each popped arrival schedules the
/// task's next one.
fn clock_arrivals(
    window: TimeWindow,
    phases: &[Timestamp],
    periods: &[TimeDelta],
) -> Vec<(Timestamp, usize)> {
    let mut clock: EventClock<usize> = EventClock::new(window.start());
    if window.start() < window.end() {
        for (task, (&phase, &period)) in phases.iter().zip(periods).enumerate() {
            let mut first = phase;
            while first < window.start() {
                first += period;
            }
            if first < window.end() {
                clock.schedule(first, task);
            }
        }
    }
    let mut out = Vec::new();
    while let Some((arrival, task)) = clock.next_event() {
        let next = arrival + periods[task];
        if next < window.end() {
            clock.schedule(next, task);
        }
        out.push((arrival, task));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Phases before, inside and past the window, and periods on a
    /// coarse grid so that many arrivals tie across tasks.
    #[test]
    fn phased_arrivals_pop_in_event_clock_order(
        streams in prop::collection::vec((0u64..40, 1i64..12), 0..7),
        start in 0u64..20,
        length in 0u64..80,
    ) {
        let ms = Timestamp::from_millis;
        let window = TimeWindow::new(ms(start), ms(start + length));
        let phases: Vec<Timestamp> = streams.iter().map(|&(phase, _)| ms(phase)).collect();
        let periods: Vec<TimeDelta> = streams
            .iter()
            .map(|&(_, period)| TimeDelta::from_millis(period))
            .collect();
        let mut scanned = Vec::new();
        for_each_phased_arrival(window, &phases, &periods, |arrival, task| {
            scanned.push((arrival, task));
            true
        });
        prop_assert_eq!(scanned, clock_arrivals(window, &phases, &periods));
    }

    /// `skip_before` drops exactly the arrivals plain iteration would
    /// deliver for that task before the instant, and the rest keep
    /// their global order: steps and skips interleaved at random
    /// instants, before, inside and past the window.
    #[test]
    fn skip_before_drops_what_iteration_delivers(
        streams in prop::collection::vec((0u64..40, 1i64..12), 1..7),
        start in 0u64..20,
        length in 0u64..80,
        ops in prop::collection::vec((0usize..7, 0u64..110, any::<bool>()), 0..40),
    ) {
        let ms = Timestamp::from_millis;
        let window = TimeWindow::new(ms(start), ms(start + length));
        let phases: Vec<Timestamp> = streams.iter().map(|&(phase, _)| ms(phase)).collect();
        let periods: Vec<TimeDelta> = streams
            .iter()
            .map(|&(_, period)| TimeDelta::from_millis(period))
            .collect();
        let mut remaining = clock_arrivals(window, &phases, &periods);
        let mut cursor = PhasedArrivals::new(window, &phases, &periods);
        for (task, until, step) in ops {
            let task = task % streams.len();
            if step {
                let expected = (!remaining.is_empty()).then(|| remaining.remove(0));
                prop_assert_eq!(cursor.next(), expected);
            } else {
                let before = remaining.len();
                remaining.retain(|&(at, t)| t != task || at >= ms(until));
                let skipped = cursor.skip_before(task, ms(until));
                prop_assert_eq!(skipped, (before - remaining.len()) as u64);
            }
            let next = remaining.iter().find(|&&(_, t)| t == task).map(|&(at, _)| at);
            prop_assert_eq!(cursor.peek(task), next);
        }
        prop_assert_eq!(cursor.collect::<Vec<_>>(), remaining);
    }
}

/// The per-layer dispatch `MappedJobModel` compiled into plans, kept
/// as the reference: every job re-reads each layer's assignment and
/// cost, tests its predecessors' elements and prices each transfer,
/// collecting same-element stretches into `reserve_run` chains.
struct OracleMappedJobModel<'a> {
    problem: &'a MultiTaskProblem,
    candidate: &'a Candidate,
    run_durations: Vec<TimeDelta>,
    run_layers: Vec<usize>,
}

/// Reserves the pending run as one back-to-back chain and records the
/// completion time of every layer in it.
fn flush_run(
    timeline: &mut dyn ReservationTimeline,
    queue: usize,
    ready: Timestamp,
    durations: &mut Vec<TimeDelta>,
    layers: &mut Vec<usize>,
    end_of: &mut [Timestamp],
    last_end: &mut Timestamp,
) -> Result<(), EvEdgeError> {
    if durations.is_empty() {
        return Ok(());
    }
    let slots = timeline.reserve_run(queue, ready, durations)?;
    for (&l, &(_, end)) in layers.iter().zip(&slots) {
        end_of[l] = end;
        *last_end = (*last_end).max(end);
    }
    durations.clear();
    layers.clear();
    Ok(())
}

impl JobModel for OracleMappedJobModel<'_> {
    fn dispatch(
        &mut self,
        task: usize,
        _job: &JobInput,
        ready: Timestamp,
        timeline: &mut dyn ReservationTimeline,
    ) -> Result<(Timestamp, Energy), EvEdgeError> {
        let platform = self.problem.platform();
        let graph = &self.problem.tasks()[task].graph;
        let memory_queue = platform.memory_queue();
        let mut end_of: Vec<Timestamp> = vec![ready; graph.len()];
        let mut energy = Energy::ZERO;
        let mut last_end = ready;
        self.run_durations.clear();
        self.run_layers.clear();
        let mut run_queue = usize::MAX;
        let mut run_ready = ready;
        for layer in graph.layers() {
            let l = layer.id.0;
            let global = self.problem.global_index(task, l);
            let a = self.candidate.assignment(global);
            let cost = self
                .problem
                .profile(task)
                .layer(l)
                .cost(a.pe, a.precision)
                .ok_or(EvEdgeError::UnsupportedAssignment {
                    task,
                    layer: l,
                    pe: a.pe,
                    precision: a.precision,
                })?;
            energy += cost.energy;
            let all_preds_same_pe = graph.predecessors(layer.id).iter().all(|pred| {
                self.candidate
                    .assignment(self.problem.global_index(task, pred.0))
                    .pe
                    == a.pe
            });
            if all_preds_same_pe && run_queue == a.pe.0 && !self.run_durations.is_empty() {
                self.run_durations.push(cost.latency);
                self.run_layers.push(l);
                continue;
            }
            flush_run(
                timeline,
                run_queue,
                run_ready,
                &mut self.run_durations,
                &mut self.run_layers,
                &mut end_of,
                &mut last_end,
            )?;
            let mut dep_ready = ready;
            for pred in graph.predecessors(layer.id) {
                let pa = self
                    .candidate
                    .assignment(self.problem.global_index(task, pred.0));
                let mut pred_end = end_of[pred.0];
                if pa.pe != a.pe {
                    let bytes = self.problem.workload(task, pred.0).output_bytes;
                    let tc = transfer_cost(platform, pa.pe, a.pe, bytes, pa.precision);
                    energy += tc.energy;
                    let (_, end) = timeline.reserve_next(memory_queue, pred_end, tc.latency)?;
                    pred_end = end;
                }
                dep_ready = dep_ready.max(pred_end);
            }
            run_queue = a.pe.0;
            run_ready = dep_ready;
            self.run_durations.push(cost.latency);
            self.run_layers.push(l);
        }
        flush_run(
            timeline,
            run_queue,
            run_ready,
            &mut self.run_durations,
            &mut self.run_layers,
            &mut end_of,
            &mut last_end,
        )?;
        Ok((last_end, energy))
    }
}

/// `candidate` with node `node` moved to an assignment the platform
/// cannot execute: a precision its element lacks, or an element past
/// the platform's last.
fn unexecutable(
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

/// Every §5 mix on every platform preset, under both round-robin
/// baselines and random mappings (cross-PE transfers on most edges):
/// random `(task, ready)` dispatches, interleaved across tasks and
/// sometimes ready before the queues free up, book the same `(end,
/// energy)` bits through the compiled plans as through the per-layer
/// walk, and leave both timelines with the same busy time, free time
/// and job count on every queue. An unexecutable node fails its task's
/// dispatches with the reference's error, and no panic.
#[test]
fn compiled_plans_dispatch_like_the_per_layer_walk() {
    const RANDOM: usize = 6;
    const DISPATCHES: usize = 60;
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
    let mut rng = ChaCha8Rng::seed_from_u64(26);
    let job = JobInput::arrival(Timestamp::ZERO);
    for mix in &mixes {
        for platform in platforms {
            let p = mix
                .build_problem(platform(), &ZooConfig::mvsec())
                .expect("zoo mix");
            let queues = p.platform().queue_count();
            let tasks = p.tasks().len();
            let mut candidates = vec![baseline::rr_network(&p), baseline::rr_layer(&p)];
            candidates.extend((0..RANDOM).map(|_| Candidate::random(&p, &mut rng)));
            for candidate in &candidates {
                let mut plans = MappedJobModel::new(&p, candidate);
                let mut oracle = OracleMappedJobModel {
                    problem: &p,
                    candidate,
                    run_durations: Vec::new(),
                    run_layers: Vec::new(),
                };
                let mut planned = DeviceTimeline::new(queues);
                let mut walked = DeviceTimeline::new(queues);
                let mut now = 0u64;
                for _ in 0..DISPATCHES {
                    let task = rng.gen_range(0..tasks);
                    now += rng.gen_range(0..400u64);
                    let ready = Timestamp::from_micros(now);
                    let got = plans
                        .dispatch(task, &job, ready, &mut planned)
                        .expect("valid");
                    let want = oracle
                        .dispatch(task, &job, ready, &mut walked)
                        .expect("valid");
                    assert_eq!(got.0, want.0, "{} on {}", mix.name(), p.platform().name());
                    assert_eq!(
                        got.1.as_joules().to_bits(),
                        want.1.as_joules().to_bits(),
                        "{} on {}",
                        mix.name(),
                        p.platform().name()
                    );
                }
                for q in 0..queues {
                    assert_eq!(planned.busy_time(q), walked.busy_time(q));
                    assert_eq!(
                        planned.earliest_start(q, Timestamp::ZERO).unwrap(),
                        walked.earliest_start(q, Timestamp::ZERO).unwrap()
                    );
                    assert_eq!(planned.completed_jobs(q), walked.completed_jobs(q));
                }
            }
            // An unexecutable node, then one past the last element: the
            // node's task fails with the reference's error on every
            // dispatch.
            for past_last in [false, true] {
                let node = rng.gen_range(0..p.node_count());
                let bad = unexecutable(&p, &candidates[2], node, past_last);
                let (task, _) = p.node(node);
                let mut plans = MappedJobModel::new(&p, &bad);
                let mut oracle = OracleMappedJobModel {
                    problem: &p,
                    candidate: &bad,
                    run_durations: Vec::new(),
                    run_layers: Vec::new(),
                };
                for _ in 0..2 {
                    let ready = Timestamp::from_micros(rng.gen_range(0..1_000u64));
                    let got = plans.dispatch(task, &job, ready, &mut DeviceTimeline::new(queues));
                    let want = oracle.dispatch(task, &job, ready, &mut DeviceTimeline::new(queues));
                    assert!(
                        matches!(got, Err(EvEdgeError::UnsupportedAssignment { .. })),
                        "{got:?}"
                    );
                    assert_eq!(format!("{got:?}"), format!("{want:?}"));
                }
            }
        }
    }
}
