//! Engine equivalence: the multi-task runtime is the unified exec
//! engine — a single-task problem run through `run_multi_task_runtime`
//! must produce exactly the counts, latencies, energy and makespan of
//! the same workload driven through `ExecEngine` directly.

use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::exec::clock::EventClock;
use ev_edge::exec::engine::ExecEngine;
use ev_edge::exec::job::{JobInput, MappedJobModel};
use ev_edge::multipipe::{run_multi_task_runtime, MultiTaskRuntimeConfig};
use ev_edge::nmp::baseline;
use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
use ev_edge::EvEdgeError;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use ev_platform::timeline::DeviceTimeline;

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
