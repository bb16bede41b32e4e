//! Engine equivalence: the multi-task runtime is the unified exec
//! engine — a single-task problem run through `run_multi_task_runtime`
//! must produce exactly the counts, latencies, energy and makespan of
//! the same workload driven through `ExecEngine` directly. The
//! `ev_edge::exec::equivalence` checker is exercised on a recorded
//! serial run: it accepts the run against itself and rejects each
//! perturbed copy with the right error.

use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::exec::clock::EventClock;
use ev_edge::exec::engine::{EngineReport, ExecEngine};
use ev_edge::exec::equivalence::{check_job_records, check_reports, EquivalenceError};
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

fn three_task_problem() -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![
            TaskSpec::new(
                NetworkId::Dotie.build(&cfg).unwrap(),
                NetworkId::Dotie.accuracy_model(),
                0.04,
            ),
            TaskSpec::new(
                NetworkId::E2Depth.build(&cfg).unwrap(),
                NetworkId::E2Depth.accuracy_model(),
                0.02,
            ),
            TaskSpec::new(
                NetworkId::SpikeFlowNet.build(&cfg).unwrap(),
                NetworkId::SpikeFlowNet.accuracy_model(),
                0.03,
            ),
        ],
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

/// Drives a periodic workload through a recording engine under the
/// serial mapped model and returns its report, job records included.
fn recorded_run(
    problem: &MultiTaskProblem,
    candidate: &ev_edge::nmp::candidate::Candidate,
    periods: &[TimeDelta],
    window: TimeWindow,
) -> EngineReport {
    let mut engine = ExecEngine::new(
        window.start(),
        DeviceTimeline::new(problem.platform().queue_count()),
        problem.tasks().len(),
        2,
    )
    .unwrap()
    .with_job_records();
    let mut model = MappedJobModel::new(problem, candidate);
    let mut clock: EventClock<usize> = EventClock::new(window.start());
    for task in 0..periods.len() {
        clock.schedule(window.start(), task);
    }
    while let Some((arrival, task)) = clock.next_event() {
        engine.submit(task, JobInput::arrival(arrival));
        let next = arrival + periods[task];
        if next < window.end() {
            clock.schedule(next, task);
        }
        engine.service_all(arrival, &mut model).unwrap();
    }
    engine.drain_all(&mut model).unwrap();
    engine.finish(problem.platform().static_power_w)
}

/// The checker accepts a real recorded run against itself and rejects
/// broken copies of it: a dropped job, a mutated payload and an
/// inflated latency each surface as the right error.
#[test]
fn checker_rejects_perturbed_schedules() {
    let problem = three_task_problem();
    let candidate = baseline::rr_layer(&problem);
    let periods = [
        TimeDelta::from_millis(3),
        TimeDelta::from_millis(5),
        TimeDelta::from_millis(7),
    ];
    let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(60));
    let serial = recorded_run(&problem, &candidate, &periods, window);
    let tasks = problem.tasks().len();
    assert!(!serial.jobs.is_empty());
    check_job_records(&serial.jobs, &serial.jobs, tasks).unwrap();
    check_reports(&serial, &serial).unwrap();

    // A dropped job.
    let mut dropped = serial.jobs.clone();
    dropped.pop().unwrap();
    assert!(matches!(
        check_job_records(&serial.jobs, &dropped, tasks),
        Err(EquivalenceError::JobCountMismatch { .. })
    ));

    // A mutated per-job payload.
    let mut mutated = serial.jobs.clone();
    mutated[0].events += 1;
    assert!(matches!(
        check_job_records(&serial.jobs, &mutated, tasks),
        Err(EquivalenceError::PayloadMismatch { .. })
    ));

    // An inflated per-job completion (pushed past any serial end).
    let mut inflated = serial.jobs.clone();
    inflated[0].end += TimeDelta::from_millis(10_000);
    assert!(matches!(
        check_job_records(&serial.jobs, &inflated, tasks),
        Err(EquivalenceError::JobLatencyRegression { .. })
    ));

    // An inflated aggregate latency at report level.
    let mut slower = serial.clone();
    slower.per_task[0].max_latency = serial.per_task[0].max_latency + TimeDelta::from_micros(1);
    assert!(matches!(
        check_reports(&serial, &slower),
        Err(EquivalenceError::MaxLatencyRegression { .. })
    ));
}
