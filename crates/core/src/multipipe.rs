//! Concurrent multi-task runtime simulation.
//!
//! While [`crate::nmp::fitness`] scores a mapping by scheduling one joint
//! inference (the paper's offline candidate evaluation), this module plays
//! a mapping forward in simulated time: every task receives periodic
//! inputs, inferences contend for the shared processing-element queues,
//! and each task's bounded inference queue drops its oldest input under
//! overload (§4.2). This is the runtime view of the Figure 9 scenario.
//!
//! Both drivers here are thin shells over the unified [`crate::exec`]
//! core: an [`EventClock`] orders arrivals, an [`ExecEngine`] over a
//! [`DeviceTimeline`] owns the bounded queues and all latency/energy
//! accounting, and a [`MappedJobModel`] reserves the shared
//! processing-element queues layer by layer.

use crate::e2sf::{E2sf, E2sfConfig};
use crate::exec::clock::EventClock;
use crate::exec::engine::ExecEngine;
use crate::exec::job::{JobInput, MappedJobModel};
use crate::exec::stage::{DsfaStage, Stage};
use crate::nmp::candidate::Candidate;
use crate::nmp::multitask::MultiTaskProblem;
use crate::EvEdgeError;
use ev_core::{TimeDelta, TimeWindow};
use ev_platform::energy::Energy;
use ev_platform::timeline::DeviceTimeline;

/// Configuration of a runtime multi-task simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTaskRuntimeConfig {
    /// Simulated duration.
    pub window: TimeWindow,
    /// Per-task inference-queue capacity (pending inputs before drops).
    pub queue_capacity: usize,
}

impl MultiTaskRuntimeConfig {
    /// A window with depth-2 queues.
    pub fn new(window: TimeWindow) -> Self {
        MultiTaskRuntimeConfig {
            window,
            queue_capacity: 2,
        }
    }
}

/// Runtime statistics of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRuntimeReport {
    /// Task name.
    pub name: String,
    /// Inputs that arrived.
    pub arrivals: u64,
    /// Inferences completed.
    pub completed: u64,
    /// Inputs dropped by the bounded queue.
    pub dropped: u64,
    /// Mean input-to-completion latency over completed inferences.
    pub mean_latency: TimeDelta,
    /// Worst input-to-completion latency.
    pub max_latency: TimeDelta,
}

/// The outcome of a runtime simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTaskRuntimeReport {
    /// Per-task statistics.
    pub per_task: Vec<TaskRuntimeReport>,
    /// Completion time of the last inference.
    pub makespan: TimeDelta,
    /// Total modeled energy.
    pub energy: Energy,
    /// Per-queue busy-time utilization over the makespan.
    pub utilization: Vec<f64>,
}

impl MultiTaskRuntimeReport {
    /// The highest per-task mean latency (the runtime analogue of
    /// Equation 2's `max_i Latency(T_i)`).
    pub fn worst_mean_latency(&self) -> TimeDelta {
        self.per_task
            .iter()
            .map(|t| t.mean_latency)
            .max()
            .unwrap_or(TimeDelta::ZERO)
    }

    /// Total dropped inputs across tasks.
    pub fn total_dropped(&self) -> u64 {
        self.per_task.iter().map(|t| t.dropped).sum()
    }

    /// Closes `engine`'s run and names its per-task rows after the
    /// problem's tasks.
    fn finish(problem: &MultiTaskProblem, engine: ExecEngine<DeviceTimeline>) -> Self {
        let report = engine.finish(problem.platform().static_power_w);
        MultiTaskRuntimeReport {
            per_task: problem
                .tasks()
                .iter()
                .map(|t| t.name.clone())
                .zip(report.per_task)
                .map(|(name, stats)| TaskRuntimeReport {
                    name,
                    arrivals: stats.arrivals,
                    completed: stats.completed,
                    dropped: stats.dropped,
                    mean_latency: stats.mean_latency,
                    max_latency: stats.max_latency,
                })
                .collect(),
            makespan: report.makespan,
            energy: report.energy,
            utilization: report.utilization,
        }
    }
}

fn validated_periods(problem: &MultiTaskProblem, periods: &[TimeDelta]) -> Result<(), EvEdgeError> {
    let tasks = problem.tasks();
    if periods.len() != tasks.len() {
        return Err(EvEdgeError::PeriodCountMismatch {
            tasks: tasks.len(),
            periods: periods.len(),
        });
    }
    for (i, p) in periods.iter().enumerate() {
        if p.as_micros() <= 0 {
            return Err(EvEdgeError::InvalidPeriod { task: i });
        }
    }
    Ok(())
}

/// Simulates `candidate` executing the problem's tasks concurrently, with
/// task `i` receiving a new input every `periods[i]`.
///
/// Execution model: arrivals enter per-task bounded queues; a task starts
/// its next inference when its previous one finished and an input is
/// pending; layers reserve their mapped processing-element queues in
/// dependency order (cross-PE edges pay unified-memory transfers on the
/// shared memory queue). First-come-first-served across tasks.
///
/// # Errors
///
/// Returns [`EvEdgeError`] for invalid candidates or period/task count
/// mismatches.
pub fn run_multi_task_runtime(
    problem: &MultiTaskProblem,
    candidate: &Candidate,
    periods: &[TimeDelta],
    config: MultiTaskRuntimeConfig,
) -> Result<MultiTaskRuntimeReport, EvEdgeError> {
    validated_periods(problem, periods)?;
    let mut engine = new_engine(problem, config)?;
    let mut model = MappedJobModel::new(problem, candidate);
    let window = config.window;
    let phases = vec![window.start(); periods.len()];
    let mut outcome = Ok(());
    for_each_phased_arrival(window, &phases, periods, |arrival, task| {
        engine.submit(task, JobInput::arrival(arrival));
        // Greedy: run every pending inference whose task is free by now.
        outcome = engine.service_all(arrival, &mut model);
        outcome.is_ok()
    });
    outcome?;
    engine.drain_all(&mut model)?;
    Ok(MultiTaskRuntimeReport::finish(problem, engine))
}

/// The runtime's engine: one bounded queue per task over a fresh
/// [`DeviceTimeline`] with one queue per platform queue.
fn new_engine(
    problem: &MultiTaskProblem,
    config: MultiTaskRuntimeConfig,
) -> Result<ExecEngine<DeviceTimeline>, EvEdgeError> {
    ExecEngine::new(
        config.window.start(),
        DeviceTimeline::new(problem.platform().queue_count()),
        problem.tasks().len(),
        config.queue_capacity,
    )
}

/// Schedules every periodic arrival of the window in global time order
/// (ties broken by task index), with task `i` first firing at
/// `phases[i]` and every `periods[i]` thereafter, up to (excluding)
/// the window end. `deliver(arrival, task)` returns `false` to stop
/// early (e.g. after a dispatch error).
///
/// A phase *before* the window start is advanced into the window by
/// whole periods — a tenant stream that joined mid-run keeps its
/// original cadence instead of re-phasing to the epoch boundary, so
/// slicing one window into epochs never changes the arrival sequence
/// (the invariant the `ev_serve` churn driver rests on).
///
/// # Panics
///
/// Panics (debug assertion) when `phases` and `periods` disagree in
/// length or a period is non-positive; callers validate both (see
/// [`MultiTaskRuntimeConfig`]).
pub fn for_each_phased_arrival(
    window: TimeWindow,
    phases: &[ev_core::Timestamp],
    periods: &[TimeDelta],
    mut deliver: impl FnMut(ev_core::Timestamp, usize) -> bool,
) {
    debug_assert_eq!(phases.len(), periods.len());
    debug_assert!(periods.iter().all(|p| p.as_micros() > 0) || window.start() >= window.end());
    // Arrivals in global time order, ties broken by task index.
    let mut clock: EventClock<usize> = EventClock::new(window.start());
    if window.start() < window.end() {
        for task in 0..periods.len() {
            let mut first = phases[task];
            if first < window.start() {
                let gap = (window.start() - first).as_micros();
                let period = periods[task].as_micros();
                let steps = (gap + period - 1) / period;
                first += TimeDelta::from_micros(steps * period);
            }
            if first < window.end() {
                clock.schedule(first, task);
            }
        }
    }
    while let Some((arrival, task)) = clock.next_event() {
        let next = arrival + periods[task];
        if next < window.end() {
            clock.schedule(next, task);
        }
        if !deliver(arrival, task) {
            return;
        }
    }
}

/// One task of a full streaming scenario: its own sequence, E2SF binning
/// and DSFA aggregation feeding the shared platform.
#[derive(Debug, Clone)]
pub struct StreamTask {
    /// The network (index into the problem's tasks must match).
    pub sequence: ev_datasets::mvsec::Sequence,
    /// Event bins per grayscale interval.
    pub bins_per_interval: usize,
    /// DSFA configuration for this task's frontend.
    pub dsfa: crate::dsfa::DsfaConfig,
}

/// Plays the complete Figure 4 system with several concurrent tasks:
/// every task's camera stream runs through its own E2SF + DSFA frontend;
/// merged batches enter bounded inference queues; inferences contend for
/// the shared processing elements under `candidate`'s mapping.
///
/// DSFA's hardware-availability rule uses the task's own execution state:
/// a batch is flushed early whenever a frame arrives while the task has no
/// inference in flight.
///
/// # Errors
///
/// Returns [`EvEdgeError`] on task-count mismatches or simulation errors.
pub fn run_multi_task_streams(
    problem: &MultiTaskProblem,
    candidate: &Candidate,
    streams: &[StreamTask],
    config: MultiTaskRuntimeConfig,
) -> Result<MultiTaskRuntimeReport, EvEdgeError> {
    let tasks = problem.tasks().len();
    if streams.len() != tasks {
        return Err(EvEdgeError::PeriodCountMismatch {
            tasks,
            periods: streams.len(),
        });
    }
    let mut engine = new_engine(problem, config)?;
    let mut model = MappedJobModel::new(problem, candidate);

    // Frontend: per-task frame streams (precomputed — generation is
    // deterministic and arrival times are data-independent).
    let mut frame_streams: Vec<Vec<crate::frame::SparseFrame>> = Vec::with_capacity(streams.len());
    for stream in streams {
        let events = stream.sequence.generate(config.window)?;
        let intervals = stream.sequence.frame_intervals(config.window);
        let frames = E2sf::new(E2sfConfig::new(stream.bins_per_interval))
            .convert_intervals(&events, &intervals)?;
        frame_streams.push(frames);
    }

    let mut frontends: Vec<DsfaStage> = streams
        .iter()
        .map(|s| DsfaStage::new(s.dsfa))
        .collect::<Result<_, _>>()?;

    // Global arrival order: (ready time, task, frame index).
    let mut clock: EventClock<(usize, usize)> = EventClock::new(config.window.start());
    for (t, frames) in frame_streams.iter().enumerate() {
        for (i, frame) in frames.iter().enumerate() {
            clock.schedule(frame.ready_at(), (t, i));
        }
    }
    // Each (task, index) fires exactly once, so frames are moved out of
    // the precomputed streams instead of cloned per arrival.
    let mut frame_streams: Vec<Vec<Option<crate::frame::SparseFrame>>> = frame_streams
        .into_iter()
        .map(|frames| frames.into_iter().map(Some).collect())
        .collect();

    while let Some((ready, (t, i))) = clock.next_event() {
        let frame = frame_streams[t][i].take().expect("each frame arrives once");
        engine.note_arrival(t);
        // DSFA hardware-availability rule: task idle → flush early.
        if engine.task_idle_at(t, ready) {
            for job in frontends[t].flush(ready)? {
                engine.enqueue(t, job);
            }
        }
        for job in frontends[t].push(frame)? {
            engine.enqueue(t, job);
        }
        // Serve every task that can make progress at this instant.
        engine.service_all(ready, &mut model)?;
    }
    // Drain: flush frontends, then run every remaining queued input.
    for (t, frontend) in frontends.iter_mut().enumerate() {
        let tail = engine.task_free_at(t).max(config.window.end());
        for job in frontend.flush(tail)? {
            engine.enqueue(t, job);
        }
        engine.drain(t, &mut model)?;
    }
    Ok(MultiTaskRuntimeReport::finish(problem, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::baseline;
    use crate::nmp::evolution::{run_nmp, NmpConfig};
    use crate::nmp::fitness::FitnessConfig;
    use crate::nmp::multitask::TaskSpec;
    use ev_core::Timestamp;
    use ev_nn::zoo::{NetworkId, ZooConfig};
    use ev_platform::pe::Platform;

    fn problem() -> MultiTaskProblem {
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
            ],
        )
        .unwrap()
    }

    fn window_ms(ms: u64) -> MultiTaskRuntimeConfig {
        MultiTaskRuntimeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(ms)))
    }

    #[test]
    fn phased_arrivals_keep_their_cadence_across_window_slices() {
        let ms = Timestamp::from_millis;
        let d = TimeDelta::from_millis;
        let collect = |window: TimeWindow, phases: &[Timestamp]| {
            let mut out = Vec::new();
            for_each_phased_arrival(window, phases, &[d(4), d(3)], |at, task| {
                out.push((at, task));
                true
            });
            out
        };
        // One whole window vs the same window sliced at an arbitrary
        // epoch boundary: identical arrival sequences.
        let phases = [ms(0), ms(1)];
        let whole = collect(TimeWindow::new(ms(0), ms(20)), &phases);
        let mut sliced = collect(TimeWindow::new(ms(0), ms(9)), &phases);
        sliced.extend(collect(TimeWindow::new(ms(9), ms(20)), &phases));
        assert_eq!(whole, sliced);
        // Phase 1 ms, period 3 ms → 1, 4, 7, ...; ties break by task.
        assert_eq!(whole[0], (ms(0), 0));
        assert_eq!(whole[1], (ms(1), 1));
        assert!(whole.windows(2).all(|w| w[0].0 <= w[1].0));
        // A phase at/past the end yields nothing; empty window too.
        assert!(collect(TimeWindow::new(ms(0), ms(0)), &phases).is_empty());
        assert!(collect(TimeWindow::new(ms(5), ms(6)), &[ms(6), ms(7)]).is_empty());
        // Early stop.
        let mut n = 0;
        for_each_phased_arrival(
            TimeWindow::new(ms(0), ms(20)),
            &phases,
            &[d(4), d(3)],
            |_, _| {
                n += 1;
                n < 3
            },
        );
        assert_eq!(n, 3);
    }

    #[test]
    fn runtime_executes_all_tasks() {
        let p = problem();
        let candidate = baseline::rr_network(&p);
        let periods = [TimeDelta::from_millis(5), TimeDelta::from_millis(10)];
        let report = run_multi_task_runtime(&p, &candidate, &periods, window_ms(100)).unwrap();
        assert_eq!(report.per_task.len(), 2);
        for t in &report.per_task {
            assert!(t.arrivals > 0);
            assert!(t.completed > 0);
            assert!(t.completed + t.dropped <= t.arrivals + 2);
            assert!(t.mean_latency <= t.max_latency);
        }
        assert!(report.makespan > TimeDelta::ZERO);
        assert!(report.utilization.iter().any(|u| *u > 0.0));
    }

    #[test]
    fn overload_drops_oldest_inputs() {
        let p = problem();
        let candidate = baseline::rr_network(&p);
        // Absurdly fast arrivals: queues must drop.
        let periods = [TimeDelta::from_micros(100), TimeDelta::from_micros(100)];
        let report = run_multi_task_runtime(&p, &candidate, &periods, window_ms(20)).unwrap();
        assert!(report.total_dropped() > 0, "overload must drop inputs");
        // Bounded queues bound latency: mean stays within a few periods of
        // the service time, not proportional to the whole window.
        for t in &report.per_task {
            assert!(t.mean_latency < TimeDelta::from_millis(20));
        }
    }

    #[test]
    fn nmp_mapping_beats_rr_at_runtime() {
        let p = problem();
        let nmp = run_nmp(
            &p,
            NmpConfig {
                population: 16,
                generations: 10,
                seed: 3,
                ..NmpConfig::default()
            },
            FitnessConfig::default(),
        )
        .unwrap();
        let periods = [TimeDelta::from_millis(4), TimeDelta::from_millis(8)];
        let rr =
            run_multi_task_runtime(&p, &baseline::rr_network(&p), &periods, window_ms(80)).unwrap();
        let opt = run_multi_task_runtime(&p, &nmp.best, &periods, window_ms(80)).unwrap();
        // The offline winner also wins at runtime (fewer drops or lower
        // worst mean latency).
        let rr_score = (rr.total_dropped(), rr.worst_mean_latency());
        let opt_score = (opt.total_dropped(), opt.worst_mean_latency());
        assert!(
            opt_score <= rr_score,
            "NMP at runtime {opt_score:?} vs RR {rr_score:?}"
        );
    }

    #[test]
    fn streaming_frontends_drive_inference() {
        use ev_datasets::mvsec::SequenceId;
        let p = problem();
        let candidate = baseline::rr_network(&p);
        let streams = vec![
            StreamTask {
                sequence: SequenceId::IndoorFlying2.sequence(),
                bins_per_interval: 8,
                dsfa: crate::dsfa::DsfaConfig::default(),
            },
            StreamTask {
                sequence: SequenceId::DenseTown10.sequence(),
                bins_per_interval: 4,
                dsfa: crate::dsfa::DsfaConfig {
                    cmode: crate::dsfa::CMode::CBatch,
                    mb_size: 1,
                    ..crate::dsfa::DsfaConfig::default()
                },
            },
        ];
        let report = run_multi_task_streams(&p, &candidate, &streams, window_ms(60)).unwrap();
        for t in &report.per_task {
            assert!(t.arrivals > 0, "{}: frames arrived", t.name);
            assert!(t.completed > 0, "{}: inferences ran", t.name);
        }
        assert!(report.makespan > TimeDelta::ZERO);
        // Deterministic.
        let again = run_multi_task_streams(&p, &candidate, &streams, window_ms(60)).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn streaming_task_count_validated() {
        use ev_datasets::mvsec::SequenceId;
        let p = problem();
        let candidate = baseline::rr_network(&p);
        let streams = vec![StreamTask {
            sequence: SequenceId::IndoorFlying1.sequence(),
            bins_per_interval: 4,
            dsfa: crate::dsfa::DsfaConfig::default(),
        }];
        assert!(matches!(
            run_multi_task_streams(&p, &candidate, &streams, window_ms(20)),
            Err(EvEdgeError::PeriodCountMismatch { .. })
        ));
    }

    #[test]
    fn period_validation() {
        let p = problem();
        let candidate = baseline::rr_network(&p);
        assert!(matches!(
            run_multi_task_runtime(&p, &candidate, &[TimeDelta::from_millis(5)], window_ms(10)),
            Err(EvEdgeError::PeriodCountMismatch { .. })
        ));
        assert!(matches!(
            run_multi_task_runtime(
                &p,
                &candidate,
                &[TimeDelta::ZERO, TimeDelta::from_millis(5)],
                window_ms(10)
            ),
            Err(EvEdgeError::InvalidPeriod { .. })
        ));
    }

    #[test]
    fn deterministic_runtime() {
        let p = problem();
        let candidate = baseline::rr_layer(&p);
        let periods = [TimeDelta::from_millis(6), TimeDelta::from_millis(9)];
        let a = run_multi_task_runtime(&p, &candidate, &periods, window_ms(60)).unwrap();
        let b = run_multi_task_runtime(&p, &candidate, &periods, window_ms(60)).unwrap();
        assert_eq!(a, b);
    }
}
