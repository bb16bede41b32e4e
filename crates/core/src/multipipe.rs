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
//! core: [`PhasedArrivals`] orders the periodic arrivals and an
//! [`EventClock`] the streaming frames, an [`ExecEngine`] over a
//! [`DeviceTimeline`] owns the bounded queues and all latency/energy
//! accounting, and a [`MappedJobModel`] reserves the shared
//! processing-element queues layer by layer.

use crate::e2sf::{E2sf, E2sfConfig};
use crate::exec::clock::EventClock;
use crate::exec::engine::ExecEngine;
use crate::exec::job::{JobInput, JobModel, MappedJobModel};
use crate::exec::stage::{DsfaStage, Stage};
use crate::frame::SparseFrame;
use crate::nmp::candidate::Candidate;
use crate::nmp::multitask::MultiTaskProblem;
use crate::EvEdgeError;
use ev_core::{TimeDelta, TimeWindow, Timestamp};
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

    /// Total completed inferences across tasks.
    pub fn total_completed(&self) -> u64 {
        self.per_task.iter().map(|t| t.completed).sum()
    }

    /// Mean of the per-queue utilizations (0 with no queues).
    pub fn mean_utilization(&self) -> f64 {
        self.utilization.iter().sum::<f64>() / self.utilization.len().max(1) as f64
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

/// Every periodic arrival of a window in global time order (ties broken
/// by task index), with task `i` first firing at `phases[i]` and every
/// `periods[i]` thereafter, up to (excluding) the window end: an
/// [`Iterator`] of `(arrival, task)`.
///
/// A phase *before* the window start is advanced into the window by
/// whole periods — a tenant stream that joined mid-run keeps its
/// original cadence instead of re-phasing to the epoch boundary, so
/// slicing one window into epochs never changes the arrival sequence
/// (the invariant the `ev_serve` churn driver rests on).
///
/// Besides iterating, a caller can read each task's next arrival
/// ([`PhasedArrivals::peek`]) and drop a task's arrivals before an
/// instant in O(1) ([`PhasedArrivals::skip_before`]); the arrivals left
/// keep their global order.
///
/// # Examples
///
/// ```
/// use ev_core::{TimeDelta, TimeWindow, Timestamp};
/// use ev_edge::multipipe::PhasedArrivals;
///
/// let ms = Timestamp::from_millis;
/// let periods = [TimeDelta::from_millis(2), TimeDelta::from_millis(3)];
/// let mut arrivals = PhasedArrivals::new(TimeWindow::new(ms(0), ms(7)), &[ms(0), ms(0)], &periods);
/// assert_eq!(arrivals.next(), Some((ms(0), 0)));
/// // Task 0 still fires at 2, 4 and 6; drop the two before 5.
/// assert_eq!(arrivals.skip_before(0, ms(5)), 2);
/// let rest: Vec<_> = arrivals.collect();
/// assert_eq!(rest, [(ms(0), 1), (ms(3), 1), (ms(6), 0), (ms(6), 1)]);
/// ```
///
/// # Panics
///
/// Panics (debug assertion) when `phases` and `periods` disagree in
/// length or a period is non-positive; callers validate both (see
/// [`MultiTaskRuntimeConfig`]).
#[derive(Debug, Clone)]
pub struct PhasedArrivals<'a> {
    end: Timestamp,
    periods: &'a [TimeDelta],
    /// Each task's next arrival: a task never has two pending, so the
    /// earliest `(time, task)` among them is the next in global order.
    pending: Vec<Option<Timestamp>>,
}

impl<'a> PhasedArrivals<'a> {
    /// The arrivals of `window` for tasks anchored at `phases` with
    /// cadences `periods`.
    pub fn new(window: TimeWindow, phases: &[Timestamp], periods: &'a [TimeDelta]) -> Self {
        debug_assert_eq!(phases.len(), periods.len());
        debug_assert!(periods.iter().all(|p| p.as_micros() > 0) || window.start() >= window.end());
        let mut pending = vec![None; periods.len()];
        if window.start() < window.end() {
            for (task, next) in pending.iter_mut().enumerate() {
                let mut first = phases[task];
                if first < window.start() {
                    let gap = (window.start() - first).as_micros();
                    let period = periods[task].as_micros();
                    let steps = (gap + period - 1) / period;
                    first += TimeDelta::from_micros(steps * period);
                }
                *next = (first < window.end()).then_some(first);
            }
        }
        PhasedArrivals {
            end: window.end(),
            periods,
            pending,
        }
    }

    /// `task`'s next arrival, `None` once it has none left in the
    /// window.
    pub fn peek(&self, task: usize) -> Option<Timestamp> {
        self.pending[task]
    }

    /// Drops every arrival of `task` before `until` and returns how
    /// many: exactly the arrivals of `task` that iterating would have
    /// delivered before `until`.
    pub fn skip_before(&mut self, task: usize, until: Timestamp) -> u64 {
        let bound = until.min(self.end);
        let Some(next) = self.pending[task].filter(|&next| next < bound) else {
            return 0;
        };
        let period = self.periods[task].as_micros();
        let skipped = ((bound - next).as_micros() + period - 1) / period;
        let after = next + TimeDelta::from_micros(skipped * period);
        self.pending[task] = (after < self.end).then_some(after);
        skipped as u64
    }
}

impl Iterator for PhasedArrivals<'_> {
    type Item = (Timestamp, usize);

    fn next(&mut self) -> Option<(Timestamp, usize)> {
        // A scan in task order that keeps the first strict minimum
        // breaks ties by task index.
        let mut earliest: Option<(Timestamp, usize)> = None;
        for (task, next) in self.pending.iter().enumerate() {
            if let Some(at) = *next {
                if earliest.is_none_or(|(best, _)| at < best) {
                    earliest = Some((at, task));
                }
            }
        }
        let (arrival, task) = earliest?;
        let next = arrival + self.periods[task];
        self.pending[task] = (next < self.end).then_some(next);
        Some((arrival, task))
    }
}

/// Delivers every arrival of [`PhasedArrivals`] in global time order
/// (ties broken by task index); `deliver(arrival, task)` returns
/// `false` to stop early (e.g. after a dispatch error).
///
/// # Panics
///
/// As [`PhasedArrivals::new`].
pub fn for_each_phased_arrival(
    window: TimeWindow,
    phases: &[Timestamp],
    periods: &[TimeDelta],
    mut deliver: impl FnMut(Timestamp, usize) -> bool,
) {
    for (arrival, task) in PhasedArrivals::new(window, phases, periods) {
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
/// inference in flight, counting an input that waited in the task's queue
/// as started as soon as the task could run it. At the window end each
/// task runs its queued inputs, then flushes what DSFA still holds.
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
    let mut frame_streams = Vec::with_capacity(streams.len());
    for stream in streams {
        let events = stream.sequence.generate(config.window)?;
        let intervals = stream.sequence.frame_intervals(config.window);
        frame_streams.push(
            E2sf::new(E2sfConfig::new(stream.bins_per_interval))
                .convert_intervals(&events, &intervals)?,
        );
    }
    let mut frontends: Vec<Option<DsfaStage>> = streams
        .iter()
        .map(|s| DsfaStage::new(s.dsfa).map(Some))
        .collect::<Result<_, _>>()?;
    drive_frames(
        &mut engine,
        &mut model,
        frame_streams,
        &mut frontends,
        config.window,
    )?;
    Ok(MultiTaskRuntimeReport::finish(problem, engine))
}

/// The streaming driver behind both the multi-task runtime and the
/// single-task pipeline: plays every task's sparse frames into `engine`
/// in global `(ready, task, frame)` order, each through its frontend —
/// a DSFA stage, or `None` for one single-frame job per frame — then
/// drains.
///
/// DSFA's hardware-availability rule (§4.2) is the one gate here: a
/// frame arriving while [`ExecEngine::task_idle_at`] holds flushes the
/// task's buffered frames early. At the window end each task first runs
/// its queued inputs, then flushes what DSFA still holds at the later
/// of its free time and the window end.
pub(crate) fn drive_frames(
    engine: &mut ExecEngine<DeviceTimeline>,
    model: &mut dyn JobModel,
    frame_streams: Vec<Vec<SparseFrame>>,
    frontends: &mut [Option<DsfaStage>],
    window: TimeWindow,
) -> Result<(), EvEdgeError> {
    let mut clock: EventClock<(usize, usize)> = EventClock::new(window.start());
    for (t, frames) in frame_streams.iter().enumerate() {
        for (i, frame) in frames.iter().enumerate() {
            clock.schedule(frame.ready_at(), (t, i));
        }
    }
    // Each (task, index) fires exactly once, so frames are moved out of
    // the streams instead of cloned per arrival.
    let mut frame_streams: Vec<Vec<Option<SparseFrame>>> = frame_streams
        .into_iter()
        .map(|frames| frames.into_iter().map(Some).collect())
        .collect();

    while let Some((ready, (t, i))) = clock.next_event() {
        let frame = frame_streams[t][i].take().expect("each frame arrives once");
        engine.note_arrival(t);
        // Start what tasks `0..=t` can start by now — the same dispatches
        // in the same task order as the service below would make — so
        // the gate reads this task's state after its waiting inputs
        // have started, as if each had been dispatched on arrival.
        for task in 0..=t {
            engine.service(task, ready, model)?;
        }
        match &mut frontends[t] {
            Some(dsfa) => {
                if engine.task_idle_at(t, ready) {
                    for job in dsfa.flush(ready)? {
                        engine.enqueue(t, job);
                    }
                }
                for job in dsfa.push(frame)? {
                    engine.enqueue(t, job);
                }
            }
            None => engine.enqueue(
                t,
                JobInput {
                    ready,
                    batch: 1,
                    density: frame.spatial_density(),
                    events: frame.event_count(),
                },
            ),
        }
        // Serve every task that can make progress at this instant.
        engine.service_all(ready, model)?;
    }
    for (t, frontend) in frontends.iter_mut().enumerate() {
        engine.drain(t, model)?;
        if let Some(dsfa) = frontend {
            let tail = engine.task_free_at(t).max(window.end());
            for job in dsfa.flush(tail)? {
                engine.enqueue(t, job);
            }
            engine.drain(t, model)?;
        }
    }
    Ok(())
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

/// `drive_frames` with one task against the single-task loop it
/// replaced, which dispatched every job the moment it was submitted.
#[cfg(test)]
mod single_task_equivalence {
    use super::*;
    use crate::dsfa::{CMode, DsfaConfig};
    use crate::exec::engine::EngineReport;
    use crate::exec::job::BatchCostModel;
    use ev_core::Timestamp;
    use ev_sparse::coo::{SparseEntry, SparseTensor};
    use proptest::prelude::*;

    /// Longest batch the costs table prices separately (the largest DSFA
    /// overflow batch: `EBufsize` 8 plus the frame that overflowed it).
    const MAX_BATCH: usize = 9;

    /// Back-to-back frames on an 8×8 two-channel grid, one per
    /// `(duration µs, active pixels)` pair.
    fn frames(shape: &[(i64, usize)]) -> Vec<SparseFrame> {
        let mut start = Timestamp::from_millis(1);
        shape
            .iter()
            .map(|&(duration, active)| {
                let entries = (0..active)
                    .map(|k| SparseEntry::new((k % 2) as u32, (k / 8) as u32, (k % 8) as u32, 1.0))
                    .collect();
                let tensor = SparseTensor::from_entries(2, 8, 8, entries).unwrap();
                let window = TimeWindow::with_duration(start, TimeDelta::from_micros(duration));
                start = window.end();
                SparseFrame::new(tensor, window, active)
            })
            .collect()
    }

    fn cost_model(
        costs: &[i64],
    ) -> BatchCostModel<impl FnMut(f64, usize) -> Result<(TimeDelta, Energy), EvEdgeError> + '_>
    {
        BatchCostModel::new(0, move |_density, batch| {
            let us = costs[batch.clamp(1, MAX_BATCH) - 1];
            Ok((
                TimeDelta::from_micros(us),
                Energy::from_joules(us as f64 * 1e-6),
            ))
        })
    }

    fn engine(window: TimeWindow, frames: usize) -> ExecEngine<DeviceTimeline> {
        ExecEngine::new(window.start(), DeviceTimeline::new(1), 1, frames.max(1))
            .unwrap()
            .with_job_records()
    }

    /// The replaced loop: submit, then drain at once, so the §4.2 gate
    /// reads the free time of the task's last submitted job.
    fn drain_on_submit(
        frames: Vec<SparseFrame>,
        dsfa: Option<DsfaConfig>,
        costs: &[i64],
        window: TimeWindow,
    ) -> (EngineReport, f64) {
        let mut engine = engine(window, frames.len());
        let mut model = cost_model(costs);
        let mut run = |engine: &mut ExecEngine<DeviceTimeline>, jobs: Vec<JobInput>| {
            for job in jobs {
                engine.submit(0, job);
                engine.drain(0, &mut model).unwrap();
            }
        };
        let aggregation = match dsfa {
            Some(config) => {
                let mut dsfa = DsfaStage::new(config).unwrap();
                for frame in frames {
                    let ready = frame.ready_at();
                    if engine.task_free_at(0) <= ready {
                        run(&mut engine, dsfa.flush(ready).unwrap());
                    }
                    run(&mut engine, dsfa.push(frame).unwrap());
                }
                let tail = engine.task_free_at(0).max(window.end());
                run(&mut engine, dsfa.flush(tail).unwrap());
                dsfa.aggregation_aggressiveness()
            }
            None => {
                for frame in frames {
                    let job = JobInput {
                        ready: frame.ready_at(),
                        batch: 1,
                        density: frame.spatial_density(),
                        events: frame.event_count(),
                    };
                    run(&mut engine, vec![job]);
                }
                0.0
            }
        };
        (engine.finish(0.0), aggregation)
    }

    fn streamed(
        frames: Vec<SparseFrame>,
        dsfa: Option<DsfaConfig>,
        costs: &[i64],
        window: TimeWindow,
    ) -> (EngineReport, f64) {
        let mut engine = engine(window, frames.len());
        let mut frontends = [dsfa.map(|config| DsfaStage::new(config).unwrap())];
        drive_frames(
            &mut engine,
            &mut cost_model(costs),
            vec![frames],
            &mut frontends,
            window,
        )
        .unwrap();
        let aggregation = frontends[0]
            .as_ref()
            .map_or(0.0, DsfaStage::aggregation_aggressiveness);
        (engine.finish(0.0), aggregation)
    }

    /// An overflow batch waits in the queue behind a running inference;
    /// whether the next frame sees the task idle depends on when that
    /// batch would end, not on whether it still sits in the queue.
    #[test]
    fn gate_reads_the_task_after_its_waiting_inputs_start() {
        // EBufsize 1: the 30 ms frame overflows into a two-frame batch
        // while the batch flushed at 20 ms still runs (until 45 ms).
        let dsfa = DsfaConfig {
            ebuf_size: 1,
            mb_size: 1,
            ..DsfaConfig::default()
        };
        let shape = [
            (9_000, 4),
            (10_000, 4),
            (10_000, 4),
            (10_000, 4),
            (10_000, 4),
        ];
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(60));
        let ms = Timestamp::from_millis;
        let jobs = |pair_us: i64| {
            let mut costs = [25_000; MAX_BATCH];
            costs[1] = pair_us;
            let (report, _) = streamed(frames(&shape), Some(dsfa), &costs, window);
            let (reference, _) = drain_on_submit(frames(&shape), Some(dsfa), &costs, window);
            assert_eq!(report.jobs, reference.jobs);
            report
                .jobs
                .iter()
                .map(|j| (j.ready, j.start, j.end, j.batch))
                .collect::<Vec<_>>()
        };
        // The pair runs 45–48 ms: the task is idle when the 50 ms frame
        // arrives, so DSFA flushes the 40 ms frame early.
        assert_eq!(
            jobs(3_000),
            [
                (ms(20), ms(20), ms(45), 1),
                (ms(30), ms(45), ms(48), 2),
                (ms(50), ms(50), ms(75), 1),
                (ms(75), ms(75), ms(100), 1),
            ]
        );
        // The pair runs 45–53 ms: busy at 50 ms, so that frame overflows
        // the buffer instead.
        assert_eq!(
            jobs(8_000),
            [
                (ms(20), ms(20), ms(45), 1),
                (ms(30), ms(45), ms(53), 2),
                (ms(50), ms(53), ms(61), 2),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn one_task_matches_drain_on_submit(
            shape in prop::collection::vec((1i64..=15_000, 0usize..=64), 0..40),
            dsfa in (0usize..4, 1usize..=8, 1usize..=8, 1i64..=40, 0usize..4),
            costs in prop::collection::vec(1i64..=20_000, MAX_BATCH),
            tail_ms in 0u64..=200,
        ) {
            let (mode, ebuf_size, mb_size, mt_th_ms, md_th) = dsfa;
            let dsfa = [CMode::CAdd, CMode::CAverage, CMode::CBatch].get(mode).map(|&cmode| {
                DsfaConfig {
                    cmode,
                    ebuf_size,
                    mb_size: mb_size.min(ebuf_size),
                    mt_th: TimeDelta::from_millis(mt_th_ms),
                    md_th: [0.05, 0.5, 2.0, 10.0][md_th],
                }
            });
            let frames = frames(&shape);
            let last = frames.last().map_or(Timestamp::ZERO, SparseFrame::ready_at);
            let window = TimeWindow::new(Timestamp::ZERO, last + TimeDelta::from_millis(tail_ms as i64));
            let (want, want_aggregation) = drain_on_submit(frames.clone(), dsfa, &costs, window);
            let (got, got_aggregation) = streamed(frames, dsfa, &costs, window);
            prop_assert_eq!(&got.jobs, &want.jobs);
            let recorded: i64 = got.jobs.iter().map(|j| (j.end - j.start).as_micros()).sum();
            prop_assert_eq!(got.per_task[0].booked, recorded);
            prop_assert_eq!(got.makespan, want.makespan);
            prop_assert_eq!(got.energy.as_joules().to_bits(), want.energy.as_joules().to_bits());
            prop_assert_eq!(got_aggregation.to_bits(), want_aggregation.to_bits());
            prop_assert_eq!(got.per_task[0].dropped, 0);
        }
    }
}
