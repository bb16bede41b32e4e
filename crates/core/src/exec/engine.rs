//! The unified execution engine: bounded queues, dispatch, contention
//! and energy accounting.
//!
//! Before this module existed, the single-task pipeline, the multi-task
//! runtime and the offline fitness evaluator each hand-rolled their own
//! job dispatch, device-timeline, latency and energy bookkeeping. The
//! [`ExecEngine`] owns that machinery exactly once:
//!
//! * per-task **bounded inference queues** with the paper's §4.2
//!   oldest-drop rule (via [`InferenceQueue`]);
//! * a greedy **service loop** — a task starts its next inference when
//!   its previous one finished and an input is pending;
//! * dispatch through a pluggable [`JobModel`] onto a
//!   [`ReservationTimeline`];
//! * **latency / makespan / energy / utilization** accounting, including
//!   the platform's always-on static power over the makespan.

use crate::exec::job::{JobInput, JobModel, JobRecord};
use crate::queue::InferenceQueue;
use crate::EvEdgeError;
use ev_core::{TimeDelta, Timestamp};
use ev_platform::energy::Energy;
use ev_platform::ReservationTimeline;

/// Runtime statistics of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskStats {
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

/// The outcome of an engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Per-task statistics.
    pub per_task: Vec<TaskStats>,
    /// Every executed job, in dispatch order (empty unless job recording
    /// was enabled).
    pub jobs: Vec<JobRecord>,
    /// Time from the window start until the last job completed.
    pub makespan: TimeDelta,
    /// Device busy time summed over every queue.
    pub busy_time: TimeDelta,
    /// Total modeled energy (busy + static over the makespan).
    pub energy: Energy,
    /// Per-queue busy-time utilization over the makespan.
    pub utilization: Vec<f64>,
}

/// The unified streaming execution engine.
///
/// Generic over the timeline so a caller can wrap the runtime's
/// [`ev_platform::DeviceTimeline`] (e.g. to time or count its
/// reservations) without touching the dispatch loop.
///
/// # Examples
///
/// A one-task engine dispatching fixed-duration jobs through a
/// [`crate::exec::job::BatchCostModel`]:
///
/// ```
/// use ev_core::{TimeDelta, Timestamp};
/// use ev_edge::exec::engine::ExecEngine;
/// use ev_edge::exec::job::{BatchCostModel, JobInput};
/// use ev_platform::energy::Energy;
/// use ev_platform::timeline::DeviceTimeline;
///
/// # fn main() -> Result<(), ev_edge::EvEdgeError> {
/// let mut engine = ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(1), 1, 4)?;
/// let mut model = BatchCostModel::new(0, |_density, _batch| {
///     Ok((TimeDelta::from_millis(10), Energy::from_joules(0.5)))
/// });
/// engine.submit(0, JobInput::arrival(Timestamp::ZERO));
/// engine.submit(0, JobInput::arrival(Timestamp::from_millis(2)));
/// engine.drain(0, &mut model)?;
/// let report = engine.finish(0.0);
/// assert_eq!(report.per_task[0].completed, 2);
/// assert_eq!(report.makespan, TimeDelta::from_millis(20));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ExecEngine<T: ReservationTimeline> {
    start: Timestamp,
    timeline: T,
    queues: Vec<InferenceQueue<JobInput>>,
    task_free: Vec<Timestamp>,
    arrivals: Vec<u64>,
    completed: Vec<u64>,
    latency_sum: Vec<i64>,
    latency_max: Vec<TimeDelta>,
    energy: Energy,
    makespan_end: Timestamp,
    jobs: Vec<JobRecord>,
    record_jobs: bool,
}

impl<T: ReservationTimeline> ExecEngine<T> {
    /// An engine over `timeline` for `tasks` tasks with per-task bounded
    /// queues of `queue_capacity` pending inputs.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidQueueCapacity`] when
    /// `queue_capacity` is zero.
    pub fn new(
        start: Timestamp,
        timeline: T,
        tasks: usize,
        queue_capacity: usize,
    ) -> Result<Self, EvEdgeError> {
        let queues = (0..tasks)
            .map(|_| InferenceQueue::new(queue_capacity))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExecEngine {
            start,
            timeline,
            queues,
            task_free: vec![start; tasks],
            arrivals: vec![0; tasks],
            completed: vec![0; tasks],
            latency_sum: vec![0; tasks],
            latency_max: vec![TimeDelta::ZERO; tasks],
            energy: Energy::ZERO,
            makespan_end: start,
            jobs: Vec::new(),
            record_jobs: false,
        })
    }

    /// Enables per-job record keeping (distribution analysis).
    #[must_use]
    pub fn with_job_records(mut self) -> Self {
        self.record_jobs = true;
        self
    }

    /// Whether `task` has no inference in flight at `time` — the
    /// hardware-availability signal DSFA's early-flush rule consumes
    /// (paper §4.2). Inputs still waiting in the task's queue do not
    /// count; service the task at `time` first to count them from when
    /// they start.
    pub fn task_idle_at(&self, task: usize, time: Timestamp) -> bool {
        self.task_free[task] <= time
    }

    /// Inputs waiting in `task`'s bounded queue (the in-flight inference
    /// is not counted).
    pub fn pending(&self, task: usize) -> usize {
        self.queues[task].len()
    }

    /// Mean per-queue device utilization over `elapsed` simulated time:
    /// booked busy time over (device queues × `elapsed`), `0.0` before
    /// any time has elapsed. Exceeds `1.0` when reservations are booked
    /// past `elapsed`, the overload signal the `ev_serve` watermark
    /// sheds on.
    pub fn device_utilization(&self, elapsed: TimeDelta) -> f64 {
        let queues = self.timeline.queues();
        if elapsed.as_micros() <= 0 || queues == 0 {
            return 0.0;
        }
        self.timeline.total_busy().as_secs_f64() / (queues as f64 * elapsed.as_secs_f64())
    }

    /// Records one frontend-level input arrival for `task` without
    /// enqueuing anything (streaming frontends count raw frames even
    /// when DSFA buffers them).
    pub fn note_arrival(&mut self, task: usize) {
        self.arrivals[task] += 1;
    }

    /// Enqueues a job on `task`'s bounded queue without counting an
    /// arrival. Under overload the queue discards its oldest pending
    /// input (§4.2 drop rule).
    pub fn enqueue(&mut self, task: usize, job: JobInput) {
        self.queues[task].push(job);
    }

    /// Delivers an input to `task`: counts the arrival and enqueues it.
    pub fn submit(&mut self, task: usize, job: JobInput) {
        self.note_arrival(task);
        self.enqueue(task, job);
    }

    /// Greedily runs `task`'s pending inferences: while its previous
    /// inference has finished by `now` and an input is pending, dispatch
    /// the next one through `model`.
    ///
    /// # Errors
    ///
    /// Propagates dispatch errors.
    #[inline]
    pub fn service(
        &mut self,
        task: usize,
        now: Timestamp,
        model: &mut dyn JobModel,
    ) -> Result<(), EvEdgeError> {
        while self.task_free[task] <= now {
            let Some(job) = self.queues[task].pop() else {
                break;
            };
            self.run_job(task, job, model)?;
        }
        Ok(())
    }

    /// Runs one input of `task` through `model`, from when both the
    /// input and the task are ready, and books its completion.
    fn run_job(
        &mut self,
        task: usize,
        job: JobInput,
        model: &mut dyn JobModel,
    ) -> Result<(), EvEdgeError> {
        let ready = job.ready.max(self.task_free[task]);
        let (end, energy) = model.dispatch(task, &job, ready, &mut self.timeline)?;
        self.energy += energy;
        self.task_free[task] = end;
        self.makespan_end = self.makespan_end.max(end);
        self.completed[task] += 1;
        let latency = end - job.ready;
        self.latency_sum[task] += latency.as_micros();
        self.latency_max[task] = self.latency_max[task].max(latency);
        if self.record_jobs {
            self.jobs.push(JobRecord {
                task,
                ready: job.ready,
                start: ready,
                end,
                batch: job.batch,
                density: job.density,
                events: job.events,
            });
        }
        Ok(())
    }

    /// Services every task that can make progress at `now`, in task
    /// order (the deterministic tie-break the serial engines used).
    ///
    /// # Errors
    ///
    /// Propagates dispatch errors.
    pub fn service_all(
        &mut self,
        now: Timestamp,
        model: &mut dyn JobModel,
    ) -> Result<(), EvEdgeError> {
        for task in 0..self.queues.len() {
            self.service(task, now, model)?;
        }
        Ok(())
    }

    /// Runs everything still queued for `task`, regardless of time.
    ///
    /// # Errors
    ///
    /// Propagates dispatch errors.
    pub fn drain(&mut self, task: usize, model: &mut dyn JobModel) -> Result<(), EvEdgeError> {
        self.service(task, Timestamp::MAX, model)
    }

    /// Runs everything still queued, task by task.
    ///
    /// # Errors
    ///
    /// Propagates dispatch errors.
    pub fn drain_all(&mut self, model: &mut dyn JobModel) -> Result<(), EvEdgeError> {
        for task in 0..self.queues.len() {
            self.drain(task, model)?;
        }
        Ok(())
    }

    /// When `task`'s in-flight inference finishes (its queue-service
    /// gate).
    pub fn task_free_at(&self, task: usize) -> Timestamp {
        self.task_free[task]
    }

    /// Closes the run: charges `static_power_w` over the makespan and
    /// produces the unified report.
    pub fn finish(self, static_power_w: f64) -> EngineReport {
        let makespan = self.makespan_end - self.start;
        let energy = self.energy + Energy::from_joules(static_power_w * makespan.as_secs_f64());
        let per_task = (0..self.queues.len())
            .map(|t| TaskStats {
                arrivals: self.arrivals[t],
                completed: self.completed[t],
                dropped: self.queues[t].dropped(),
                mean_latency: if self.completed[t] == 0 {
                    TimeDelta::ZERO
                } else {
                    TimeDelta::from_micros(self.latency_sum[t] / self.completed[t] as i64)
                },
                max_latency: self.latency_max[t],
            })
            .collect();
        EngineReport {
            per_task,
            jobs: self.jobs,
            makespan,
            busy_time: self.timeline.total_busy(),
            energy,
            utilization: self.timeline.utilizations(makespan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_platform::timeline::DeviceTimeline;

    /// A fixed-duration model for engine-mechanics tests.
    struct FixedModel {
        duration: TimeDelta,
        queue: usize,
    }

    impl JobModel for FixedModel {
        fn dispatch(
            &mut self,
            _task: usize,
            _job: &JobInput,
            ready: Timestamp,
            timeline: &mut dyn ReservationTimeline,
        ) -> Result<(Timestamp, Energy), EvEdgeError> {
            let (_, end) = timeline.reserve_next(self.queue, ready, self.duration)?;
            Ok((end, Energy::from_joules(1.0)))
        }
    }

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn jobs_serialize_per_task_and_account_latency() {
        let mut engine = ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(1), 1, 8)
            .unwrap()
            .with_job_records();
        let mut model = FixedModel {
            duration: TimeDelta::from_millis(10),
            queue: 0,
        };
        for t in [0u64, 2, 4] {
            engine.submit(0, JobInput::arrival(ms(t)));
        }
        engine.drain(0, &mut model).unwrap();
        let report = engine.finish(0.0);
        let stats = &report.per_task[0];
        assert_eq!(stats.arrivals, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.dropped, 0);
        // Ends at 10, 20, 30 → latencies 10, 18, 26 ms.
        assert_eq!(stats.max_latency, TimeDelta::from_millis(26));
        assert_eq!(stats.mean_latency, TimeDelta::from_millis(18));
        assert_eq!(report.makespan, TimeDelta::from_millis(30));
        assert_eq!(report.busy_time, TimeDelta::from_millis(30));
        assert_eq!(report.jobs.len(), 3);
        assert!(report.jobs.windows(2).all(|w| w[0].end <= w[1].start));
    }

    #[test]
    fn bounded_queue_drops_oldest_under_overload() {
        let mut engine = ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(1), 1, 2).unwrap();
        let mut model = FixedModel {
            duration: TimeDelta::from_millis(100),
            queue: 0,
        };
        for t in 0..6u64 {
            engine.submit(0, JobInput::arrival(ms(t)));
            engine.service(0, ms(t), &mut model).unwrap();
        }
        engine.drain(0, &mut model).unwrap();
        let report = engine.finish(0.0);
        let stats = &report.per_task[0];
        assert_eq!(stats.arrivals, 6);
        assert_eq!(stats.completed + stats.dropped, 6);
        assert!(stats.dropped > 0, "overload must drop");
    }

    #[test]
    fn service_respects_time_gate() {
        let mut engine = ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(1), 1, 4).unwrap();
        let mut model = FixedModel {
            duration: TimeDelta::from_millis(50),
            queue: 0,
        };
        engine.submit(0, JobInput::arrival(ms(0)));
        engine.submit(0, JobInput::arrival(ms(1)));
        engine.service(0, ms(1), &mut model).unwrap();
        // First job dispatched (free at 50); second still queued.
        assert_eq!(engine.task_free_at(0), ms(50));
        assert!(!engine.task_idle_at(0, ms(10)));
        engine.service(0, ms(50), &mut model).unwrap();
        assert_eq!(engine.task_free_at(0), ms(100));
    }

    #[test]
    fn static_power_charged_over_makespan() {
        let mut engine = ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(1), 1, 1).unwrap();
        let mut model = FixedModel {
            duration: TimeDelta::from_millis(500),
            queue: 0,
        };
        engine.submit(0, JobInput::arrival(Timestamp::ZERO));
        engine.drain(0, &mut model).unwrap();
        let report = engine.finish(2.0);
        // 1 J busy + 2 W × 0.5 s static.
        assert!((report.energy.as_joules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn load_probe_reflects_booked_work() {
        let mut engine = ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(2), 1, 4).unwrap();
        let mut model = FixedModel {
            duration: TimeDelta::from_millis(30),
            queue: 0,
        };
        assert_eq!(engine.device_utilization(TimeDelta::from_millis(10)), 0.0);
        engine.submit(0, JobInput::arrival(ms(0)));
        engine.submit(0, JobInput::arrival(ms(0)));
        assert_eq!(engine.pending(0), 2);
        engine.drain(0, &mut model).unwrap();
        assert_eq!(engine.pending(0), 0);
        // 60 ms booked over 2 queues × 30 ms elapsed → saturated.
        let u = engine.device_utilization(TimeDelta::from_millis(30));
        assert!((u - 1.0).abs() < 1e-12);
        assert_eq!(engine.device_utilization(TimeDelta::ZERO), 0.0);
        assert_eq!(engine.finish(0.0).busy_time, TimeDelta::from_millis(60));
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(1), 2, 0),
            Err(EvEdgeError::InvalidQueueCapacity { .. })
        ));
    }
}
