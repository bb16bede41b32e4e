//! The semantic-equivalence contract between execution schedules.
//!
//! The serial dispatch loop is the reference schedule. A schedule that
//! re-orders same-queue work (to cut head-of-line blocking, say) cannot
//! be byte-identical to it, but it can still be held to this weaker,
//! checkable contract:
//!
//! 1. **Same job set.** Per task, the re-ordered schedule executes
//!    exactly the jobs the serial schedule executes, in the same
//!    per-task order, with identical payloads (ready time, batch size,
//!    density, event count) and identical drop decisions.
//! 2. **Pointwise no-worse latency.** Every job completes no later than
//!    its serial counterpart, so every per-job latency is bounded by the
//!    serial latency.
//! 3. **Aggregate no-worse metrics.** Mean/max latency per task, the
//!    makespan, and total energy are each bounded by the serial value
//!    (energy up to a relative [`ENERGY_TOLERANCE`], because commuting
//!    dispatches commutes an `f64` accumulation).
//!
//! [`check_job_records`] verifies 1–2 on recorded job streams;
//! [`check_reports`] verifies 1 (at counter granularity) and 3 on
//! engine reports. The `exec_equivalence` integration tests verify the
//! *checker* by feeding it a recorded serial run with a dropped job, a
//! mutated payload, and an inflated latency, and asserting each is
//! rejected with the right error.

use crate::exec::engine::EngineReport;
use crate::exec::job::JobRecord;
use ev_core::TimeDelta;
use std::fmt;

/// Relative slack allowed on total energy: re-ordering commutative
/// dispatches re-associates an `f64` sum, which can perturb the last
/// few bits but nothing more.
pub const ENERGY_TOLERANCE: f64 = 1e-9;

/// A way in which an optimized schedule failed to be semantically
/// equivalent to (and no worse than) its serial reference.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivalenceError {
    /// A task executed a different number of jobs than the reference —
    /// a job was dropped, duplicated, or invented.
    JobCountMismatch {
        /// The offending task.
        task: usize,
        /// Jobs the serial schedule executed for the task.
        serial: usize,
        /// Jobs the optimized schedule executed for the task.
        optimized: usize,
    },
    /// A job's payload (ready time, batch, density, or event count)
    /// differs from the reference — the runtimes did not agree on *what*
    /// to execute.
    PayloadMismatch {
        /// The offending task.
        task: usize,
        /// The job's index within the task's per-task order.
        index: usize,
    },
    /// A job completed *later* than its serial counterpart.
    JobLatencyRegression {
        /// The offending task.
        task: usize,
        /// The job's index within the task's per-task order.
        index: usize,
        /// The serial job's latency.
        serial: TimeDelta,
        /// The optimized job's (worse) latency.
        optimized: TimeDelta,
    },
    /// The reports disagree on the number of tasks.
    TaskCountMismatch {
        /// Tasks in the serial report.
        serial: usize,
        /// Tasks in the optimized report.
        optimized: usize,
    },
    /// A task's arrival/completed/dropped counters differ — the
    /// schedules did not process the same job set.
    CounterMismatch {
        /// The offending task.
        task: usize,
    },
    /// A task's mean latency exceeds the serial value.
    MeanLatencyRegression {
        /// The offending task.
        task: usize,
        /// The serial mean latency.
        serial: TimeDelta,
        /// The optimized (worse) mean latency.
        optimized: TimeDelta,
    },
    /// A task's worst-case latency exceeds the serial value.
    MaxLatencyRegression {
        /// The offending task.
        task: usize,
        /// The serial max latency.
        serial: TimeDelta,
        /// The optimized (worse) max latency.
        optimized: TimeDelta,
    },
    /// The optimized makespan exceeds the serial makespan.
    MakespanRegression {
        /// The serial makespan.
        serial: TimeDelta,
        /// The optimized (worse) makespan.
        optimized: TimeDelta,
    },
    /// Total energy exceeds the serial value beyond
    /// [`ENERGY_TOLERANCE`].
    EnergyRegression {
        /// Serial total energy in joules.
        serial_joules: f64,
        /// Optimized (worse) total energy in joules.
        optimized_joules: f64,
    },
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceError::JobCountMismatch {
                task,
                serial,
                optimized,
            } => write!(
                f,
                "task {task}: executed {optimized} jobs where the serial schedule executed {serial}"
            ),
            EquivalenceError::PayloadMismatch { task, index } => write!(
                f,
                "task {task}, job {index}: payload differs from the serial schedule"
            ),
            EquivalenceError::JobLatencyRegression {
                task,
                index,
                serial,
                optimized,
            } => write!(
                f,
                "task {task}, job {index}: latency {optimized:?} exceeds the serial {serial:?}"
            ),
            EquivalenceError::TaskCountMismatch { serial, optimized } => write!(
                f,
                "reports disagree on the task count: serial {serial}, optimized {optimized}"
            ),
            EquivalenceError::CounterMismatch { task } => write!(
                f,
                "task {task}: arrival/completed/dropped counters differ from the serial schedule"
            ),
            EquivalenceError::MeanLatencyRegression {
                task,
                serial,
                optimized,
            } => write!(
                f,
                "task {task}: mean latency {optimized:?} exceeds the serial {serial:?}"
            ),
            EquivalenceError::MaxLatencyRegression {
                task,
                serial,
                optimized,
            } => write!(
                f,
                "task {task}: max latency {optimized:?} exceeds the serial {serial:?}"
            ),
            EquivalenceError::MakespanRegression { serial, optimized } => write!(
                f,
                "makespan {optimized:?} exceeds the serial {serial:?}"
            ),
            EquivalenceError::EnergyRegression {
                serial_joules,
                optimized_joules,
            } => write!(
                f,
                "total energy {optimized_joules} J exceeds the serial {serial_joules} J beyond tolerance"
            ),
        }
    }
}

impl std::error::Error for EquivalenceError {}

/// Groups job-record indices by owning task.
fn per_task_indices(records: &[JobRecord], tasks: usize) -> Vec<Vec<usize>> {
    let mut by_task = vec![Vec::new(); tasks];
    for (i, job) in records.iter().enumerate() {
        by_task[job.task].push(i);
    }
    by_task
}

/// Checks clauses 1–2 of the contract on recorded job streams: per
/// task, the optimized schedule ran exactly the serial job set with
/// identical payloads, and no job finished later than its serial
/// counterpart. `tasks` is the task count both runs were built with
/// (records may legitimately omit idle tasks).
///
/// The *global* interleaving across tasks is allowed to differ — that
/// is exactly the freedom a re-ordering schedule trades bitwise
/// determinism for.
///
/// # Errors
///
/// Returns the first violated clause, in task-then-job order.
pub fn check_job_records(
    serial: &[JobRecord],
    optimized: &[JobRecord],
    tasks: usize,
) -> Result<(), EquivalenceError> {
    let serial_by_task = per_task_indices(serial, tasks);
    let optimized_by_task = per_task_indices(optimized, tasks);
    for task in 0..tasks {
        let (a, b) = (&serial_by_task[task], &optimized_by_task[task]);
        if a.len() != b.len() {
            return Err(EquivalenceError::JobCountMismatch {
                task,
                serial: a.len(),
                optimized: b.len(),
            });
        }
        for (index, (&ia, &ib)) in a.iter().zip(b).enumerate() {
            let (s, o) = (&serial[ia], &optimized[ib]);
            if s.ready != o.ready
                || s.batch != o.batch
                || s.density != o.density
                || s.events != o.events
            {
                return Err(EquivalenceError::PayloadMismatch { task, index });
            }
            if o.end > s.end {
                return Err(EquivalenceError::JobLatencyRegression {
                    task,
                    index,
                    serial: s.latency(),
                    optimized: o.latency(),
                });
            }
        }
    }
    Ok(())
}

/// Checks clauses 1 and 3 of the contract on engine reports: identical
/// per-task arrival/completed/dropped counters, and mean latency, max
/// latency, makespan, and energy each no worse than serial (energy up
/// to [`ENERGY_TOLERANCE`] relative slack). Utilization is *not*
/// compared — a shorter makespan legitimately raises it.
///
/// # Errors
///
/// Returns the first violated clause, counters before latencies before
/// aggregates.
pub fn check_reports(
    serial: &EngineReport,
    optimized: &EngineReport,
) -> Result<(), EquivalenceError> {
    if serial.per_task.len() != optimized.per_task.len() {
        return Err(EquivalenceError::TaskCountMismatch {
            serial: serial.per_task.len(),
            optimized: optimized.per_task.len(),
        });
    }
    for (task, (s, o)) in serial.per_task.iter().zip(&optimized.per_task).enumerate() {
        if s.arrivals != o.arrivals || s.completed != o.completed || s.dropped != o.dropped {
            return Err(EquivalenceError::CounterMismatch { task });
        }
        if o.mean_latency > s.mean_latency {
            return Err(EquivalenceError::MeanLatencyRegression {
                task,
                serial: s.mean_latency,
                optimized: o.mean_latency,
            });
        }
        if o.max_latency > s.max_latency {
            return Err(EquivalenceError::MaxLatencyRegression {
                task,
                serial: s.max_latency,
                optimized: o.max_latency,
            });
        }
    }
    if optimized.makespan > serial.makespan {
        return Err(EquivalenceError::MakespanRegression {
            serial: serial.makespan,
            optimized: optimized.makespan,
        });
    }
    let (se, oe) = (serial.energy.as_joules(), optimized.energy.as_joules());
    if oe > se * (1.0 + ENERGY_TOLERANCE) {
        return Err(EquivalenceError::EnergyRegression {
            serial_joules: se,
            optimized_joules: oe,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::engine::TaskStats;
    use ev_core::Timestamp;
    use ev_platform::energy::Energy;

    fn job(task: usize, ready_us: u64, end_us: u64) -> JobRecord {
        JobRecord {
            task,
            ready: Timestamp::from_micros(ready_us),
            start: Timestamp::from_micros(ready_us),
            end: Timestamp::from_micros(end_us),
            batch: 2,
            density: 0.5,
            events: 64,
        }
    }

    fn report(mean_us: u64, max_us: u64, makespan_us: u64, joules: f64) -> EngineReport {
        EngineReport {
            per_task: vec![TaskStats {
                arrivals: 4,
                completed: 3,
                dropped: 1,
                mean_latency: TimeDelta::from_micros(mean_us as i64),
                max_latency: TimeDelta::from_micros(max_us as i64),
            }],
            jobs: Vec::new(),
            makespan: TimeDelta::from_micros(makespan_us as i64),
            busy_time: TimeDelta::from_micros(makespan_us as i64),
            energy: Energy::from_joules(joules),
            utilization: vec![0.5],
        }
    }

    #[test]
    fn identical_records_pass() {
        let serial = vec![job(0, 0, 100), job(1, 10, 250), job(0, 200, 400)];
        assert_eq!(check_job_records(&serial, &serial.clone(), 2), Ok(()));
    }

    #[test]
    fn cross_task_interleaving_is_allowed() {
        let serial = vec![job(0, 0, 100), job(1, 10, 250)];
        let optimized = vec![job(1, 10, 250), job(0, 0, 100)];
        assert_eq!(check_job_records(&serial, &optimized, 2), Ok(()));
    }

    #[test]
    fn earlier_completion_passes() {
        let serial = vec![job(0, 0, 100)];
        let optimized = vec![job(0, 0, 90)];
        assert_eq!(check_job_records(&serial, &optimized, 1), Ok(()));
    }

    #[test]
    fn dropped_job_is_rejected() {
        let serial = vec![job(0, 0, 100), job(0, 200, 400)];
        let optimized = vec![job(0, 0, 100)];
        assert_eq!(
            check_job_records(&serial, &optimized, 1),
            Err(EquivalenceError::JobCountMismatch {
                task: 0,
                serial: 2,
                optimized: 1,
            })
        );
    }

    #[test]
    fn mutated_payload_is_rejected() {
        let serial = vec![job(0, 0, 100)];
        let mut optimized = serial.clone();
        optimized[0].events = 65;
        assert_eq!(
            check_job_records(&serial, &optimized, 1),
            Err(EquivalenceError::PayloadMismatch { task: 0, index: 0 })
        );
    }

    #[test]
    fn inflated_job_latency_is_rejected() {
        let serial = vec![job(0, 0, 100)];
        let optimized = vec![job(0, 0, 101)];
        assert_eq!(
            check_job_records(&serial, &optimized, 1),
            Err(EquivalenceError::JobLatencyRegression {
                task: 0,
                index: 0,
                serial: TimeDelta::from_micros(100),
                optimized: TimeDelta::from_micros(101),
            })
        );
    }

    #[test]
    fn report_improvements_pass() {
        let serial = report(100, 200, 1000, 1.0);
        let optimized = report(90, 180, 900, 0.999_999_999);
        assert_eq!(check_reports(&serial, &optimized), Ok(()));
        assert_eq!(check_reports(&serial, &serial.clone()), Ok(()));
    }

    #[test]
    fn counter_drift_is_rejected() {
        let serial = report(100, 200, 1000, 1.0);
        let mut optimized = serial.clone();
        optimized.per_task[0].dropped += 1;
        assert_eq!(
            check_reports(&serial, &optimized),
            Err(EquivalenceError::CounterMismatch { task: 0 })
        );
    }

    #[test]
    fn latency_and_makespan_regressions_are_rejected() {
        let serial = report(100, 200, 1000, 1.0);
        assert!(matches!(
            check_reports(&serial, &report(101, 200, 1000, 1.0)),
            Err(EquivalenceError::MeanLatencyRegression { task: 0, .. })
        ));
        assert!(matches!(
            check_reports(&serial, &report(100, 201, 1000, 1.0)),
            Err(EquivalenceError::MaxLatencyRegression { task: 0, .. })
        ));
        assert!(matches!(
            check_reports(&serial, &report(100, 200, 1001, 1.0)),
            Err(EquivalenceError::MakespanRegression { .. })
        ));
    }

    #[test]
    fn energy_tolerance_is_tight() {
        let serial = report(100, 200, 1000, 1.0);
        assert_eq!(
            check_reports(&serial, &report(100, 200, 1000, 1.0 + 0.5e-9)),
            Ok(())
        );
        assert!(matches!(
            check_reports(&serial, &report(100, 200, 1000, 1.0 + 2e-9)),
            Err(EquivalenceError::EnergyRegression { .. })
        ));
    }

    #[test]
    fn task_count_mismatch_is_rejected() {
        let serial = report(100, 200, 1000, 1.0);
        let mut optimized = serial.clone();
        optimized.per_task.push(serial.per_task[0].clone());
        assert_eq!(
            check_reports(&serial, &optimized),
            Err(EquivalenceError::TaskCountMismatch {
                serial: 1,
                optimized: 2,
            })
        );
    }
}
