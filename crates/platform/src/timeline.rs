//! Device availability timelines for the online runtime.
//!
//! While the list scheduler plans offline candidates, the runtime pipeline
//! (E2SF → DSFA → inference) needs to know *when hardware becomes free*:
//! DSFA dispatches merge buckets early "if the hardware platform becomes
//! available before the event buffer reaches full capacity" (paper §4.2).
//! A [`DeviceTimeline`] tracks per-queue reservations in simulated time.

use crate::PlatformError;
use ev_core::{TimeDelta, Timestamp};

/// One queue's back-to-back reservation chain inside a
/// [`ReservationTimeline::reserve_runs`] wave: `durations.len()` slots
/// on `queue`, the first at the earliest feasible start for work ready
/// at `ready`. Durations are borrowed so a caller replaying a
/// precomputed decomposition pays no allocation per wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRequest<'a> {
    /// The target reservation queue.
    pub queue: usize,
    /// When the first slot's work becomes ready.
    pub ready: Timestamp,
    /// Slot durations, chained back to back.
    pub durations: &'a [TimeDelta],
}

/// The shared accounting API of per-queue reservation trackers.
///
/// The unified execution engine (`ev_edge::exec`) is written against this
/// trait so a caller can wrap the [`DeviceTimeline`] it dispatches onto
/// (e.g. to time or count reservations) without touching the engine.
pub trait ReservationTimeline {
    /// Number of reservation queues.
    fn queues(&self) -> usize;

    /// Earliest time work ready at `ready` can start on `queue`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidQueue`] for out-of-range queues.
    fn earliest_start(&self, queue: usize, ready: Timestamp) -> Result<Timestamp, PlatformError>;

    /// Reserves `queue` for `[start, start + duration)`; returns the end.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidQueue`] for out-of-range queues, or
    /// [`PlatformError::ReservationConflict`] when `start` precedes the
    /// queue's free time.
    fn reserve(
        &mut self,
        queue: usize,
        start: Timestamp,
        duration: TimeDelta,
    ) -> Result<Timestamp, PlatformError>;

    /// Busy time accumulated on `queue`.
    fn busy_time(&self, queue: usize) -> TimeDelta;

    /// Jobs completed on `queue` (zero where the implementation does
    /// not track completion counts).
    fn completed_jobs(&self, _queue: usize) -> u64 {
        0
    }

    /// Reserves `queue` at the earliest feasible start for work ready at
    /// `ready`; returns `(start, end)`.
    ///
    /// # Errors
    ///
    /// Propagates [`ReservationTimeline::earliest_start`] /
    /// [`ReservationTimeline::reserve`] errors.
    fn reserve_next(
        &mut self,
        queue: usize,
        ready: Timestamp,
        duration: TimeDelta,
    ) -> Result<(Timestamp, Timestamp), PlatformError> {
        let start = self.earliest_start(queue, ready)?;
        let end = self.reserve(queue, start, duration)?;
        Ok((start, end))
    }

    /// Reserves `durations.len()` back-to-back slots on `queue`: the
    /// first at the earliest feasible start for work ready at `ready`,
    /// each subsequent slot exactly when its predecessor ends. Returns
    /// every slot's `(start, end)`.
    ///
    /// This is the batching entry point for dependency *chains* that
    /// stay on one queue (e.g. consecutive network layers mapped to the
    /// same processing element): the result is identical to calling
    /// [`ReservationTimeline::reserve_next`] once per slot, in one call.
    ///
    /// # Errors
    ///
    /// Propagates [`ReservationTimeline::reserve_next`] errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use ev_platform::timeline::DeviceTimeline;
    /// use ev_platform::ReservationTimeline;
    /// use ev_core::{TimeDelta, Timestamp};
    ///
    /// # fn main() -> Result<(), ev_platform::PlatformError> {
    /// let mut tl = DeviceTimeline::new(1);
    /// let slots = tl.reserve_run(
    ///     0,
    ///     Timestamp::from_millis(5),
    ///     &[TimeDelta::from_millis(10), TimeDelta::from_millis(3)],
    /// )?;
    /// assert_eq!(slots[0], (Timestamp::from_millis(5), Timestamp::from_millis(15)));
    /// assert_eq!(slots[1], (Timestamp::from_millis(15), Timestamp::from_millis(18)));
    /// # Ok(())
    /// # }
    /// ```
    fn reserve_run(
        &mut self,
        queue: usize,
        ready: Timestamp,
        durations: &[TimeDelta],
    ) -> Result<Vec<(Timestamp, Timestamp)>, PlatformError> {
        let mut slots = Vec::with_capacity(durations.len());
        let mut next_ready = ready;
        for &duration in durations {
            let slot = self.reserve_next(queue, next_ready, duration)?;
            next_ready = slot.1;
            slots.push(slot);
        }
        Ok(slots)
    }

    /// Reserves a *wave* of independent run chains — one
    /// [`RunRequest`] per chain, each the equivalent of a
    /// [`ReservationTimeline::reserve_run`] call — and returns every
    /// chain's slots, in request order.
    ///
    /// The result is identical to issuing the requests sequentially:
    /// requests targeting the *same* queue are applied in request
    /// order, and requests targeting different queues are independent
    /// (a FIFO queue's reservations depend only on its own history and
    /// each request's ready time).
    ///
    /// # Errors
    ///
    /// Propagates [`ReservationTimeline::reserve_run`] errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use ev_platform::timeline::{DeviceTimeline, RunRequest};
    /// use ev_platform::ReservationTimeline;
    /// use ev_core::{TimeDelta, Timestamp};
    ///
    /// # fn main() -> Result<(), ev_platform::PlatformError> {
    /// let mut tl = DeviceTimeline::new(2);
    /// // Two independent chains on different queues in one wave.
    /// let waves = tl.reserve_runs(&[
    ///     RunRequest { queue: 0, ready: Timestamp::ZERO, durations: &[TimeDelta::from_millis(4)] },
    ///     RunRequest { queue: 1, ready: Timestamp::ZERO, durations: &[TimeDelta::from_millis(7)] },
    /// ])?;
    /// assert_eq!(waves[0][0].1, Timestamp::from_millis(4));
    /// assert_eq!(waves[1][0].1, Timestamp::from_millis(7));
    /// # Ok(())
    /// # }
    /// ```
    fn reserve_runs(
        &mut self,
        requests: &[RunRequest<'_>],
    ) -> Result<Vec<Vec<(Timestamp, Timestamp)>>, PlatformError> {
        requests
            .iter()
            .map(|r| self.reserve_run(r.queue, r.ready, r.durations))
            .collect()
    }

    /// Utilization of `queue` over `[0, horizon)`.
    fn utilization(&self, queue: usize, horizon: TimeDelta) -> f64 {
        if horizon.as_micros() <= 0 {
            return 0.0;
        }
        self.busy_time(queue).as_secs_f64() / horizon.as_secs_f64()
    }

    /// Per-queue utilizations over `[0, horizon)`.
    fn utilizations(&self, horizon: TimeDelta) -> Vec<f64> {
        (0..self.queues())
            .map(|q| self.utilization(q, horizon))
            .collect()
    }

    /// Busy time summed over every queue.
    fn total_busy(&self) -> TimeDelta {
        (0..self.queues()).fold(TimeDelta::ZERO, |acc, q| acc + self.busy_time(q))
    }
}

/// Per-queue reservation tracker in simulated time.
///
/// # Examples
///
/// ```
/// use ev_platform::timeline::DeviceTimeline;
/// use ev_platform::ReservationTimeline;
/// use ev_core::{TimeDelta, Timestamp};
///
/// # fn main() -> Result<(), ev_platform::PlatformError> {
/// let mut tl = DeviceTimeline::new(2);
/// let t0 = Timestamp::from_millis(10);
/// let start = tl.earliest_start(0, t0)?;
/// assert_eq!(start, t0);
/// tl.reserve(0, start, TimeDelta::from_millis(5))?;
/// assert_eq!(tl.earliest_start(0, t0)?, Timestamp::from_millis(15));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTimeline {
    free_at: Vec<Timestamp>,
    busy: Vec<TimeDelta>,
    completed: Vec<u64>,
}

impl DeviceTimeline {
    /// A timeline with `queues` idle devices.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "timeline needs at least one queue");
        DeviceTimeline {
            free_at: vec![Timestamp::ZERO; queues],
            busy: vec![TimeDelta::ZERO; queues],
            completed: vec![0; queues],
        }
    }
}

impl ReservationTimeline for DeviceTimeline {
    fn queues(&self) -> usize {
        self.free_at.len()
    }

    fn earliest_start(&self, queue: usize, ready: Timestamp) -> Result<Timestamp, PlatformError> {
        let free = self.free_at.get(queue).ok_or(PlatformError::InvalidQueue {
            node: 0,
            queue,
            queues: self.free_at.len(),
        })?;
        Ok(ready.max(*free))
    }

    fn reserve(
        &mut self,
        queue: usize,
        start: Timestamp,
        duration: TimeDelta,
    ) -> Result<Timestamp, PlatformError> {
        let queues = self.free_at.len();
        let free = self
            .free_at
            .get_mut(queue)
            .ok_or(PlatformError::InvalidQueue {
                node: 0,
                queue,
                queues,
            })?;
        if start < *free {
            return Err(PlatformError::ReservationConflict {
                queue,
                requested: start,
                free_at: *free,
            });
        }
        let end = start + duration;
        *free = end;
        self.busy[queue] += duration;
        self.completed[queue] += 1;
        Ok(end)
    }

    fn busy_time(&self, queue: usize) -> TimeDelta {
        self.busy.get(queue).copied().unwrap_or(TimeDelta::ZERO)
    }

    fn completed_jobs(&self, queue: usize) -> u64 {
        self.completed.get(queue).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn reservations_serialize() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(0, ms(0), TimeDelta::from_millis(10)).unwrap();
        assert_eq!(tl.earliest_start(0, ms(2)).unwrap(), ms(10));
        let end = tl.reserve(0, ms(10), TimeDelta::from_millis(5)).unwrap();
        assert_eq!(end, ms(15));
        assert_eq!(tl.completed_jobs(0), 2);
    }

    #[test]
    fn conflict_detected() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(0, ms(0), TimeDelta::from_millis(10)).unwrap();
        assert!(matches!(
            tl.reserve(0, ms(5), TimeDelta::from_millis(1)),
            Err(PlatformError::ReservationConflict { .. })
        ));
    }

    #[test]
    fn utilization_accounting() {
        let mut tl = DeviceTimeline::new(1);
        tl.reserve(0, ms(0), TimeDelta::from_millis(25)).unwrap();
        let u = tl.utilization(0, TimeDelta::from_millis(100));
        assert!((u - 0.25).abs() < 1e-9);
        assert_eq!(tl.utilization(0, TimeDelta::ZERO), 0.0);
        // The timeline counts completions; the trait's count defaults to
        // zero for trackers that do not.
        assert_eq!(tl.completed_jobs(0), 1);
        struct NoCounts;
        impl ReservationTimeline for NoCounts {
            fn queues(&self) -> usize {
                1
            }
            fn earliest_start(
                &self,
                _queue: usize,
                ready: Timestamp,
            ) -> Result<Timestamp, PlatformError> {
                Ok(ready)
            }
            fn reserve(
                &mut self,
                _queue: usize,
                start: Timestamp,
                duration: TimeDelta,
            ) -> Result<Timestamp, PlatformError> {
                Ok(start + duration)
            }
            fn busy_time(&self, _queue: usize) -> TimeDelta {
                TimeDelta::ZERO
            }
        }
        assert_eq!(ReservationTimeline::completed_jobs(&NoCounts, 0), 0);
    }

    #[test]
    fn invalid_queue_errors() {
        let tl = DeviceTimeline::new(1);
        assert!(tl.earliest_start(3, ms(0)).is_err());
    }

    #[test]
    fn reserve_run_matches_per_slot_reservations() {
        let durations = [
            TimeDelta::from_millis(4),
            TimeDelta::from_millis(1),
            TimeDelta::from_millis(7),
        ];
        let mut run_tl = DeviceTimeline::new(1);
        // A prior reservation so the run starts behind existing work.
        run_tl
            .reserve(0, ms(0), TimeDelta::from_millis(10))
            .unwrap();
        let slots = run_tl.reserve_run(0, ms(2), &durations).unwrap();

        let mut step_tl = DeviceTimeline::new(1);
        step_tl
            .reserve(0, ms(0), TimeDelta::from_millis(10))
            .unwrap();
        let mut expected = Vec::new();
        let mut ready = ms(2);
        for &d in &durations {
            let slot = ReservationTimeline::reserve_next(&mut step_tl, 0, ready, d).unwrap();
            ready = slot.1;
            expected.push(slot);
        }
        assert_eq!(slots, expected);
        assert_eq!(run_tl, step_tl);
        assert!(run_tl.reserve_run(0, ms(0), &[]).unwrap().is_empty());
    }

    #[test]
    fn reserve_runs_matches_sequential_reserve_run() {
        let d = |v: i64| TimeDelta::from_millis(v);
        let chain0 = [d(4), d(1)];
        let chain1 = [d(7)];
        let chain2 = [d(2)];
        let requests = [
            RunRequest {
                queue: 0,
                ready: ms(2),
                durations: &chain0,
            },
            RunRequest {
                queue: 1,
                ready: ms(0),
                durations: &chain1,
            },
            // Second chain on queue 0 inside the same wave: applied
            // after the first, exactly as a sequential caller would.
            RunRequest {
                queue: 0,
                ready: ms(3),
                durations: &chain2,
            },
        ];
        let mut wave_tl = DeviceTimeline::new(2);
        let waves = wave_tl.reserve_runs(&requests).unwrap();

        let mut step_tl = DeviceTimeline::new(2);
        let expected: Vec<_> = requests
            .iter()
            .map(|r| step_tl.reserve_run(r.queue, r.ready, r.durations).unwrap())
            .collect();
        assert_eq!(waves, expected);
        assert_eq!(wave_tl, step_tl);
        // Queue-0 chains serialized: the wave's later chain starts when
        // the earlier one ends.
        assert_eq!(waves[2][0].0, waves[0][1].1);

        let empty: Vec<RunRequest<'_>> = Vec::new();
        assert!(wave_tl.reserve_runs(&empty).unwrap().is_empty());
        let bad_chain = [d(1)];
        assert!(wave_tl
            .reserve_runs(&[RunRequest {
                queue: 9,
                ready: ms(0),
                durations: &bad_chain,
            }])
            .is_err());
    }
}
