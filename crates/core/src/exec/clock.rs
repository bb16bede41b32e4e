//! Discrete-event clock for the unified execution engine.
//!
//! Every runtime driver — single-task, multi-task periodic, multi-task
//! streaming — reduces to the same shape: a time-ordered sequence of
//! arrival events feeding per-task queues. [`EventClock`] owns that
//! ordering: events are scheduled at absolute simulated timestamps and
//! popped in `(time, payload)` order, with payload `Ord` as the
//! deterministic tie-break (lower task index first, matching the serial
//! engines this module replaced).
//!
//! # Examples
//!
//! ```
//! use ev_core::Timestamp;
//! use ev_edge::exec::clock::EventClock;
//!
//! let mut clock = EventClock::new(Timestamp::ZERO);
//! clock.schedule(Timestamp::from_millis(8), 1usize);
//! clock.schedule(Timestamp::from_millis(3), 0);
//! clock.schedule(Timestamp::from_millis(8), 0); // same instant: task 0 first
//! assert_eq!(clock.next_event(), Some((Timestamp::from_millis(3), 0)));
//! assert_eq!(clock.next_event(), Some((Timestamp::from_millis(8), 0)));
//! assert_eq!(clock.next_event(), Some((Timestamp::from_millis(8), 1)));
//! assert_eq!(clock.now(), Timestamp::from_millis(8));
//! ```

use ev_core::Timestamp;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered queue of pending simulation events.
#[derive(Debug, Clone)]
pub struct EventClock<T: Ord> {
    heap: BinaryHeap<Reverse<(Timestamp, T)>>,
    now: Timestamp,
}

impl<T: Ord> EventClock<T> {
    /// A clock starting at `start`.
    pub fn new(start: Timestamp) -> Self {
        EventClock {
            heap: BinaryHeap::new(),
            now: start,
        }
    }

    /// The current simulated time (the timestamp of the last popped
    /// event, or the start time).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Schedules `item` to fire at `at`.
    ///
    /// Scheduling before [`EventClock::now`] is allowed (drivers often
    /// precompute arrival times); such events fire immediately on the
    /// next pop without rewinding the clock.
    pub fn schedule(&mut self, at: Timestamp, item: T) {
        self.heap.push(Reverse((at, item)));
    }

    /// Pops the earliest pending event and advances the clock to it.
    pub fn next_event(&mut self) -> Option<(Timestamp, T)> {
        let Reverse((at, item)) = self.heap.pop()?;
        self.now = self.now.max(at);
        Some((at, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut clock = EventClock::new(Timestamp::ZERO);
        clock.schedule(ms(30), 0usize);
        clock.schedule(ms(10), 1);
        clock.schedule(ms(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| clock.next_event()).collect();
        assert_eq!(order, vec![(ms(10), 1), (ms(20), 2), (ms(30), 0)]);
    }

    #[test]
    fn ties_break_on_payload_order() {
        let mut clock = EventClock::new(Timestamp::ZERO);
        clock.schedule(ms(5), 2usize);
        clock.schedule(ms(5), 0);
        clock.schedule(ms(5), 1);
        let payloads: Vec<_> = std::iter::from_fn(|| clock.next_event())
            .map(|(_, p)| p)
            .collect();
        assert_eq!(payloads, vec![0, 1, 2]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = EventClock::new(ms(10));
        assert_eq!(clock.now(), ms(10));
        clock.schedule(ms(5), 0usize); // before start: fires, no rewind
        clock.schedule(ms(25), 1);
        assert_eq!(clock.next_event(), Some((ms(5), 0)));
        assert_eq!(clock.now(), ms(10));
        assert_eq!(clock.next_event(), Some((ms(25), 1)));
        assert_eq!(clock.now(), ms(25));
        assert_eq!(clock.next_event(), None);
    }

    #[test]
    fn interleaved_scheduling_keeps_order() {
        // The periodic-arrival pattern: pop one, push its successor.
        let mut clock = EventClock::new(Timestamp::ZERO);
        clock.schedule(ms(4), 0usize);
        clock.schedule(ms(6), 1);
        let mut fired = Vec::new();
        while let Some((at, task)) = clock.next_event() {
            fired.push((at, task));
            if fired.len() < 6 {
                let period = if task == 0 { 4 } else { 6 };
                clock.schedule(at + ev_core::TimeDelta::from_millis(period), task);
            }
        }
        assert_eq!(
            fired,
            vec![
                (ms(4), 0),
                (ms(6), 1),
                (ms(8), 0),
                (ms(12), 0),
                (ms(12), 1),
                (ms(16), 0),
                (ms(18), 1),
            ]
        );
    }
}
