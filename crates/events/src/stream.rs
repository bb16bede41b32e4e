//! Event stream containers and utilities.
//!
//! An [`EventSlice`] is an owned, time-ordered batch of events with a known
//! sensor geometry — the unit the Ev-Edge runtime ingests. Utilities cover
//! validation, time-slicing (used by E2SF binning), merging of concurrent
//! streams, and polarity counting.

use crate::event::{Event, Polarity, SensorGeometry};
use crate::time::{TimeWindow, Timestamp};
use crate::EventError;
use core::fmt;

/// An owned, time-ordered batch of events tied to a sensor geometry.
///
/// Invariants (enforced by [`EventSlice::new`]):
/// * events are sorted by non-decreasing timestamp;
/// * every event address lies within the geometry.
///
/// # Examples
///
/// ```
/// use ev_core::event::{Event, Polarity, SensorGeometry};
/// use ev_core::stream::EventSlice;
/// use ev_core::time::Timestamp;
///
/// # fn main() -> Result<(), ev_core::EventError> {
/// let g = SensorGeometry::new(8, 8);
/// let events = vec![
///     Event::new(1, 1, Timestamp::from_micros(5), Polarity::On),
///     Event::new(2, 3, Timestamp::from_micros(9), Polarity::Off),
/// ];
/// let slice = EventSlice::new(g, events)?;
/// assert_eq!(slice.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSlice {
    geometry: SensorGeometry,
    events: Vec<Event>,
}

impl EventSlice {
    /// Creates a slice, validating ordering and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::UnsortedTimestamps`] if events are not sorted by
    /// non-decreasing timestamp, or [`EventError::OutOfBounds`] if any event
    /// address falls outside `geometry`.
    pub fn new(geometry: SensorGeometry, events: Vec<Event>) -> Result<Self, EventError> {
        for pair in events.windows(2) {
            if pair[1].t < pair[0].t {
                return Err(EventError::UnsortedTimestamps {
                    earlier: pair[1].t,
                    later: pair[0].t,
                });
            }
        }
        if let Some(ev) = events.iter().find(|e| !e.in_bounds(geometry)) {
            return Err(EventError::OutOfBounds {
                x: ev.x,
                y: ev.y,
                geometry,
            });
        }
        Ok(EventSlice { geometry, events })
    }

    /// Creates a slice from unsorted events by sorting them (stable) first.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::OutOfBounds`] if any event address falls outside
    /// `geometry`.
    pub fn from_unsorted(
        geometry: SensorGeometry,
        mut events: Vec<Event>,
    ) -> Result<Self, EventError> {
        events.sort_by_key(|e| e.t);
        EventSlice::new(geometry, events)
    }

    /// An empty slice for `geometry`.
    pub fn empty(geometry: SensorGeometry) -> Self {
        EventSlice {
            geometry,
            events: Vec::new(),
        }
    }

    /// The sensor geometry.
    #[inline]
    pub fn geometry(&self) -> SensorGeometry {
        self.geometry
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the slice holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> core::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Timestamp of the first event, if any.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.events.first().map(|e| e.t)
    }

    /// Timestamp of the last event, if any.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.events.last().map(|e| e.t)
    }

    /// The tight `[first, last_event_time + 1us)` window covering all events,
    /// or `None` when empty.
    pub fn span(&self) -> Option<TimeWindow> {
        match (self.first_timestamp(), self.last_timestamp()) {
            (Some(a), Some(b)) => Some(TimeWindow::new(
                a,
                b + crate::time::TimeDelta::from_micros(1),
            )),
            _ => None,
        }
    }

    /// Returns the contiguous sub-slice of events with `t ∈ [window.start, window.end)`.
    ///
    /// Runs in `O(log n)` via binary search thanks to the ordering invariant.
    pub fn window(&self, window: TimeWindow) -> &[Event] {
        let lo = self.events.partition_point(|e| e.t < window.start());
        let hi = self.events.partition_point(|e| e.t < window.end());
        &self.events[lo..hi]
    }

    /// Counts events of each polarity, returning `(on, off)`.
    pub fn polarity_counts(&self) -> (usize, usize) {
        let on = self
            .events
            .iter()
            .filter(|e| e.polarity == Polarity::On)
            .count();
        (on, self.events.len() - on)
    }

    /// Merges two time-ordered slices into one time-ordered slice.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::GeometryMismatch`] if the slices come from
    /// different sensor geometries.
    pub fn merge(&self, other: &EventSlice) -> Result<EventSlice, EventError> {
        if self.geometry != other.geometry {
            return Err(EventError::GeometryMismatch {
                left: self.geometry,
                right: other.geometry,
            });
        }
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.events.len() && j < other.events.len() {
            if self.events[i].t <= other.events[j].t {
                merged.push(self.events[i]);
                i += 1;
            } else {
                merged.push(other.events[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.events[i..]);
        merged.extend_from_slice(&other.events[j..]);
        Ok(EventSlice {
            geometry: self.geometry,
            events: merged,
        })
    }

    /// Fraction of distinct pixels that fired at least once, in `[0, 1]`.
    ///
    /// This is the "percentage of events in an event frame" statistic from
    /// the paper's Figures 1 and 3 (spatial fill ratio).
    pub fn fill_ratio(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        let mut seen = vec![false; self.geometry.pixel_count()];
        let mut distinct = 0usize;
        for ev in &self.events {
            let idx = ev.pixel_index(self.geometry);
            if !seen[idx] {
                seen[idx] = true;
                distinct += 1;
            }
        }
        distinct as f64 / self.geometry.pixel_count() as f64
    }
}

impl fmt::Display for EventSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EventSlice({} events on {} sensor)",
            self.events.len(),
            self.geometry
        )
    }
}

impl<'a> IntoIterator for &'a EventSlice {
    type Item = &'a Event;
    type IntoIter = core::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    fn ev(x: u16, y: u16, t: u64, p: Polarity) -> Event {
        Event::new(x, y, Timestamp::from_micros(t), p)
    }

    fn slice(events: Vec<Event>) -> EventSlice {
        EventSlice::new(SensorGeometry::new(16, 16), events).expect("valid slice")
    }

    #[test]
    fn rejects_unsorted() {
        let g = SensorGeometry::new(8, 8);
        let events = vec![ev(0, 0, 10, Polarity::On), ev(0, 0, 5, Polarity::On)];
        assert!(matches!(
            EventSlice::new(g, events),
            Err(EventError::UnsortedTimestamps { .. })
        ));
    }

    #[test]
    fn rejects_out_of_bounds() {
        let g = SensorGeometry::new(8, 8);
        let events = vec![ev(8, 0, 1, Polarity::On)];
        assert!(matches!(
            EventSlice::new(g, events),
            Err(EventError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn from_unsorted_sorts() {
        let g = SensorGeometry::new(8, 8);
        let events = vec![ev(0, 0, 10, Polarity::On), ev(1, 1, 5, Polarity::Off)];
        let s = EventSlice::from_unsorted(g, events).unwrap();
        assert_eq!(s.first_timestamp().unwrap().as_micros(), 5);
        assert_eq!(s.last_timestamp().unwrap().as_micros(), 10);
    }

    #[test]
    fn window_uses_half_open_bounds() {
        let s = slice(vec![
            ev(0, 0, 0, Polarity::On),
            ev(1, 0, 5, Polarity::On),
            ev(2, 0, 10, Polarity::On),
        ]);
        let w = TimeWindow::new(Timestamp::from_micros(0), Timestamp::from_micros(10));
        let got = s.window(w);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].x, 1);
    }

    #[test]
    fn merge_preserves_order_and_count() {
        let a = slice(vec![ev(0, 0, 1, Polarity::On), ev(0, 0, 7, Polarity::On)]);
        let b = slice(vec![ev(1, 1, 3, Polarity::Off), ev(1, 1, 9, Polarity::Off)]);
        let m = a.merge(&b).unwrap();
        assert_eq!(m.len(), 4);
        let ts: Vec<u64> = m.iter().map(|e| e.t.as_micros()).collect();
        assert_eq!(ts, vec![1, 3, 7, 9]);
    }

    #[test]
    fn merge_rejects_geometry_mismatch() {
        let a = slice(vec![]);
        let b = EventSlice::empty(SensorGeometry::new(4, 4));
        assert!(matches!(
            a.merge(&b),
            Err(EventError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn fill_ratio_counts_distinct_pixels() {
        let s = slice(vec![
            ev(0, 0, 1, Polarity::On),
            ev(0, 0, 2, Polarity::Off), // same pixel twice
            ev(1, 0, 3, Polarity::On),
        ]);
        let expected = 2.0 / 256.0;
        assert!((s.fill_ratio() - expected).abs() < 1e-12);
        assert_eq!(
            EventSlice::empty(SensorGeometry::new(4, 4)).fill_ratio(),
            0.0
        );
    }

    #[test]
    fn polarity_filters_and_counts() {
        let s = slice(vec![
            ev(0, 0, 1, Polarity::On),
            ev(1, 0, 2, Polarity::Off),
            ev(2, 0, 3, Polarity::On),
        ]);
        assert_eq!(s.polarity_counts(), (2, 1));
    }

    #[test]
    fn span_covers_all_events() {
        let s = slice(vec![ev(0, 0, 4, Polarity::On), ev(0, 0, 9, Polarity::On)]);
        let span = s.span().unwrap();
        assert_eq!(span.start(), Timestamp::from_micros(4));
        assert_eq!(span.duration(), TimeDelta::from_micros(6));
        assert!(EventSlice::empty(SensorGeometry::new(2, 2))
            .span()
            .is_none());
    }
}
