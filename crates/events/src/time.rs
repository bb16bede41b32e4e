//! Time types for event streams.
//!
//! Event cameras timestamp events with microsecond resolution (the MVSEC
//! recordings used by the paper store microsecond timestamps), so the whole
//! workspace measures time in integer microseconds. [`Timestamp`] is an
//! absolute instant on a sequence's clock and [`TimeDelta`] is a signed
//! difference between two instants.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute instant in microseconds since the start of a sequence.
///
/// # Examples
///
/// ```
/// use ev_core::time::{Timestamp, TimeDelta};
///
/// let t = Timestamp::from_micros(1_500);
/// assert_eq!(t + TimeDelta::from_millis(1), Timestamp::from_micros(2_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (start of a sequence).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The maximum representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from a microsecond count.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from a millisecond count.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Creates a timestamp from a second count.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Creates a timestamp from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        Timestamp((secs.max(0.0) * 1e6).round() as u64)
    }

    /// This instant as a microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`, returning a non-negative delta.
    #[inline]
    pub fn saturating_since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0) as i64)
    }

    /// Checked addition of a delta; `None` on overflow or when the result
    /// would be negative.
    #[inline]
    pub fn checked_add(self, delta: TimeDelta) -> Option<Timestamp> {
        if delta.0 >= 0 {
            self.0.checked_add(delta.0 as u64).map(Timestamp)
        } else {
            self.0.checked_sub(delta.0.unsigned_abs()).map(Timestamp)
        }
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two timestamps.
    #[inline]
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(micros: u64) -> Self {
        Timestamp(micros)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Timestamp {
        self.checked_add(rhs)
            .expect("timestamp arithmetic overflowed")
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        self.checked_add(-rhs)
            .expect("timestamp arithmetic underflowed")
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    /// The signed difference `self - rhs`: exact whenever it fits in
    /// `i64`, otherwise saturated to `i64::MIN` or `i64::MAX` µs.
    #[inline]
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        let diff = i128::from(self.0) - i128::from(rhs.0);
        TimeDelta(diff.clamp(i64::MIN.into(), i64::MAX.into()) as i64)
    }
}

/// A signed duration in microseconds.
///
/// # Examples
///
/// ```
/// use ev_core::time::TimeDelta;
///
/// let d = TimeDelta::from_millis(2) - TimeDelta::from_micros(500);
/// assert_eq!(d.as_micros(), 1_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TimeDelta(i64);

impl TimeDelta {
    /// The zero duration.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a delta from microseconds.
    #[inline]
    pub const fn from_micros(micros: i64) -> Self {
        TimeDelta(micros)
    }

    /// Creates a delta from milliseconds.
    #[inline]
    pub const fn from_millis(millis: i64) -> Self {
        TimeDelta(millis * 1_000)
    }

    /// Creates a delta from seconds.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        TimeDelta(secs * 1_000_000)
    }

    /// Creates a delta from fractional seconds, rounding to the nearest
    /// microsecond.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        TimeDelta((secs * 1e6).round() as i64)
    }

    /// This delta in microseconds.
    #[inline]
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// This delta in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This delta in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this delta is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> TimeDelta {
        TimeDelta(self.0.abs())
    }

    /// Scales the delta by a float factor, rounding to the nearest
    /// microsecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> TimeDelta {
        TimeDelta((self.0 as f64 * factor).round() as i64)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl core::ops::Neg for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn neg(self) -> TimeDelta {
        TimeDelta(-self.0)
    }
}

/// A half-open time interval `[start, end)`.
///
/// Used to describe frame intervals (the `Tstart`/`Tend` of a grayscale frame
/// pair in the paper's Equation 1) and analysis windows.
///
/// # Examples
///
/// ```
/// use ev_core::time::{TimeWindow, Timestamp};
///
/// let w = TimeWindow::new(Timestamp::from_millis(10), Timestamp::from_millis(20));
/// assert!(w.contains(Timestamp::from_millis(15)));
/// assert!(!w.contains(Timestamp::from_millis(20)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TimeWindow {
    start: Timestamp,
    end: Timestamp,
}

impl TimeWindow {
    /// Creates a window `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(end >= start, "time window end precedes start");
        TimeWindow { start, end }
    }

    /// Creates a window starting at `start` lasting `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    pub fn with_duration(start: Timestamp, duration: TimeDelta) -> Self {
        assert!(!duration.is_negative(), "time window duration is negative");
        TimeWindow::new(start, start + duration)
    }

    /// Window start (inclusive).
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Window end (exclusive).
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// Window length.
    #[inline]
    pub fn duration(&self) -> TimeDelta {
        self.end - self.start
    }

    /// Whether `t` lies inside `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Splits this window into `n` equal, contiguous sub-windows.
    ///
    /// The final sub-window absorbs any rounding remainder so that the
    /// sub-windows exactly tile `self`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn split(&self, n: usize) -> Vec<TimeWindow> {
        assert!(n > 0, "cannot split a window into zero parts");
        let total = self.duration().as_micros() as u64;
        let step = total / n as u64;
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let s = self.start + TimeDelta::from_micros((k as u64 * step) as i64);
            let e = if k + 1 == n {
                self.end
            } else {
                self.start + TimeDelta::from_micros(((k as u64 + 1) * step) as i64)
            };
            out.push(TimeWindow::new(s, e));
        }
        out
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_round_trips_units() {
        assert_eq!(Timestamp::from_millis(3).as_micros(), 3_000);
        assert_eq!(Timestamp::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Timestamp::from_secs_f64(0.0015).as_micros(), 1_500);
        assert_eq!(Timestamp::from_micros(2_500).as_millis_f64(), 2.5);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_micros(100);
        assert_eq!(t + TimeDelta::from_micros(50), Timestamp::from_micros(150));
        assert_eq!(t - TimeDelta::from_micros(40), Timestamp::from_micros(60));
        assert_eq!(Timestamp::from_micros(150) - t, TimeDelta::from_micros(50));
        assert_eq!(t - Timestamp::from_micros(150), TimeDelta::from_micros(-50));
    }

    #[test]
    fn timestamp_difference_straddling_2_pow_63_is_exact() {
        let above = Timestamp::from_micros(1 << 63);
        let below = Timestamp::from_micros((1 << 63) - 5);
        assert_eq!(above - below, TimeDelta::from_micros(5));
        assert_eq!(below - above, TimeDelta::from_micros(-5));
        // -2^63 fits exactly.
        assert_eq!(Timestamp::ZERO - above, TimeDelta::from_micros(i64::MIN));
    }

    #[test]
    fn timestamp_difference_saturates_both_ways() {
        let at = Timestamp::from_micros;
        let max = TimeDelta::from_micros(i64::MAX);
        let min = TimeDelta::from_micros(i64::MIN);
        // `i64::MAX` itself fits; one more saturates.
        assert_eq!(at(i64::MAX as u64) - Timestamp::ZERO, max);
        assert_eq!(at(1 << 63) - Timestamp::ZERO, max);
        assert_eq!(Timestamp::MAX - Timestamp::ZERO, max);
        assert_eq!(Timestamp::ZERO - at((1 << 63) + 1), min);
        assert_eq!(Timestamp::ZERO - Timestamp::MAX, min);
    }

    #[test]
    fn full_range_window_duration_saturates() {
        let w = TimeWindow::new(Timestamp::ZERO, Timestamp::MAX);
        assert_eq!(w.duration(), TimeDelta::from_micros(i64::MAX));
    }

    #[test]
    fn timestamp_saturating_since_clamps() {
        let early = Timestamp::from_micros(10);
        let late = Timestamp::from_micros(30);
        assert_eq!(late.saturating_since(early).as_micros(), 20);
        assert_eq!(early.saturating_since(late).as_micros(), 0);
    }

    #[test]
    fn checked_add_detects_underflow() {
        let t = Timestamp::from_micros(5);
        assert_eq!(t.checked_add(TimeDelta::from_micros(-6)), None);
        assert_eq!(
            t.checked_add(TimeDelta::from_micros(-5)),
            Some(Timestamp::ZERO)
        );
    }

    #[test]
    fn delta_scaling() {
        let d = TimeDelta::from_millis(10);
        assert_eq!(d.mul_f64(0.5), TimeDelta::from_millis(5));
        assert_eq!((-d).abs(), d);
        assert!((-d).is_negative());
    }

    #[test]
    fn window_contains_and_duration() {
        let w = TimeWindow::new(Timestamp::from_micros(10), Timestamp::from_micros(20));
        assert!(w.contains(Timestamp::from_micros(10)));
        assert!(!w.contains(Timestamp::from_micros(20)));
        assert_eq!(w.duration(), TimeDelta::from_micros(10));
    }

    #[test]
    fn window_split_tiles_exactly() {
        let w = TimeWindow::new(Timestamp::from_micros(0), Timestamp::from_micros(103));
        let parts = w.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].start(), w.start());
        assert_eq!(parts[3].end(), w.end());
        for pair in parts.windows(2) {
            assert_eq!(pair[0].end(), pair[1].start());
        }
    }

    #[test]
    #[should_panic(expected = "end precedes start")]
    fn window_rejects_inverted_bounds() {
        let _ = TimeWindow::new(Timestamp::from_micros(5), Timestamp::from_micros(1));
    }
}
