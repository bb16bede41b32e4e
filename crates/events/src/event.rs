//! The Address Event Representation (AER) event type and sensor geometry.
//!
//! An event camera emits an asynchronous stream of [`Event`]s. Each event is
//! a `{x, y, t, p}` tuple: the pixel address, the microsecond timestamp, and
//! the [`Polarity`] of the log-intensity change (paper §2).

use crate::time::Timestamp;
use core::fmt;

/// Sign of a brightness (log-intensity) change.
///
/// # Examples
///
/// ```
/// use ev_core::event::Polarity;
///
/// assert_eq!(Polarity::On.sign(), 1);
/// assert_eq!(Polarity::Off.sign(), -1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Polarity {
    /// Brightness increased (positive polarity).
    On,
    /// Brightness decreased (negative polarity).
    Off,
}

impl Polarity {
    /// `+1` for [`Polarity::On`], `-1` for [`Polarity::Off`].
    #[inline]
    pub const fn sign(self) -> i8 {
        match self {
            Polarity::On => 1,
            Polarity::Off => -1,
        }
    }

    /// Channel index used by two-channel sparse frames: `On → 0`, `Off → 1`.
    #[inline]
    pub const fn channel(self) -> usize {
        match self {
            Polarity::On => 0,
            Polarity::Off => 1,
        }
    }

    /// Decodes a polarity from the conventional AER bit (`true`/1 → On).
    #[inline]
    pub const fn from_bit(bit: bool) -> Polarity {
        if bit {
            Polarity::On
        } else {
            Polarity::Off
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::On => f.write_str("+"),
            Polarity::Off => f.write_str("-"),
        }
    }
}

/// A single camera event in Address Event Representation.
///
/// # Examples
///
/// ```
/// use ev_core::event::{Event, Polarity};
/// use ev_core::time::Timestamp;
///
/// let ev = Event::new(12, 34, Timestamp::from_micros(567), Polarity::On);
/// assert_eq!(ev.x, 12);
/// assert_eq!(ev.polarity.sign(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Event {
    /// Pixel column.
    pub x: u16,
    /// Pixel row.
    pub y: u16,
    /// Event timestamp.
    pub t: Timestamp,
    /// Sign of the brightness change.
    pub polarity: Polarity,
}

impl Event {
    /// Creates an event.
    #[inline]
    pub const fn new(x: u16, y: u16, t: Timestamp, polarity: Polarity) -> Self {
        Event { x, y, t, polarity }
    }

    /// Whether this event's pixel address lies inside `geometry`.
    #[inline]
    pub fn in_bounds(&self, geometry: SensorGeometry) -> bool {
        u32::from(self.x) < geometry.width && u32::from(self.y) < geometry.height
    }

    /// The linear pixel index (`y * width + x`) under `geometry`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the event is out of bounds.
    #[inline]
    pub fn pixel_index(&self, geometry: SensorGeometry) -> usize {
        debug_assert!(self.in_bounds(geometry), "event out of sensor bounds");
        self.y as usize * geometry.width as usize + self.x as usize
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.x, self.y, self.t, self.polarity)
    }
}

/// Width × height of an event sensor, in pixels.
///
/// The default is the DAVIS 346 geometry used by the MVSEC recordings
/// (346 × 260).
///
/// # Examples
///
/// ```
/// use ev_core::event::SensorGeometry;
///
/// let g = SensorGeometry::DAVIS346;
/// assert_eq!(g.pixel_count(), 346 * 260);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SensorGeometry {
    /// Sensor width in pixels.
    pub width: u32,
    /// Sensor height in pixels.
    pub height: u32,
}

impl SensorGeometry {
    /// DAVIS 346 (MVSEC): 346 × 260.
    pub const DAVIS346: SensorGeometry = SensorGeometry {
        width: 346,
        height: 260,
    };

    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds `u16::MAX + 1`
    /// (event coordinates are `u16`).
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "sensor dimensions must be nonzero");
        assert!(
            width <= 1 << 16 && height <= 1 << 16,
            "sensor dimensions exceed event coordinate range"
        );
        SensorGeometry { width, height }
    }

    /// Total number of pixels.
    #[inline]
    pub const fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Whether `(x, y)` is a valid pixel address.
    #[inline]
    pub const fn contains(&self, x: u16, y: u16) -> bool {
        (x as u32) < self.width && (y as u32) < self.height
    }
}

impl Default for SensorGeometry {
    fn default() -> Self {
        SensorGeometry::DAVIS346
    }
}

impl fmt::Display for SensorGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_sign_and_channel() {
        assert_eq!(Polarity::On.sign(), 1);
        assert_eq!(Polarity::Off.sign(), -1);
        assert_eq!(Polarity::On.channel(), 0);
        assert_eq!(Polarity::Off.channel(), 1);
    }

    #[test]
    fn polarity_bit_round_trip() {
        assert_eq!(Polarity::from_bit(true), Polarity::On);
        assert_eq!(Polarity::from_bit(false), Polarity::Off);
    }

    #[test]
    fn event_bounds_and_index() {
        let g = SensorGeometry::new(4, 3);
        let ev = Event::new(3, 2, Timestamp::ZERO, Polarity::On);
        assert!(ev.in_bounds(g));
        assert_eq!(ev.pixel_index(g), 2 * 4 + 3);
        let out = Event::new(4, 0, Timestamp::ZERO, Polarity::On);
        assert!(!out.in_bounds(g));
    }

    #[test]
    fn geometry_presets() {
        assert_eq!(SensorGeometry::DAVIS346.pixel_count(), 89_960);
        assert_eq!(SensorGeometry::default(), SensorGeometry::DAVIS346);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn geometry_rejects_zero() {
        let _ = SensorGeometry::new(0, 5);
    }
}
