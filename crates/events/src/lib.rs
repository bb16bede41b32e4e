//! # ev-core — event-stream substrate for the Ev-Edge reproduction
//!
//! This crate provides everything upstream of the Ev-Edge runtime: the
//! Address Event Representation ([`event::Event`]), validated time-ordered
//! event batches ([`stream::EventSlice`]), a fast statistical stream
//! synthesizer ([`generator`]), and the stream statistics the paper plots
//! ([`stats`]).
//!
//! The paper (Ev-Edge, DAC 2024) evaluates on DAVIS recordings from the
//! MVSEC dataset; this crate is the substitution substrate that produces
//! streams with matching spatio-temporal statistics.
//!
//! ## Example
//!
//! ```
//! use ev_core::event::SensorGeometry;
//! use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
//! use ev_core::time::{TimeWindow, Timestamp};
//!
//! # fn main() -> Result<(), ev_core::EventError> {
//! // 20k events/s on a 32×32 crop, clustered like MVSEC indoor_flying1.
//! let mut generator = StatisticalGenerator::new(
//!     SensorGeometry::new(32, 32),
//!     RateProfile::Constant(20_000.0),
//!     SpatialModel::Blobs {
//!         count: 16,
//!         sigma: 13.0,
//!         drift: 80.0,
//!     },
//!     0x1F1,
//! );
//! let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(100));
//! let events = generator.generate(window)?;
//! // ≈ 2000 events in 100 ms at 20k ev/s.
//! assert!((1_800..2_200).contains(&events.len()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod generator;
pub mod stats;
pub mod stream;
pub mod time;

pub use event::{Event, Polarity, SensorGeometry};
pub use stream::EventSlice;
pub use time::{TimeDelta, TimeWindow, Timestamp};

use core::fmt;

/// Errors produced by the event substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventError {
    /// Events were not sorted by non-decreasing timestamp.
    UnsortedTimestamps {
        /// The out-of-order (earlier) timestamp.
        earlier: Timestamp,
        /// The timestamp it should not precede.
        later: Timestamp,
    },
    /// An event address fell outside the sensor.
    OutOfBounds {
        /// Event column.
        x: u16,
        /// Event row.
        y: u16,
        /// The sensor geometry that was violated.
        geometry: SensorGeometry,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::UnsortedTimestamps { earlier, later } => {
                write!(f, "event timestamps not sorted: {earlier} follows {later}")
            }
            EventError::OutOfBounds { x, y, geometry } => {
                write!(f, "event at ({x}, {y}) outside {geometry} sensor")
            }
        }
    }
}

impl std::error::Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = EventError::OutOfBounds {
            x: 400,
            y: 2,
            geometry: SensorGeometry::DAVIS346,
        };
        let msg = err.to_string();
        assert!(msg.contains("400"));
        assert!(msg.contains("346x260"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EventError>();
    }
}
