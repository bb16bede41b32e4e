//! MVSEC-like and DENSE-like synthetic sequences.
//!
//! **Substitution note**: the paper evaluates on the Multi Vehicle
//! Stereo Event Camera dataset (indoor flying / outdoor
//! driving sequences, DAVIS 346) and the DENSE Town 10 sequence. This
//! module defines statistical sequence profiles calibrated to the
//! statistics the paper reports: event-frame fill ratios spanning
//! 0.15%–28.57% across network input representations (Figure 3) and the
//! bursty temporal density of `indoorflying` segments (Figure 5).

use core::fmt;
use ev_core::event::SensorGeometry;
use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
use ev_core::stream::EventSlice;
use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
use ev_core::EventError;

/// A named synthetic sequence with calibrated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SequenceId {
    /// MVSEC `indoor_flying1`: moderate drone flight, bursty.
    IndoorFlying1,
    /// MVSEC `indoor_flying2`: aggressive flight, the Figure 5 segment.
    IndoorFlying2,
    /// MVSEC `indoor_flying3`: slow hover segments.
    IndoorFlying3,
    /// MVSEC `outdoor_day1`: daytime driving, high sustained rate.
    OutdoorDay1,
    /// MVSEC `outdoor_night1`: night driving, dominated by light sources.
    OutdoorNight1,
    /// DENSE `town10`: synthetic (CARLA) driving for depth estimation.
    DenseTown10,
}

impl SequenceId {
    /// All sequences.
    pub const ALL: [SequenceId; 6] = [
        SequenceId::IndoorFlying1,
        SequenceId::IndoorFlying2,
        SequenceId::IndoorFlying3,
        SequenceId::OutdoorDay1,
        SequenceId::OutdoorNight1,
        SequenceId::DenseTown10,
    ];

    /// Canonical sequence name.
    pub fn name(self) -> &'static str {
        match self {
            SequenceId::IndoorFlying1 => "indoor_flying1",
            SequenceId::IndoorFlying2 => "indoor_flying2",
            SequenceId::IndoorFlying3 => "indoor_flying3",
            SequenceId::OutdoorDay1 => "outdoor_day1",
            SequenceId::OutdoorNight1 => "outdoor_night1",
            SequenceId::DenseTown10 => "dense_town10",
        }
    }

    /// The calibrated sequence description.
    pub fn sequence(self) -> Sequence {
        let geometry = SensorGeometry::DAVIS346;
        match self {
            SequenceId::IndoorFlying1 => Sequence {
                id: self,
                geometry,
                profile: RateProfile::Burst {
                    base: 260_000.0,
                    burst: 1_600_000.0,
                    period: TimeDelta::from_millis(350),
                    duty: 0.28,
                },
                spatial: SpatialModel::Blobs {
                    count: 16,
                    sigma: 13.0,
                    drift: 80.0,
                },
                gray_frame_interval: TimeDelta::from_millis(20),
                seed: 0x1F1,
            },
            SequenceId::IndoorFlying2 => Sequence {
                id: self,
                geometry,
                // The Figure 5 segment: strong bursts during aggressive
                // manoeuvres over a quiet baseline.
                profile: RateProfile::Burst {
                    base: 80_000.0,
                    burst: 1_100_000.0,
                    period: TimeDelta::from_millis(500),
                    duty: 0.22,
                },
                spatial: SpatialModel::Blobs {
                    count: 10,
                    sigma: 9.0,
                    drift: 140.0,
                },
                gray_frame_interval: TimeDelta::from_millis(20),
                seed: 0x1F2,
            },
            SequenceId::IndoorFlying3 => Sequence {
                id: self,
                geometry,
                profile: RateProfile::Sine {
                    mean: 140_000.0,
                    depth: 0.6,
                    period: TimeDelta::from_millis(700),
                },
                spatial: SpatialModel::Blobs {
                    count: 16,
                    sigma: 13.0,
                    drift: 40.0,
                },
                gray_frame_interval: TimeDelta::from_millis(20),
                seed: 0x1F3,
            },
            SequenceId::OutdoorDay1 => Sequence {
                id: self,
                geometry,
                profile: RateProfile::Sine {
                    mean: 420_000.0,
                    depth: 0.35,
                    period: TimeDelta::from_millis(900),
                },
                spatial: SpatialModel::Band {
                    top: 0.35,
                    bottom: 0.9,
                },
                gray_frame_interval: TimeDelta::from_millis(22),
                seed: 0x0D1,
            },
            SequenceId::OutdoorNight1 => Sequence {
                id: self,
                geometry,
                profile: RateProfile::Constant(90_000.0),
                spatial: SpatialModel::Blobs {
                    count: 6,
                    sigma: 6.0,
                    drift: 100.0,
                },
                gray_frame_interval: TimeDelta::from_millis(22),
                seed: 0x0D2,
            },
            SequenceId::DenseTown10 => Sequence {
                id: self,
                geometry: SensorGeometry::new(346, 260),
                profile: RateProfile::Sine {
                    mean: 300_000.0,
                    depth: 0.45,
                    period: TimeDelta::from_millis(600),
                },
                spatial: SpatialModel::Band {
                    top: 0.25,
                    bottom: 0.95,
                },
                gray_frame_interval: TimeDelta::from_millis(22),
                seed: 0x70A,
            },
        }
    }
}

impl fmt::Display for SequenceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A calibrated synthetic sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Which sequence this is.
    pub id: SequenceId,
    /// Sensor geometry.
    pub geometry: SensorGeometry,
    /// Event-rate profile over time.
    pub profile: RateProfile,
    /// Spatial clustering model.
    pub spatial: SpatialModel,
    /// Interval between synchronized grayscale frames (`Tstart`/`Tend`
    /// boundaries for E2SF).
    pub gray_frame_interval: TimeDelta,
    /// Deterministic seed.
    pub seed: u64,
}

impl Sequence {
    /// Generates the event stream for `window`.
    ///
    /// # Errors
    ///
    /// Propagates stream-assembly errors (a bug if they occur).
    pub fn generate(&self, window: TimeWindow) -> Result<EventSlice, EventError> {
        let mut generator = StatisticalGenerator::new(
            self.geometry,
            self.profile.clone(),
            self.spatial.clone(),
            self.seed,
        );
        generator.generate(window)
    }

    /// The grayscale frame boundaries covering `window` (consecutive pairs
    /// are the `[Tstart, Tend)` intervals E2SF bins over).
    pub fn frame_intervals(&self, window: TimeWindow) -> Vec<TimeWindow> {
        let mut intervals = Vec::new();
        let mut t = window.start();
        while t < window.end() {
            let end = (t + self.gray_frame_interval).min(window.end());
            intervals.push(TimeWindow::new(t, end));
            t = end;
        }
        intervals
    }

    /// Mean event rate over `window` (events/second).
    pub fn mean_rate(&self, window: TimeWindow) -> f64 {
        self.profile.mean_rate(window, 64)
    }
}

/// A one-second default analysis window starting at zero.
pub fn default_window() -> TimeWindow {
    TimeWindow::new(Timestamp::ZERO, Timestamp::from_secs(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::stats::{burstiness, temporal_density};

    #[test]
    fn all_sequences_generate() {
        let w = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(100));
        for id in SequenceId::ALL {
            let seq = id.sequence();
            let events = seq.generate(w).unwrap();
            assert!(!events.is_empty(), "{id} generated no events");
            assert_eq!(events.geometry(), seq.geometry);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(50));
        let a = SequenceId::IndoorFlying1.sequence().generate(w).unwrap();
        let b = SequenceId::IndoorFlying1.sequence().generate(w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn indoorflying2_is_bursty_like_figure5() {
        let w = TimeWindow::new(Timestamp::ZERO, Timestamp::from_secs(1));
        let seq = SequenceId::IndoorFlying2.sequence();
        let events = seq.generate(w).unwrap();
        let bins = temporal_density(&events, w, TimeDelta::from_millis(10));
        let b = burstiness(&bins);
        assert!(
            b > 2.5,
            "indoor_flying2 burstiness {b} should be pronounced"
        );
    }

    #[test]
    fn outdoor_day_rate_exceeds_indoor_base() {
        let w = default_window();
        let day = SequenceId::OutdoorDay1.sequence().mean_rate(w);
        let night = SequenceId::OutdoorNight1.sequence().mean_rate(w);
        assert!(day > 2.0 * night);
    }

    #[test]
    fn frame_intervals_tile_window() {
        let seq = SequenceId::IndoorFlying1.sequence();
        let w = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(70));
        let intervals = seq.frame_intervals(w);
        assert_eq!(intervals.len(), 4); // 20+20+20+10
        assert_eq!(intervals[0].start(), w.start());
        assert_eq!(intervals.last().unwrap().end(), w.end());
        for pair in intervals.windows(2) {
            assert_eq!(pair[0].end(), pair[1].start());
        }
    }

    #[test]
    fn names_round_trip() {
        for id in SequenceId::ALL {
            assert!(!id.name().is_empty());
            assert_eq!(id.sequence().id, id);
        }
    }
}
