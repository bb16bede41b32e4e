//! Event-stream statistics.
//!
//! Computes the quantities the paper plots on the input side: temporal event
//! density over a sequence (Figure 5) and the spatial fill ratio of event
//! frames (Figures 1 and 3).

use crate::stream::EventSlice;
use crate::time::{TimeDelta, TimeWindow, Timestamp};

/// One bin of a temporal-density histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityBin {
    /// Bin start time.
    pub start: Timestamp,
    /// Number of events in the bin.
    pub count: usize,
    /// Event rate over the bin, events/second.
    pub rate: f64,
}

/// Computes the temporal event density of `slice` over `window` in bins of
/// `bin` duration (the last bin may be shorter).
///
/// This regenerates the data behind the paper's Figure 5.
///
/// # Panics
///
/// Panics if `bin` is not a positive duration.
///
/// # Examples
///
/// ```
/// use ev_core::event::SensorGeometry;
/// use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
/// use ev_core::stats::temporal_density;
/// use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
///
/// # fn main() -> Result<(), ev_core::EventError> {
/// let mut generator = StatisticalGenerator::new(
///     SensorGeometry::new(64, 64),
///     RateProfile::Constant(10_000.0),
///     SpatialModel::Uniform,
///     7,
/// );
/// let w = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(100));
/// let slice = generator.generate(w)?;
/// let bins = temporal_density(&slice, w, TimeDelta::from_millis(10));
/// assert_eq!(bins.len(), 10);
/// # Ok(())
/// # }
/// ```
pub fn temporal_density(slice: &EventSlice, window: TimeWindow, bin: TimeDelta) -> Vec<DensityBin> {
    assert!(bin.as_micros() > 0, "bin duration must be positive");
    let mut out = Vec::new();
    let mut t = window.start();
    while t < window.end() {
        let end = (t + bin).min(window.end());
        let w = TimeWindow::new(t, end);
        let count = slice.window(w).len();
        let secs = w.duration().as_secs_f64();
        out.push(DensityBin {
            start: t,
            count,
            rate: if secs > 0.0 { count as f64 / secs } else { 0.0 },
        });
        t = end;
    }
    out
}

/// Summary statistics over a sample of scalar observations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of observations.
    pub count: usize,
}

impl Summary {
    /// Computes a summary; returns the default (all-zero) summary for an
    /// empty sample.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        Summary {
            mean,
            min,
            max,
            std: var.sqrt(),
            count: values.len(),
        }
    }
}

/// Burstiness of a density histogram: peak-to-mean ratio of bin rates.
///
/// A constant stream scores ≈1; the MVSEC `indoorflying` sequences in
/// Figure 5 show pronounced bursts (ratio well above 2).
pub fn burstiness(bins: &[DensityBin]) -> f64 {
    if bins.is_empty() {
        return 0.0;
    }
    let rates: Vec<f64> = bins.iter().map(|b| b.rate).collect();
    let summary = Summary::of(&rates);
    if summary.mean <= 0.0 {
        0.0
    } else {
        summary.max / summary.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SensorGeometry;
    use crate::generator::{RateProfile, SpatialModel, StatisticalGenerator};

    fn window_ms(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(Timestamp::from_millis(a), Timestamp::from_millis(b))
    }

    #[test]
    fn density_bins_cover_window() {
        let mut generator = StatisticalGenerator::new(
            SensorGeometry::new(32, 32),
            RateProfile::Constant(50_000.0),
            SpatialModel::Uniform,
            1,
        );
        let w = window_ms(0, 95);
        let slice = generator.generate(w).unwrap();
        let bins = temporal_density(&slice, w, TimeDelta::from_millis(10));
        assert_eq!(bins.len(), 10);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, slice.len());
        // Last bin is the 5 ms remainder.
        assert_eq!(bins[9].start, Timestamp::from_millis(90));
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.count, 4);
        assert!((s.std - 1.118).abs() < 1e-3);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn burst_profile_is_burstier_than_constant() {
        let g = SensorGeometry::new(64, 64);
        let w = window_ms(0, 200);
        let bin = TimeDelta::from_millis(5);

        let mut constant = StatisticalGenerator::new(
            g,
            RateProfile::Constant(100_000.0),
            SpatialModel::Uniform,
            2,
        );
        let mut bursty = StatisticalGenerator::new(
            g,
            RateProfile::Burst {
                base: 20_000.0,
                burst: 400_000.0,
                period: TimeDelta::from_millis(50),
                duty: 0.2,
            },
            SpatialModel::Uniform,
            2,
        );
        let bc = burstiness(&temporal_density(&constant.generate(w).unwrap(), w, bin));
        let bb = burstiness(&temporal_density(&bursty.generate(w).unwrap(), w, bin));
        assert!(bc < 1.5, "constant burstiness {bc}");
        assert!(bb > 2.0, "bursty burstiness {bb}");
    }
}
