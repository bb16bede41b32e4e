//! Statistical event-stream generators.
//!
//! The experiments depend only on the *spatio-temporal statistics* of an
//! event stream (which is all E2SF and DSFA observe), so this module
//! synthesizes streams directly from a target event [`RateProfile`] and a
//! [`SpatialModel`], at millions of events per second.
//!
//! This is the substitution for MVSEC recordings: `ev-datasets` calibrates
//! profiles to the statistics the paper reports (Figures 3 and 5).

use crate::event::{Event, Polarity, SensorGeometry};
use crate::stream::EventSlice;
use crate::time::{TimeDelta, TimeWindow, Timestamp};
use crate::EventError;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Probability that a generated event has positive polarity.
const ON_FRACTION: f64 = 0.5;

/// A target event rate (events/second over the whole sensor) as a function
/// of time.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Constant rate.
    Constant(f64),
    /// Piecewise-linear interpolation over `(time, rate)` knots.
    ///
    /// Before the first knot the first rate applies; after the last knot the
    /// last rate applies. Knots must be sorted by time.
    Piecewise(Vec<(Timestamp, f64)>),
    /// A baseline rate with periodic bursts — models the bursty temporal
    /// density of hand-held/flying sequences (paper Figure 5).
    Burst {
        /// Quiescent rate.
        base: f64,
        /// Rate during a burst.
        burst: f64,
        /// Burst repetition period.
        period: TimeDelta,
        /// Fraction of the period spent bursting, in `(0, 1)`.
        duty: f64,
    },
    /// Sinusoidally modulated rate: `mean * (1 + depth * sin(2πt/period))`.
    Sine {
        /// Mean rate.
        mean: f64,
        /// Modulation depth in `[0, 1]`.
        depth: f64,
        /// Modulation period.
        period: TimeDelta,
    },
}

impl RateProfile {
    /// The instantaneous rate at `t`, events/second (never negative).
    pub fn rate_at(&self, t: Timestamp) -> f64 {
        match self {
            RateProfile::Constant(r) => r.max(0.0),
            RateProfile::Piecewise(knots) => {
                if knots.is_empty() {
                    return 0.0;
                }
                if t <= knots[0].0 {
                    return knots[0].1.max(0.0);
                }
                for pair in knots.windows(2) {
                    let (t0, r0) = pair[0];
                    let (t1, r1) = pair[1];
                    if t >= t0 && t < t1 {
                        let span = (t1 - t0).as_micros() as f64;
                        let frac = (t - t0).as_micros() as f64 / span.max(1.0);
                        return (r0 + (r1 - r0) * frac).max(0.0);
                    }
                }
                knots.last().expect("nonempty").1.max(0.0)
            }
            RateProfile::Burst {
                base,
                burst,
                period,
                duty,
            } => {
                let phase = (t.as_micros() % period.as_micros().max(1) as u64) as f64
                    / period.as_micros() as f64;
                if phase < *duty {
                    burst.max(0.0)
                } else {
                    base.max(0.0)
                }
            }
            RateProfile::Sine {
                mean,
                depth,
                period,
            } => {
                let phase = t.as_micros() as f64 / period.as_micros().max(1) as f64
                    * core::f64::consts::TAU;
                (mean * (1.0 + depth * phase.sin())).max(0.0)
            }
        }
    }

    /// Average rate over `window` sampled at `samples` points.
    pub fn mean_rate(&self, window: TimeWindow, samples: usize) -> f64 {
        let n = samples.max(1);
        let mut acc = 0.0;
        for k in 0..n {
            let frac = (k as f64 + 0.5) / n as f64;
            let t = window.start() + window.duration().mul_f64(frac);
            acc += self.rate_at(t);
        }
        acc / n as f64
    }
}

/// How synthesized events distribute over the sensor plane.
///
/// Real event frames are spatially structured (events cluster on moving
/// contours), which is what makes them sparse. [`SpatialModel::Blobs`]
/// reproduces that clustering; [`SpatialModel::Uniform`] is the
/// unstructured control.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialModel {
    /// Uniform over all pixels.
    Uniform,
    /// A mixture of `count` Gaussian blobs drifting across the sensor.
    Blobs {
        /// Number of blobs.
        count: usize,
        /// Blob standard deviation, pixels.
        sigma: f64,
        /// Blob drift speed, pixels/second.
        drift: f64,
    },
    /// Events confined to a horizontal band (e.g. road/horizon scenes),
    /// expressed as a `[min, max)` fraction of the sensor height.
    Band {
        /// Top of the band as a fraction of height.
        top: f64,
        /// Bottom of the band as a fraction of height.
        bottom: f64,
    },
}

/// Deterministic synthetic event-stream generator.
///
/// # Examples
///
/// ```
/// use ev_core::event::SensorGeometry;
/// use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
/// use ev_core::time::{TimeWindow, Timestamp};
///
/// # fn main() -> Result<(), ev_core::EventError> {
/// let mut generator = StatisticalGenerator::new(
///     SensorGeometry::DAVIS346,
///     RateProfile::Constant(100_000.0),
///     SpatialModel::Uniform,
///     42,
/// );
/// let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(10));
/// let events = generator.generate(window)?;
/// // ≈ 1000 events in 10 ms at 100k ev/s.
/// assert!((800..1200).contains(&events.len()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StatisticalGenerator {
    geometry: SensorGeometry,
    profile: RateProfile,
    spatial: SpatialModel,
    rng: ChaCha8Rng,
    /// Internal tick for piecewise-constant rate approximation.
    tick: TimeDelta,
    /// Blob centre state (for `SpatialModel::Blobs`).
    blob_centres: Vec<(f64, f64, f64, f64)>, // x, y, vx, vy
}

impl StatisticalGenerator {
    /// Creates a generator with the given target statistics and seed.
    pub fn new(
        geometry: SensorGeometry,
        profile: RateProfile,
        spatial: SpatialModel,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let blob_centres = match &spatial {
            SpatialModel::Blobs { count, drift, .. } => (0..*count)
                .map(|_| {
                    let x = rng.gen::<f64>() * geometry.width as f64;
                    let y = rng.gen::<f64>() * geometry.height as f64;
                    let ang = rng.gen::<f64>() * core::f64::consts::TAU;
                    (x, y, drift * ang.cos(), drift * ang.sin())
                })
                .collect(),
            _ => Vec::new(),
        };
        StatisticalGenerator {
            geometry,
            profile,
            spatial,
            rng,
            tick: TimeDelta::from_millis(1),
            blob_centres,
        }
    }

    /// The sensor geometry.
    pub fn geometry(&self) -> SensorGeometry {
        self.geometry
    }

    /// The rate profile.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Generates the events for `window`, sorted by timestamp.
    ///
    /// Events are drawn one tick at a time, each at a random instant of
    /// its tick `[t, t_next]`. Ticks are disjoint and increasing, so
    /// sorting each tick on its own and appending it yields exactly the
    /// stable sort of the whole window by timestamp.
    ///
    /// # Errors
    ///
    /// Returns an error if event assembly produces an invalid slice (a bug).
    pub fn generate(&mut self, window: TimeWindow) -> Result<EventSlice, EventError> {
        let mut events: Vec<Event> = Vec::new();
        let mut tick_events: Vec<Event> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        let mut t = window.start();
        while t < window.end() {
            // Near `Timestamp::MAX` a whole tick may not fit: the last
            // tick then ends at the window end, as it does anywhere else.
            let t_next = t
                .checked_add(self.tick)
                .map_or(window.end(), |next| next.min(window.end()));
            let span = t_next - t;
            let dt = span.as_secs_f64();
            let mid = t + span.mul_f64(0.5);
            let lambda = self.profile.rate_at(mid) * dt;
            let n = sample_poisson(&mut self.rng, lambda);
            tick_events.clear();
            for _ in 0..n {
                let frac = self.rng.gen::<f64>();
                let t_ev = t + span.mul_f64(frac);
                let (x, y) = self.sample_pixel(t_ev);
                let polarity = if self.rng.gen::<f64>() < ON_FRACTION {
                    Polarity::On
                } else {
                    Polarity::Off
                };
                tick_events.push(Event::new(x, y, t_ev, polarity));
            }
            append_sorted(&mut events, &tick_events, t, span, &mut slots);
            self.advance_blobs(dt);
            t = t_next;
        }
        EventSlice::new(self.geometry, events)
    }

    fn sample_pixel(&mut self, _t: Timestamp) -> (u16, u16) {
        let w = self.geometry.width as f64;
        let h = self.geometry.height as f64;
        match &self.spatial {
            SpatialModel::Uniform => {
                let x = self.rng.gen_range(0..self.geometry.width) as u16;
                let y = self.rng.gen_range(0..self.geometry.height) as u16;
                (x, y)
            }
            SpatialModel::Blobs { sigma, .. } => {
                let sigma = *sigma;
                let idx = self.rng.gen_range(0..self.blob_centres.len().max(1));
                let (cx, cy, _, _) = self.blob_centres[idx];
                let (gx, gy) = gaussian_pair(&mut self.rng);
                let x = (cx + gx * sigma).rem_euclid(w);
                let y = (cy + gy * sigma).rem_euclid(h);
                (x as u16, y as u16)
            }
            SpatialModel::Band { top, bottom } => {
                let x = self.rng.gen_range(0..self.geometry.width) as u16;
                let y0 = (top * h) as u32;
                let y1 = ((bottom * h) as u32).clamp(y0 + 1, self.geometry.height);
                let y = self.rng.gen_range(y0..y1) as u16;
                (x, y)
            }
        }
    }

    fn advance_blobs(&mut self, dt: f64) {
        let w = self.geometry.width as f64;
        let h = self.geometry.height as f64;
        for (x, y, vx, vy) in &mut self.blob_centres {
            *x = (*x + *vx * dt).rem_euclid(w);
            *y = (*y + *vy * dt).rem_euclid(h);
        }
    }
}

/// Appends one tick's events to `out` in stable timestamp order.
///
/// Every event lies in `[start, start + span]`, so a counting sort over
/// the `span + 1` microsecond offsets orders them in two passes, at a
/// cost linear in the events and the tick length. `slots` is reused
/// scratch.
fn append_sorted(
    out: &mut Vec<Event>,
    tick: &[Event],
    start: Timestamp,
    span: TimeDelta,
    slots: &mut Vec<usize>,
) {
    let Some(&first) = tick.first() else {
        return;
    };
    let offset = |ev: &Event| (ev.t.as_micros() - start.as_micros()) as usize;
    slots.clear();
    slots.resize(span.as_micros() as usize + 1, 0);
    for ev in tick {
        slots[offset(ev)] += 1;
    }
    // Exclusive prefix sum: each offset's first index in `out`.
    let mut next = out.len();
    for slot in slots.iter_mut() {
        let count = *slot;
        *slot = next;
        next += count;
    }
    out.resize(next, first);
    for ev in tick {
        let slot = &mut slots[offset(ev)];
        out[*slot] = *ev;
        *slot += 1;
    }
}

/// Samples a Poisson-distributed count with mean `lambda`.
///
/// Uses Knuth's product method for small `lambda` and a rounded normal
/// approximation for large `lambda` (where the relative error is negligible
/// for stream synthesis).
pub fn sample_poisson<R: Rng>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product = rng.gen::<f64>();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        let (g, _) = gaussian_pair(rng);
        let value = lambda + lambda.sqrt() * g;
        value.round().max(0.0) as u64
    }
}

/// A pair of independent standard-normal samples (Box–Muller).
fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = core::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_ms(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(Timestamp::from_millis(a), Timestamp::from_millis(b))
    }

    #[test]
    fn constant_profile_rate() {
        let p = RateProfile::Constant(5000.0);
        assert_eq!(p.rate_at(Timestamp::from_millis(3)), 5000.0);
        assert_eq!(RateProfile::Constant(-1.0).rate_at(Timestamp::ZERO), 0.0);
    }

    #[test]
    fn piecewise_profile_interpolates() {
        let p = RateProfile::Piecewise(vec![
            (Timestamp::from_millis(0), 0.0),
            (Timestamp::from_millis(10), 1000.0),
        ]);
        let mid = p.rate_at(Timestamp::from_millis(5));
        assert!((mid - 500.0).abs() < 1.0, "got {mid}");
        assert_eq!(p.rate_at(Timestamp::from_millis(20)), 1000.0);
    }

    #[test]
    fn burst_profile_alternates() {
        let p = RateProfile::Burst {
            base: 10.0,
            burst: 1000.0,
            period: TimeDelta::from_millis(10),
            duty: 0.3,
        };
        assert_eq!(p.rate_at(Timestamp::from_millis(1)), 1000.0);
        assert_eq!(p.rate_at(Timestamp::from_millis(5)), 10.0);
        // Next period.
        assert_eq!(p.rate_at(Timestamp::from_millis(11)), 1000.0);
    }

    #[test]
    fn sine_profile_never_negative() {
        let p = RateProfile::Sine {
            mean: 100.0,
            depth: 1.0,
            period: TimeDelta::from_millis(4),
        };
        for ms in 0..16 {
            assert!(p.rate_at(Timestamp::from_millis(ms)) >= 0.0);
        }
    }

    #[test]
    fn generated_count_tracks_rate() {
        let mut generator = StatisticalGenerator::new(
            SensorGeometry::new(64, 64),
            RateProfile::Constant(200_000.0),
            SpatialModel::Uniform,
            1,
        );
        let events = generator.generate(window_ms(0, 50)).unwrap();
        let expected = 200_000.0 * 0.05;
        let got = events.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let make = || {
            StatisticalGenerator::new(
                SensorGeometry::new(32, 32),
                RateProfile::Constant(50_000.0),
                SpatialModel::Blobs {
                    count: 3,
                    sigma: 4.0,
                    drift: 20.0,
                },
                99,
            )
            .generate(window_ms(0, 20))
            .unwrap()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn blobs_are_spatially_concentrated() {
        let g = SensorGeometry::new(128, 128);
        let mut blobby = StatisticalGenerator::new(
            g,
            RateProfile::Constant(500_000.0),
            SpatialModel::Blobs {
                count: 2,
                sigma: 3.0,
                drift: 0.0,
            },
            5,
        );
        let mut uniform = StatisticalGenerator::new(
            g,
            RateProfile::Constant(500_000.0),
            SpatialModel::Uniform,
            5,
        );
        let w = window_ms(0, 20);
        let fb = blobby.generate(w).unwrap().fill_ratio();
        let fu = uniform.generate(w).unwrap().fill_ratio();
        assert!(
            fb < fu / 2.0,
            "blob fill ratio {fb} should be well below uniform {fu}"
        );
    }

    #[test]
    fn band_model_confines_rows() {
        let g = SensorGeometry::new(64, 100);
        let mut generator = StatisticalGenerator::new(
            g,
            RateProfile::Constant(100_000.0),
            SpatialModel::Band {
                top: 0.5,
                bottom: 0.6,
            },
            3,
        );
        let events = generator.generate(window_ms(0, 10)).unwrap();
        assert!(!events.is_empty());
        for ev in events.iter() {
            assert!((50..60).contains(&ev.y), "y={} outside band", ev.y);
        }
    }

    #[test]
    fn on_fraction_matches_constant() {
        let mut generator = StatisticalGenerator::new(
            SensorGeometry::new(32, 32),
            RateProfile::Constant(100_000.0),
            SpatialModel::Uniform,
            11,
        );
        let events = generator.generate(window_ms(0, 20)).unwrap();
        let (on, off) = events.polarity_counts();
        let frac = on as f64 / (on + off) as f64;
        assert!((frac - ON_FRACTION).abs() < 0.05, "on fraction {frac}");
    }

    #[test]
    fn window_ending_at_timestamp_max_generates() {
        // The last tick of this window cannot step a whole millisecond
        // without overflowing; it stops at the window end instead.
        let mut generator = StatisticalGenerator::new(
            SensorGeometry::new(32, 32),
            RateProfile::Constant(200_000.0),
            SpatialModel::Uniform,
            4,
        );
        let window = TimeWindow::new(Timestamp::from_micros(u64::MAX - 2_500), Timestamp::MAX);
        let events = generator.generate(window).unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|ev| ev.t >= window.start()));
    }

    #[test]
    fn poisson_sampler_mean_is_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for &lambda in &[0.5, 5.0, 25.0, 200.0] {
            let n = 4000;
            let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda * 0.1 + 0.1,
                "lambda {lambda}, mean {mean}"
            );
        }
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }
}
