//! Event2Sparse Frame converter (E2SF, paper §4.1).
//!
//! Converts the raw event stream of a grayscale-frame interval directly
//! into two-channel COO sparse frames, with no dense intermediate:
//!
//! ```text
//! biS  = (Tend − Tstart) / nB                  (bin duration)
//! EBk  = floor((tk − Tstart) / biS)            (bin index of event k)
//! ```
//!
//! Positive and negative polarities accumulate separately per pixel within
//! each bin (Equation 1), and each accumulated bin becomes one
//! [`SparseFrame`]. The conversion cost is proportional to the number of
//! events — the dense-frame path ([`dense_frame_baseline`]) pays for every
//! pixel instead and is kept for the Figure 1 / encode-overhead
//! comparisons.

use crate::frame::SparseFrame;
use crate::EvEdgeError;
use ev_core::event::Event;
use ev_core::stream::EventSlice;
use ev_core::TimeWindow;
use ev_sparse::coo::{SparseEntry, SparseTensor};
use ev_sparse::dense::Tensor;

/// How a sparse frame encodes the events of a bin (paper §2, Figure 2:
/// Ev-Edge "supports all of the aforementioned input representations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FrameRepresentation {
    /// Two channels: per-pixel ON and OFF event counts (SpikeFlowNet-style
    /// discretized bins).
    #[default]
    PolarityCounts,
    /// Four channels: per-pixel ON/OFF counts plus the most recent
    /// ON/OFF event timestamp, normalized to `[0, 1]` over the bin
    /// (EV-FlowNet-style count + timestamp surfaces).
    CountsAndTimestamps,
}

impl FrameRepresentation {
    /// Channels per frame under this representation.
    pub const fn channels(self) -> usize {
        match self {
            FrameRepresentation::PolarityCounts => 2,
            FrameRepresentation::CountsAndTimestamps => 4,
        }
    }
}

/// E2SF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct E2sfConfig {
    /// Number of event bins per grayscale-frame interval (`nB`).
    pub bins_per_interval: usize,
    /// The per-bin frame encoding.
    pub representation: FrameRepresentation,
}

impl E2sfConfig {
    /// Creates a polarity-counts configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bins_per_interval` is zero.
    pub fn new(bins_per_interval: usize) -> Self {
        assert!(bins_per_interval > 0, "nB must be nonzero");
        E2sfConfig {
            bins_per_interval,
            representation: FrameRepresentation::PolarityCounts,
        }
    }

    /// Selects the frame representation.
    pub fn with_representation(mut self, representation: FrameRepresentation) -> Self {
        self.representation = representation;
        self
    }
}

impl Default for E2sfConfig {
    fn default() -> Self {
        E2sfConfig::new(4)
    }
}

/// Reusable accumulation state for [`E2sf::convert_with`].
///
/// One flat `[C, H, W]`-indexed value plane, shared by every bin, plus a
/// bitmap with one bit per plane slot marking the slots the current bin
/// touched. Events are time-sorted, so each bin is a contiguous run of
/// them: the run scatter-adds into the plane, then the bitmap is walked
/// word by word and each set bit becomes one entry while its slot is
/// zeroed. Because the flat index `(c*H + y)*W + x` is monotone in the
/// canonical `(channel, row, col)` key, the walk emits entries already
/// in canonical order and the sort/merge pass of
/// [`SparseTensor::from_entries`] is skipped; the emitted frames are
/// bitwise identical to [`E2sf::convert`]'s. Between calls the plane and
/// the bitmap are all zero, whatever geometry or channel count comes next.
#[derive(Debug, Clone, Default)]
pub struct E2sfScratch {
    values: Vec<f32>,
    touched: Vec<u64>,
    /// Set bits in `touched`: the entry count of the bin being built.
    distinct: usize,
}

impl E2sfScratch {
    /// Ready-to-use scratch; buffers grow on first conversion.
    pub fn new() -> Self {
        E2sfScratch::default()
    }

    fn ensure(&mut self, slots: usize) {
        // Everything is zero at rest, so resizing either way keeps it so.
        if self.values.len() != slots {
            self.values.resize(slots, 0.0);
            self.touched.resize(slots.div_ceil(64), 0);
        }
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        let word = &mut self.touched[idx / 64];
        let bit = 1u64 << (idx % 64);
        self.distinct += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Emits the touched slots as canonical entries of a `[C, H, W]`
    /// tensor with `plane = H * W` sites per channel, zeroing each slot
    /// and bitmap word on the way.
    fn drain(&mut self, plane: usize, w: usize) -> Vec<SparseEntry> {
        let mut entries = Vec::with_capacity(core::mem::take(&mut self.distinct));
        for (word_index, word) in self.touched.iter_mut().enumerate() {
            let mut bits = core::mem::take(word);
            while bits != 0 {
                let idx = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let value = core::mem::take(&mut self.values[idx]);
                let rem = idx % plane;
                entries.push(SparseEntry::new(
                    (idx / plane) as u32,
                    (rem / w) as u32,
                    (rem % w) as u32,
                    value,
                ));
            }
        }
        entries
    }
}

/// The Event2Sparse Frame converter.
///
/// # Examples
///
/// ```
/// use ev_edge::e2sf::{E2sf, E2sfConfig};
/// use ev_core::event::{Event, Polarity, SensorGeometry};
/// use ev_core::stream::EventSlice;
/// use ev_core::time::{TimeWindow, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = SensorGeometry::new(16, 16);
/// let events = EventSlice::new(g, vec![
///     Event::new(3, 4, Timestamp::from_millis(2), Polarity::On),
///     Event::new(3, 4, Timestamp::from_millis(12), Polarity::Off),
/// ])?;
/// let e2sf = E2sf::new(E2sfConfig::new(2));
/// let interval = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20));
/// let frames = e2sf.convert(&events, interval)?;
/// assert_eq!(frames.len(), 2);
/// assert_eq!(frames[0].tensor().get(0, 4, 3), 1.0); // ON channel
/// assert_eq!(frames[1].tensor().get(1, 4, 3), 1.0); // OFF channel
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct E2sf {
    config: E2sfConfig,
}

impl E2sf {
    /// Creates a converter.
    pub fn new(config: E2sfConfig) -> Self {
        E2sf { config }
    }

    /// The configuration.
    pub fn config(&self) -> E2sfConfig {
        self.config
    }

    /// Converts the events of one `[Tstart, Tend)` interval into `nB`
    /// sparse frames. Events outside the interval are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::DegenerateInterval`] when the interval is
    /// shorter than `nB` microseconds (bins would be empty of time).
    pub fn convert(
        &self,
        events: &EventSlice,
        interval: TimeWindow,
    ) -> Result<Vec<SparseFrame>, EvEdgeError> {
        self.convert_with(events, interval, &mut E2sfScratch::new())
    }

    /// [`E2sf::convert`] with a caller-owned scratch arena: repeated
    /// conversions reuse its value plane and bitmap, which is how the
    /// streaming stages call it. Frames are bitwise identical to
    /// `convert`'s.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::DegenerateInterval`] when the interval is
    /// shorter than `nB` microseconds (bins would be empty of time).
    pub fn convert_with(
        &self,
        events: &EventSlice,
        interval: TimeWindow,
        scratch: &mut E2sfScratch,
    ) -> Result<Vec<SparseFrame>, EvEdgeError> {
        let nb = self.config.bins_per_interval;
        let total_us = interval.duration().as_micros();
        if total_us < nb as i64 {
            return Err(EvEdgeError::DegenerateInterval { interval, bins: nb });
        }
        let geometry = events.geometry();
        let (h, w) = (geometry.height as usize, geometry.width as usize);
        let channels = self.config.representation.channels();
        let plane = h * w;
        let bis = total_us as u64 / nb as u64; // bin duration biS, ≥ 1
        let with_timestamps =
            self.config.representation == FrameRepresentation::CountsAndTimestamps;
        scratch.ensure(channels * plane);
        // EBk = floor((tk − Tstart) / biS), clamped: the remainder of
        // integer division can push trailing events past the last bin.
        let bin_of = |ev: &Event| {
            let offset = ev.t.saturating_since(interval.start()).as_micros() as u64;
            ((offset / bis) as usize).min(nb - 1)
        };
        let mut rest = events.window(interval);
        let mut frames = Vec::with_capacity(nb);
        for (k, window) in interval.split(nb).into_iter().enumerate() {
            // Events are time-sorted, so EBk never decreases and bin k is
            // the run of remaining events with EBk == k.
            let (run, tail) = rest.split_at(rest.partition_point(|ev| bin_of(ev) <= k));
            rest = tail;
            for ev in run {
                let idx = (ev.polarity.channel() * h + ev.y as usize) * w + ev.x as usize;
                scratch.values[idx] += 1.0;
                scratch.mark(idx);
                if with_timestamps {
                    // Normalized timestamp within the bin, in (0, 1]:
                    // "most recent" replaces rather than accumulates.
                    let frac = (ev.t.saturating_since(window.start()).as_micros() as f64 + 1.0)
                        / window.duration().as_micros().max(1) as f64;
                    let sidx = idx + 2 * plane;
                    scratch.values[sidx] = frac.min(1.0) as f32;
                    scratch.mark(sidx);
                }
            }
            let entries = scratch.drain(plane, w);
            let tensor = SparseTensor::from_canonical_entries(channels, h, w, entries)?;
            frames.push(SparseFrame::new(tensor, window, run.len()));
        }
        Ok(frames)
    }

    /// Converts a full recording (several frame intervals) into the
    /// time-ordered frame stream.
    ///
    /// # Errors
    ///
    /// Propagates per-interval conversion errors.
    pub fn convert_intervals(
        &self,
        events: &EventSlice,
        intervals: &[TimeWindow],
    ) -> Result<Vec<SparseFrame>, EvEdgeError> {
        let mut out = Vec::with_capacity(intervals.len() * self.config.bins_per_interval);
        let mut scratch = E2sfScratch::new();
        for interval in intervals {
            out.extend(self.convert_with(events, *interval, &mut scratch)?);
        }
        Ok(out)
    }
}

/// A dense event frame and the sparse tensor encoded from it afterwards —
/// the conventional pipeline E2SF replaces.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseFramePath {
    /// The dense `[2, H, W]` event frame.
    pub dense: Tensor,
    /// The sparse tensor obtained by post-hoc encoding.
    pub sparse: SparseTensor,
}

/// Builds one bin the conventional way: accumulate into a dense frame,
/// then encode to sparse. Used by benches to quantify the overhead E2SF
/// avoids.
///
/// # Errors
///
/// Propagates tensor construction errors.
pub fn dense_frame_baseline(
    events: &EventSlice,
    window: TimeWindow,
) -> Result<DenseFramePath, EvEdgeError> {
    let geometry = events.geometry();
    let (h, w) = (geometry.height as usize, geometry.width as usize);
    let mut dense = Tensor::zeros(&[2, h, w]);
    {
        let data = dense.as_mut_slice();
        for ev in events.window(window) {
            let c = ev.polarity.channel();
            data[(c * h + ev.y as usize) * w + ev.x as usize] += 1.0;
        }
    }
    let sparse = SparseTensor::from_dense(&dense, 0.0)?;
    Ok(DenseFramePath { dense, sparse })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::event::{Polarity, SensorGeometry};
    use ev_core::Timestamp;

    fn ev(x: u16, y: u16, t_us: u64, p: Polarity) -> Event {
        Event::new(x, y, Timestamp::from_micros(t_us), p)
    }

    fn slice(events: Vec<Event>) -> EventSlice {
        EventSlice::new(SensorGeometry::new(32, 32), events).unwrap()
    }

    fn interval_ms(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(Timestamp::from_millis(a), Timestamp::from_millis(b))
    }

    #[test]
    fn events_land_in_correct_bins() {
        let events = slice(vec![
            ev(1, 1, 1_000, Polarity::On),
            ev(2, 2, 11_000, Polarity::Off),
            ev(3, 3, 19_999, Polarity::On),
        ]);
        let e2sf = E2sf::new(E2sfConfig::new(4)); // 5 ms bins over 20 ms
        let frames = e2sf.convert(&events, interval_ms(0, 20)).unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].event_count(), 1);
        assert_eq!(frames[1].event_count(), 0);
        assert_eq!(frames[2].event_count(), 1);
        assert_eq!(frames[3].event_count(), 1);
        assert_eq!(frames[2].tensor().get(1, 2, 2), 1.0);
    }

    #[test]
    fn polarities_accumulate_separately() {
        let events = slice(vec![
            ev(5, 5, 100, Polarity::On),
            ev(5, 5, 200, Polarity::On),
            ev(5, 5, 300, Polarity::Off),
        ]);
        let e2sf = E2sf::new(E2sfConfig::new(1));
        let frames = e2sf.convert(&events, interval_ms(0, 1)).unwrap();
        let t = frames[0].tensor();
        assert_eq!(t.get(0, 5, 5), 2.0); // two ON events
        assert_eq!(t.get(1, 5, 5), 1.0); // one OFF event
        assert_eq!(frames[0].event_count(), 3);
    }

    #[test]
    fn events_outside_interval_ignored() {
        let events = slice(vec![
            ev(1, 1, 500, Polarity::On),
            ev(2, 2, 5_000, Polarity::On),
            ev(3, 3, 50_000, Polarity::On),
        ]);
        let e2sf = E2sf::new(E2sfConfig::new(2));
        let frames = e2sf.convert(&events, interval_ms(1, 10)).unwrap();
        let total: usize = frames.iter().map(|f| f.event_count()).sum();
        assert_eq!(total, 1); // only the 5 ms event
    }

    #[test]
    fn frame_windows_tile_interval() {
        let events = slice(vec![]);
        let e2sf = E2sf::new(E2sfConfig::new(3));
        let frames = e2sf.convert(&events, interval_ms(10, 40)).unwrap();
        assert_eq!(frames[0].window().start(), Timestamp::from_millis(10));
        assert_eq!(frames[2].window().end(), Timestamp::from_millis(40));
        for pair in frames.windows(2) {
            assert_eq!(pair[0].window().end(), pair[1].window().start());
        }
    }

    #[test]
    fn sparse_equals_dense_path() {
        let events = slice(
            (0..200)
                .map(|k| {
                    ev(
                        (k * 7) % 32,
                        (k * 13) % 32,
                        (k as u64) * 97,
                        if k % 3 == 0 {
                            Polarity::Off
                        } else {
                            Polarity::On
                        },
                    )
                })
                .collect(),
        );
        let window = interval_ms(0, 20);
        let e2sf = E2sf::new(E2sfConfig::new(1));
        let frames = e2sf.convert(&events, window).unwrap();
        let dense_path = dense_frame_baseline(&events, window).unwrap();
        assert_eq!(frames[0].tensor(), &dense_path.sparse);
        assert_eq!(frames[0].tensor().to_dense(), dense_path.dense);
    }

    #[test]
    fn timestamp_surfaces_record_latest() {
        let events = slice(vec![
            ev(5, 5, 1_000, Polarity::On),
            ev(6, 6, 5_000, Polarity::Off),
            ev(5, 5, 9_000, Polarity::On), // later: replaces the ON surface
        ]);
        let e2sf = E2sf::new(
            E2sfConfig::new(1).with_representation(FrameRepresentation::CountsAndTimestamps),
        );
        let frames = e2sf.convert(&events, interval_ms(0, 10)).unwrap();
        let t = frames[0].tensor();
        assert_eq!(t.channels(), 4);
        // Counts unchanged.
        assert_eq!(t.get(0, 5, 5), 2.0);
        assert_eq!(t.get(1, 6, 6), 1.0);
        // ON timestamp surface holds the *latest* normalized time (~0.9).
        let ts_on = t.get(2, 5, 5);
        assert!((0.85..=0.95).contains(&ts_on), "got {ts_on}");
        // OFF surface at (6,6): ~0.5.
        let ts_off = t.get(3, 6, 6);
        assert!((0.45..=0.55).contains(&ts_off), "got {ts_off}");
        // No surface where no event fired.
        assert_eq!(t.get(2, 6, 6), 0.0);
    }

    #[test]
    fn representations_share_count_channels() {
        let events = slice(
            (0..50)
                .map(|k| {
                    ev(
                        (k % 16) as u16,
                        (k / 4) as u16,
                        k as u64 * 100,
                        Polarity::On,
                    )
                })
                .collect(),
        );
        let window = interval_ms(0, 10);
        let counts = E2sf::new(E2sfConfig::new(4))
            .convert(&events, window)
            .unwrap();
        let both = E2sf::new(
            E2sfConfig::new(4).with_representation(FrameRepresentation::CountsAndTimestamps),
        )
        .convert(&events, window)
        .unwrap();
        for (a, b) in counts.iter().zip(&both) {
            assert_eq!(a.event_count(), b.event_count());
            for e in a.tensor().iter() {
                assert_eq!(b.tensor().get(e.channel, e.row, e.col), e.value);
            }
        }
    }

    #[test]
    fn degenerate_interval_rejected() {
        let events = slice(vec![]);
        let e2sf = E2sf::new(E2sfConfig::new(100));
        let tiny = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(50));
        assert!(matches!(
            e2sf.convert(&events, tiny),
            Err(EvEdgeError::DegenerateInterval { .. })
        ));
    }

    #[test]
    fn convert_intervals_chains() {
        let events = slice(vec![
            ev(0, 0, 1_000, Polarity::On),
            ev(0, 0, 21_000, Polarity::On),
        ]);
        let e2sf = E2sf::new(E2sfConfig::new(2));
        let frames = e2sf
            .convert_intervals(&events, &[interval_ms(0, 20), interval_ms(20, 40)])
            .unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].event_count(), 1);
        assert_eq!(frames[2].event_count(), 1);
    }
}
