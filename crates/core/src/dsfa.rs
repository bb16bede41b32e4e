//! Dynamic Sparse Frame Aggregator (DSFA, paper §4.2).
//!
//! DSFA sits between E2SF and inference. It buffers incoming sparse frames
//! in an event buffer partitioned into *merge buckets*, placing each new
//! frame greedily into the earliest available bucket subject to two
//! conditions: the delay to the bucket's earliest frame stays within
//! `MtTh`, and the relative change in spatial density versus the bucket's
//! merged content stays within `MdTh`. Buckets violating a condition are
//! marked FULL. When the buffer exceeds `EBufsize` — or when the hardware
//! becomes idle first ([`Dsfa::flush`]) — every bucket is combined
//! according to the merge mode and the merged frames ship as one batched
//! input.

use crate::frame::SparseFrame;
use crate::EvEdgeError;
use core::fmt;
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_sparse::coo::SparseTensor;

/// How frames within a merge bucket combine (paper `cMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CMode {
    /// Pixel-wise addition of frames (`cAdd`).
    CAdd,
    /// Pixel-wise average of frames (`cAverage`).
    CAverage,
    /// No merging; every frame is its own bucket, buckets batch together
    /// (`cBatch` — recommended for high-speed scenarios).
    CBatch,
}

impl fmt::Display for CMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CMode::CAdd => f.write_str("cAdd"),
            CMode::CAverage => f.write_str("cAverage"),
            CMode::CBatch => f.write_str("cBatch"),
        }
    }
}

/// DSFA configuration. `MtTh` and `MdTh` are tuned per task (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DsfaConfig {
    /// Event-buffer capacity in frames (`EBufsize`).
    pub ebuf_size: usize,
    /// Merge-bucket capacity in frames (`MBsize`).
    pub mb_size: usize,
    /// Maximum delay between a frame and a bucket's earliest frame
    /// (`MtTh`).
    pub mt_th: TimeDelta,
    /// Maximum relative spatial-density change versus the bucket's merged
    /// content (`MdTh`), e.g. `0.5` = 50%.
    pub md_th: f64,
    /// Merge mode.
    pub cmode: CMode,
}

impl DsfaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidDsfaConfig`] when sizes are zero, the
    /// bucket exceeds the buffer, or thresholds are negative.
    pub fn validate(&self) -> Result<(), EvEdgeError> {
        if self.ebuf_size == 0
            || self.mb_size == 0
            || self.mb_size > self.ebuf_size
            || self.md_th < 0.0
            || self.mt_th.is_negative()
        {
            return Err(EvEdgeError::InvalidDsfaConfig {
                ebuf_size: self.ebuf_size,
                mb_size: self.mb_size,
            });
        }
        Ok(())
    }
}

impl Default for DsfaConfig {
    fn default() -> Self {
        DsfaConfig {
            ebuf_size: 8,
            mb_size: 4,
            mt_th: TimeDelta::from_millis(20),
            md_th: 0.5,
            cmode: CMode::CAdd,
        }
    }
}

/// One merge bucket (paper `MB`): pending frames plus the FULL/AVL flag.
///
/// The merged tensor is lazy: while the bucket holds a single frame its
/// own tensor *is* the merge, so nothing is cloned until a second frame
/// actually arrives (and `cBatch` buckets, which never take one, never
/// materialize a merge at all). The merged spatial density is cached at
/// push time, so the `MdTh` probe in [`Dsfa::push`] is a float read
/// instead of a per-probe recount over every candidate bucket.
#[derive(Debug, Clone, PartialEq)]
struct MergeBucket {
    frames: Vec<SparseFrame>,
    merged: Option<SparseTensor>,
    merged_density: f64,
    full: bool,
}

impl MergeBucket {
    fn new(frame: SparseFrame, density: f64) -> Self {
        MergeBucket {
            frames: vec![frame],
            merged: None,
            merged_density: density,
            full: false,
        }
    }

    fn earliest(&self) -> Timestamp {
        self.frames[0].window().start()
    }

    fn push(&mut self, frame: SparseFrame) -> Result<(), EvEdgeError> {
        let merged = match self.merged.take() {
            Some(t) => t.add(frame.tensor())?,
            None => self.frames[0].tensor().add(frame.tensor())?,
        };
        self.merged_density = merged.spatial_density();
        self.merged = Some(merged);
        self.frames.push(frame);
        Ok(())
    }

    /// Consumes the bucket, yielding the merged tensor (moving the sole
    /// frame's tensor out when no merge was materialized) and the frames'
    /// metadata: `(tensor, merged_count, start, end, events)`.
    fn into_merged(self) -> (SparseTensor, usize, Timestamp, Timestamp, usize) {
        let merged_count = self.frames.len();
        let start = self
            .frames
            .iter()
            .map(|f| f.window().start())
            .min()
            .expect("bucket is nonempty");
        let end = self
            .frames
            .iter()
            .map(|f| f.window().end())
            .max()
            .expect("bucket is nonempty");
        let events: usize = self.frames.iter().map(|f| f.event_count()).sum();
        let tensor = match self.merged {
            Some(t) => t,
            None => self
                .frames
                .into_iter()
                .next()
                .expect("bucket is nonempty")
                .into_tensor(),
        };
        (tensor, merged_count, start, end, events)
    }
}

/// A merged sparse frame produced by combining one bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedFrame {
    /// The combined frame.
    pub frame: SparseFrame,
    /// How many input frames it merges.
    pub merged_count: usize,
}

/// The batched output of one DSFA dispatch: all merged buckets together
/// (the paper's "merged sparse frame representation").
#[derive(Debug, Clone, PartialEq)]
pub struct MergedBatch {
    /// One merged frame per bucket, time-ordered.
    pub frames: Vec<MergedFrame>,
    /// When the batch was emitted.
    pub emitted_at: Timestamp,
}

impl MergedBatch {
    /// Batch size (buckets merged together in one dispatch).
    pub fn batch_size(&self) -> usize {
        self.frames.len()
    }

    /// Total raw events across the batch.
    pub fn event_count(&self) -> usize {
        self.frames.iter().map(|f| f.frame.event_count()).sum()
    }

    /// Mean spatial density over the batch's frames.
    pub fn mean_density(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames
            .iter()
            .map(|f| f.frame.spatial_density())
            .sum::<f64>()
            / self.frames.len() as f64
    }
}

/// Running DSFA statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DsfaStats {
    /// Frames accepted.
    pub frames_in: usize,
    /// Batches emitted.
    pub batches_out: usize,
    /// Merged frames emitted (buckets combined).
    pub merged_frames_out: usize,
    /// Early dispatches triggered by hardware availability.
    pub early_flushes: usize,
    /// Buckets closed early by the `MtTh` condition.
    pub mt_th_closures: usize,
    /// Buckets closed early by the `MdTh` condition.
    pub md_th_closures: usize,
}

impl DsfaStats {
    /// Mean input frames per emitted merged frame (≥ 1 once emitting).
    pub fn mean_merge_factor(&self) -> f64 {
        if self.merged_frames_out == 0 {
            0.0
        } else {
            self.frames_in as f64 / self.merged_frames_out as f64
        }
    }
}

/// The Dynamic Sparse Frame Aggregator.
///
/// # Examples
///
/// ```
/// use ev_edge::dsfa::{CMode, Dsfa, DsfaConfig};
/// use ev_edge::frame::SparseFrame;
/// use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
/// use ev_sparse::coo::{SparseEntry, SparseTensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DsfaConfig { ebuf_size: 4, mb_size: 2, ..DsfaConfig::default() };
/// let mut dsfa = Dsfa::new(config)?;
/// for k in 0..5u64 {
///     let tensor = SparseTensor::from_entries(2, 8, 8,
///         vec![SparseEntry::new(0, 1, 1, 1.0)])?;
///     let window = TimeWindow::with_duration(
///         Timestamp::from_millis(k * 5), TimeDelta::from_millis(5));
///     if let Some(batch) = dsfa.push(SparseFrame::new(tensor, window, 1))? {
///         assert!(batch.batch_size() >= 1);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dsfa {
    config: DsfaConfig,
    buckets: Vec<MergeBucket>,
    stats: DsfaStats,
}

impl Dsfa {
    /// Creates an aggregator.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidDsfaConfig`] for invalid
    /// configurations.
    pub fn new(config: DsfaConfig) -> Result<Self, EvEdgeError> {
        config.validate()?;
        Ok(Dsfa {
            config,
            buckets: Vec::new(),
            stats: DsfaStats::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> DsfaConfig {
        self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> DsfaStats {
        self.stats
    }

    /// Frames currently buffered.
    pub fn occupancy(&self) -> usize {
        self.buckets.iter().map(|b| b.frames.len()).sum()
    }

    /// Accepts a frame; returns a batch when the event buffer overflows.
    ///
    /// # Errors
    ///
    /// Propagates merge errors (frames from mixed sensor geometries).
    pub fn push(&mut self, frame: SparseFrame) -> Result<Option<MergedBatch>, EvEdgeError> {
        self.stats.frames_in += 1;
        self.place(frame)?;
        if self.occupancy() > self.config.ebuf_size {
            let emitted_at = self.latest_time();
            return Ok(Some(self.combine(emitted_at, false)));
        }
        Ok(None)
    }

    /// Dispatches everything buffered (the hardware became available
    /// before the buffer filled, paper §4.2). Returns `None` when empty.
    pub fn flush(&mut self, now: Timestamp) -> Option<MergedBatch> {
        if self.buckets.is_empty() {
            return None;
        }
        Some(self.combine(now, true))
    }

    fn latest_time(&self) -> Timestamp {
        self.buckets
            .iter()
            .flat_map(|b| b.frames.iter().map(|f| f.window().end()))
            .fold(Timestamp::ZERO, Timestamp::max)
    }

    fn place(&mut self, frame: SparseFrame) -> Result<(), EvEdgeError> {
        if self.config.cmode == CMode::CBatch {
            // cBatch: every generated frame starts its own bucket. The
            // density is never probed (no bucket accepts a second frame).
            self.buckets.push(MergeBucket::new(frame, 0.0));
            return Ok(());
        }
        let density = frame.spatial_density();
        let mut target: Option<usize> = None;
        for (i, bucket) in self.buckets.iter_mut().enumerate() {
            if bucket.full || bucket.frames.len() >= self.config.mb_size {
                continue;
            }
            // Condition (i): delay to the bucket's earliest frame.
            let delay = frame.window().start() - bucket.earliest();
            if delay > self.config.mt_th {
                bucket.full = true;
                self.stats.mt_th_closures += 1;
                continue;
            }
            // Condition (ii): relative spatial-density change, against the
            // density cached when the bucket last changed.
            let merged_density = bucket.merged_density;
            let change = if merged_density > 0.0 {
                (density - merged_density).abs() / merged_density
            } else if density > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            if change > self.config.md_th {
                bucket.full = true;
                self.stats.md_th_closures += 1;
                continue;
            }
            target = Some(i);
            break;
        }
        match target {
            Some(i) => self.buckets[i].push(frame)?,
            None => self.buckets.push(MergeBucket::new(frame, density)),
        }
        Ok(())
    }

    fn combine(&mut self, emitted_at: Timestamp, early: bool) -> MergedBatch {
        let buckets = core::mem::take(&mut self.buckets);
        let mut frames = Vec::with_capacity(buckets.len());
        for bucket in buckets {
            let (mut tensor, merged_count, start, end, events) = bucket.into_merged();
            if self.config.cmode == CMode::CAverage {
                tensor.scale(1.0 / merged_count as f32);
            }
            frames.push(MergedFrame {
                frame: SparseFrame::new(tensor, TimeWindow::new(start, end), events),
                merged_count,
            });
            self.stats.merged_frames_out += 1;
        }
        self.stats.batches_out += 1;
        if early {
            self.stats.early_flushes += 1;
        }
        MergedBatch { frames, emitted_at }
    }

    /// Temporal-aggregation aggressiveness in `[0, 1]` for the accuracy
    /// model: the fraction of temporal resolution lost to merging,
    /// `1 − 1/mean_merge_factor`. 0 = every frame preserved (always for
    /// `cBatch`), → 1 as arbitrarily many frames collapse into one.
    pub fn aggregation_aggressiveness(&self) -> f64 {
        if self.config.cmode == CMode::CBatch || self.config.mb_size <= 1 {
            return 0.0;
        }
        let factor = self.stats.mean_merge_factor();
        if factor <= 1.0 {
            0.0
        } else {
            (1.0 - 1.0 / factor).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_sparse::coo::SparseEntry;

    fn frame_at(ms: u64, entries: Vec<SparseEntry>, events: usize) -> SparseFrame {
        let tensor = SparseTensor::from_entries(2, 16, 16, entries).unwrap();
        let window =
            TimeWindow::with_duration(Timestamp::from_millis(ms), TimeDelta::from_millis(5));
        SparseFrame::new(tensor, window, events)
    }

    fn uniform_frame(ms: u64, pixels: usize) -> SparseFrame {
        let entries = (0..pixels)
            .map(|k| SparseEntry::new(0, (k / 16) as u32, (k % 16) as u32, 1.0))
            .collect();
        frame_at(ms, entries, pixels)
    }

    fn config(cmode: CMode) -> DsfaConfig {
        DsfaConfig {
            ebuf_size: 6,
            mb_size: 3,
            mt_th: TimeDelta::from_millis(50),
            md_th: 1.0,
            cmode,
        }
    }

    #[test]
    fn config_validation() {
        assert!(DsfaConfig::default().validate().is_ok());
        let bad = DsfaConfig {
            mb_size: 10,
            ebuf_size: 4,
            ..DsfaConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(Dsfa::new(bad).is_err());
    }

    #[test]
    fn cadd_merges_within_bucket() {
        let mut dsfa = Dsfa::new(config(CMode::CAdd)).unwrap();
        // 7 identical frames: overflow after the 7th (occupancy 7 > 6).
        let mut batch = None;
        for k in 0..7 {
            batch = dsfa.push(uniform_frame(k * 5, 8)).unwrap();
            if batch.is_some() {
                assert_eq!(k, 6);
            }
        }
        let batch = batch.expect("buffer overflowed");
        // 3 buckets: 3 + 3 + 1 frames.
        assert_eq!(batch.batch_size(), 3);
        assert_eq!(batch.frames[0].merged_count, 3);
        assert_eq!(batch.frames[2].merged_count, 1);
        // cAdd: merged pixel value = 3 (three frames of 1.0).
        assert_eq!(batch.frames[0].frame.tensor().get(0, 0, 0), 3.0);
        assert_eq!(batch.event_count(), 7 * 8);
        assert_eq!(dsfa.occupancy(), 0);
    }

    #[test]
    fn caverage_scales_merged_values() {
        let cfg = DsfaConfig {
            ebuf_size: 2,
            mb_size: 2,
            ..config(CMode::CAverage)
        };
        let mut dsfa = Dsfa::new(cfg).unwrap();
        assert!(dsfa.push(uniform_frame(0, 4)).unwrap().is_none());
        assert!(dsfa.push(uniform_frame(5, 4)).unwrap().is_none());
        let batch = dsfa.push(uniform_frame(10, 4)).unwrap().expect("overflow");
        assert_eq!(batch.frames[0].frame.tensor().get(0, 0, 0), 1.0); // (1+1)/2
    }

    #[test]
    fn cbatch_never_merges() {
        let mut dsfa = Dsfa::new(config(CMode::CBatch)).unwrap();
        let mut batch = None;
        for k in 0..7 {
            batch = dsfa.push(uniform_frame(k * 5, 4)).unwrap();
        }
        let batch = batch.expect("overflow");
        assert_eq!(batch.batch_size(), 7); // one bucket per frame
        assert!(batch.frames.iter().all(|f| f.merged_count == 1));
        assert_eq!(dsfa.aggregation_aggressiveness(), 0.0);
    }

    #[test]
    fn mt_th_closes_stale_buckets() {
        let cfg = DsfaConfig {
            mt_th: TimeDelta::from_millis(8),
            ..config(CMode::CAdd)
        };
        let mut dsfa = Dsfa::new(cfg).unwrap();
        dsfa.push(uniform_frame(0, 4)).unwrap();
        // 20 ms later: exceeds MtTh → first bucket closes, new bucket opens.
        dsfa.push(uniform_frame(20, 4)).unwrap();
        assert_eq!(dsfa.stats().mt_th_closures, 1);
        let batch = dsfa.flush(Timestamp::from_millis(30)).unwrap();
        assert_eq!(batch.batch_size(), 2);
    }

    #[test]
    fn md_th_closes_on_density_jump() {
        let cfg = DsfaConfig {
            md_th: 0.5,
            ..config(CMode::CAdd)
        };
        let mut dsfa = Dsfa::new(cfg).unwrap();
        dsfa.push(uniform_frame(0, 8)).unwrap();
        // 4x density jump: relative change 3.0 > 0.5 → close bucket.
        dsfa.push(uniform_frame(5, 32)).unwrap();
        assert_eq!(dsfa.stats().md_th_closures, 1);
        let batch = dsfa.flush(Timestamp::from_millis(10)).unwrap();
        assert_eq!(batch.batch_size(), 2);
        assert_eq!(batch.frames[0].merged_count, 1);
    }

    #[test]
    fn similar_density_frames_share_bucket() {
        let cfg = DsfaConfig {
            md_th: 0.5,
            ..config(CMode::CAdd)
        };
        let mut dsfa = Dsfa::new(cfg).unwrap();
        dsfa.push(uniform_frame(0, 8)).unwrap();
        dsfa.push(uniform_frame(5, 9)).unwrap(); // 12.5% change: ok
        assert_eq!(dsfa.stats().md_th_closures, 0);
        let batch = dsfa.flush(Timestamp::from_millis(10)).unwrap();
        assert_eq!(batch.batch_size(), 1);
        assert_eq!(batch.frames[0].merged_count, 2);
    }

    #[test]
    fn flush_empties_and_counts() {
        let mut dsfa = Dsfa::new(config(CMode::CAdd)).unwrap();
        assert!(dsfa.flush(Timestamp::ZERO).is_none());
        dsfa.push(uniform_frame(0, 4)).unwrap();
        let batch = dsfa.flush(Timestamp::from_millis(7)).unwrap();
        assert_eq!(batch.emitted_at, Timestamp::from_millis(7));
        assert_eq!(dsfa.occupancy(), 0);
        assert_eq!(dsfa.stats().early_flushes, 1);
        assert!(dsfa.flush(Timestamp::from_millis(8)).is_none());
    }

    #[test]
    fn empty_frames_join_empty_buckets() {
        // Zero-density frames must not divide by zero.
        let mut dsfa = Dsfa::new(config(CMode::CAdd)).unwrap();
        dsfa.push(frame_at(0, vec![], 0)).unwrap();
        dsfa.push(frame_at(5, vec![], 0)).unwrap();
        let batch = dsfa.flush(Timestamp::from_millis(10)).unwrap();
        assert_eq!(batch.batch_size(), 1);
        assert_eq!(batch.frames[0].merged_count, 2);
    }

    #[test]
    fn nonempty_frame_does_not_join_empty_bucket() {
        let mut dsfa = Dsfa::new(config(CMode::CAdd)).unwrap();
        dsfa.push(frame_at(0, vec![], 0)).unwrap();
        dsfa.push(uniform_frame(5, 8)).unwrap(); // infinite density change
        assert_eq!(dsfa.stats().md_th_closures, 1);
        let batch = dsfa.flush(Timestamp::from_millis(10)).unwrap();
        assert_eq!(batch.batch_size(), 2);
    }

    #[test]
    fn aggregation_aggressiveness_tracks_merging() {
        let cfg = DsfaConfig {
            ebuf_size: 6,
            mb_size: 3,
            mt_th: TimeDelta::from_millis(1000),
            md_th: 10.0,
            cmode: CMode::CAdd,
        };
        let mut dsfa = Dsfa::new(cfg).unwrap();
        for k in 0..7 {
            dsfa.push(uniform_frame(k * 2, 8)).unwrap();
        }
        // Merge factor 7/3 → aggressiveness 1 − 3/7 ≈ 0.57.
        let a = dsfa.aggregation_aggressiveness();
        assert!(a > 0.4 && a <= 1.0, "aggressiveness {a}");
        let window_stats = dsfa.stats();
        assert_eq!(window_stats.frames_in, 7);
        assert!((window_stats.mean_merge_factor() - 7.0 / 3.0).abs() < 1e-9);
    }
}
