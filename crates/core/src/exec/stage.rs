//! Composable frontend stages: E2SF → DSFA → inference queue.
//!
//! The paper's Figure 4 system is a pipeline of stages: the
//! Event2Sparse-Frame converter bins raw events, the Dynamic Sparse
//! Frame Aggregator merges frames, and merged batches enter bounded
//! inference queues (whose backpressure — the §4.2 oldest-drop rule —
//! lives in [`crate::exec::engine::ExecEngine`]). The [`Stage`] trait
//! makes that composition explicit: each stage consumes inputs, may emit
//! zero or more outputs per input, and can be flushed at a simulated
//! instant (DSFA's hardware-availability rule).
//!
//! # Examples
//!
//! ```
//! use ev_core::event::{Event, Polarity, SensorGeometry};
//! use ev_core::stream::EventSlice;
//! use ev_core::{TimeWindow, Timestamp};
//! use ev_edge::e2sf::E2sfConfig;
//! use ev_edge::exec::stage::{DirectStage, E2sfStage, Stage};
//!
//! # fn main() -> Result<(), ev_edge::EvEdgeError> {
//! let events = EventSlice::new(
//!     SensorGeometry::DAVIS346,
//!     vec![Event::new(10, 20, Timestamp::from_millis(1), Polarity::On)],
//! )?;
//! // E2SF slicing composed with the identity frontend: one inference
//! // input per sparse frame.
//! let mut chain = E2sfStage::new(E2sfConfig::new(4), events).then(DirectStage);
//! let jobs = chain.push(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(8)))?;
//! assert_eq!(jobs.len(), 4);
//! # Ok(())
//! # }
//! ```

use crate::dsfa::{Dsfa, DsfaConfig, MergedBatch};
use crate::e2sf::{E2sf, E2sfConfig, E2sfScratch};
use crate::exec::job::JobInput;
use crate::frame::SparseFrame;
use crate::EvEdgeError;
use ev_core::stream::EventSlice;
use ev_core::{TimeWindow, Timestamp};

/// One stage of a streaming frontend.
pub trait Stage {
    /// What the stage consumes.
    type In;
    /// What the stage emits.
    type Out;

    /// Feeds one input; returns everything the stage emits in response
    /// (possibly nothing — aggregating stages buffer).
    ///
    /// # Errors
    ///
    /// Propagates stage-specific failures.
    fn push(&mut self, input: Self::In) -> Result<Vec<Self::Out>, EvEdgeError>;

    /// Forces out buffered state at simulated time `at` (e.g. DSFA's
    /// early dispatch when the hardware is already idle).
    ///
    /// # Errors
    ///
    /// Propagates stage-specific failures.
    fn flush(&mut self, at: Timestamp) -> Result<Vec<Self::Out>, EvEdgeError>;

    /// Chains `next` after this stage.
    fn then<S: Stage<In = Self::Out>>(self, next: S) -> Compose<Self, S>
    where
        Self: Sized,
    {
        Compose {
            first: self,
            second: next,
        }
    }
}

/// Two stages composed in sequence.
#[derive(Debug)]
pub struct Compose<A, B> {
    first: A,
    second: B,
}

impl<A: Stage, B: Stage<In = A::Out>> Stage for Compose<A, B> {
    type In = A::In;
    type Out = B::Out;

    fn push(&mut self, input: A::In) -> Result<Vec<B::Out>, EvEdgeError> {
        let mut out = Vec::new();
        for mid in self.first.push(input)? {
            out.extend(self.second.push(mid)?);
        }
        Ok(out)
    }

    fn flush(&mut self, at: Timestamp) -> Result<Vec<B::Out>, EvEdgeError> {
        let mut out = Vec::new();
        for mid in self.first.flush(at)? {
            out.extend(self.second.push(mid)?);
        }
        out.extend(self.second.flush(at)?);
        Ok(out)
    }
}

/// The E2SF converter as a stage: each pushed grayscale-frame interval
/// emits that interval's sparse event frames (paper §4.1).
#[derive(Debug)]
pub struct E2sfStage {
    e2sf: E2sf,
    events: EventSlice,
    scratch: E2sfScratch,
}

impl E2sfStage {
    /// A stage binning `events` with `config`.
    pub fn new(config: E2sfConfig, events: EventSlice) -> Self {
        E2sfStage {
            e2sf: E2sf::new(config),
            events,
            scratch: E2sfScratch::new(),
        }
    }
}

impl Stage for E2sfStage {
    type In = TimeWindow;
    type Out = SparseFrame;

    fn push(&mut self, interval: TimeWindow) -> Result<Vec<SparseFrame>, EvEdgeError> {
        self.e2sf
            .convert_with(&self.events, interval, &mut self.scratch)
    }

    fn flush(&mut self, _at: Timestamp) -> Result<Vec<SparseFrame>, EvEdgeError> {
        Ok(Vec::new()) // stateless between intervals
    }
}

fn job_of_batch(batch: &MergedBatch) -> JobInput {
    JobInput {
        ready: batch.emitted_at,
        batch: batch.batch_size(),
        density: batch.mean_density(),
        events: batch.event_count(),
    }
}

/// The DSFA aggregator as a stage: sparse frames in, batched inference
/// inputs out (paper §4.2).
#[derive(Debug)]
pub struct DsfaStage {
    dsfa: Dsfa,
}

impl DsfaStage {
    /// A stage aggregating under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidDsfaConfig`] for inconsistent
    /// configurations.
    pub fn new(config: DsfaConfig) -> Result<Self, EvEdgeError> {
        Ok(DsfaStage {
            dsfa: Dsfa::new(config)?,
        })
    }

    /// How aggressively frames were merged so far, in `[0, 1]` (feeds
    /// the accuracy model's aggregation term).
    pub fn aggregation_aggressiveness(&self) -> f64 {
        self.dsfa.aggregation_aggressiveness()
    }
}

impl Stage for DsfaStage {
    type In = SparseFrame;
    type Out = JobInput;

    fn push(&mut self, frame: SparseFrame) -> Result<Vec<JobInput>, EvEdgeError> {
        Ok(self.dsfa.push(frame)?.iter().map(job_of_batch).collect())
    }

    fn flush(&mut self, at: Timestamp) -> Result<Vec<JobInput>, EvEdgeError> {
        Ok(self.dsfa.flush(at).iter().map(job_of_batch).collect())
    }
}

/// The identity frontend: every sparse frame becomes its own
/// single-frame inference input (the non-DSFA pipeline variants).
#[derive(Debug, Default)]
pub struct DirectStage;

impl Stage for DirectStage {
    type In = SparseFrame;
    type Out = JobInput;

    fn push(&mut self, frame: SparseFrame) -> Result<Vec<JobInput>, EvEdgeError> {
        Ok(vec![JobInput {
            ready: frame.ready_at(),
            batch: 1,
            density: frame.spatial_density(),
            events: frame.event_count(),
        }])
    }

    fn flush(&mut self, _at: Timestamp) -> Result<Vec<JobInput>, EvEdgeError> {
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::event::{Event, Polarity, SensorGeometry};

    fn test_events() -> EventSlice {
        let g = SensorGeometry::DAVIS346;
        let events = (0..200u64)
            .map(|k| {
                Event::new(
                    (k % 40) as u16,
                    (k % 30) as u16,
                    Timestamp::from_micros(k * 100),
                    if k % 2 == 0 {
                        Polarity::On
                    } else {
                        Polarity::Off
                    },
                )
            })
            .collect();
        EventSlice::new(g, events).unwrap()
    }

    #[test]
    fn e2sf_stage_emits_bins_per_interval() {
        let mut stage = E2sfStage::new(E2sfConfig::new(4), test_events());
        let frames = stage
            .push(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20)))
            .unwrap();
        assert_eq!(frames.len(), 4);
        assert!(stage.flush(Timestamp::from_millis(20)).unwrap().is_empty());
    }

    #[test]
    fn composed_frontend_matches_manual_pipeline() {
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20));
        let events = test_events();

        // Composed: E2SF → DSFA.
        let mut composed = E2sfStage::new(E2sfConfig::new(4), events.clone())
            .then(DsfaStage::new(DsfaConfig::default()).unwrap());
        let mut composed_jobs = composed.push(window).unwrap();
        composed_jobs.extend(composed.flush(window.end()).unwrap());

        // Manual: convert, then aggregate.
        let frames = E2sf::new(E2sfConfig::new(4))
            .convert(&events, window)
            .unwrap();
        let mut dsfa = Dsfa::new(DsfaConfig::default()).unwrap();
        let mut manual_jobs = Vec::new();
        for frame in frames {
            if let Some(batch) = dsfa.push(frame).unwrap() {
                manual_jobs.push(job_of_batch(&batch));
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            manual_jobs.push(job_of_batch(&batch));
        }
        assert_eq!(composed_jobs, manual_jobs);
        assert!(!composed_jobs.is_empty());
    }

    #[test]
    fn direct_stage_is_one_to_one() {
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(10));
        let frames = E2sf::new(E2sfConfig::new(2))
            .convert(&test_events(), window)
            .unwrap();
        let mut direct = DirectStage;
        let mut jobs = Vec::new();
        for frame in &frames {
            jobs.extend(direct.push(frame.clone()).unwrap());
        }
        assert_eq!(jobs.len(), frames.len());
        for (job, frame) in jobs.iter().zip(&frames) {
            assert_eq!(job.ready, frame.ready_at());
            assert_eq!(job.batch, 1);
            assert_eq!(job.events, frame.event_count());
        }
    }
}
