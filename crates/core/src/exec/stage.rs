//! Frontend stages between E2SF and the inference queues.
//!
//! The paper's Figure 4 system is a pipeline of stages: the
//! Event2Sparse-Frame converter bins raw events, the Dynamic Sparse
//! Frame Aggregator merges frames, and merged batches enter bounded
//! inference queues (whose backpressure — the §4.2 oldest-drop rule —
//! lives in [`crate::exec::engine::ExecEngine`]). A [`Stage`] consumes
//! inputs, may emit zero or more outputs per input, and can be flushed
//! at a simulated instant (DSFA's hardware-availability rule, which the
//! streaming driver applies between frames).
//!
//! # Examples
//!
//! ```
//! use ev_core::event::{Event, Polarity, SensorGeometry};
//! use ev_core::stream::EventSlice;
//! use ev_core::{TimeWindow, Timestamp};
//! use ev_edge::dsfa::DsfaConfig;
//! use ev_edge::e2sf::{E2sf, E2sfConfig};
//! use ev_edge::exec::stage::{DsfaStage, Stage};
//!
//! # fn main() -> Result<(), ev_edge::EvEdgeError> {
//! let events = EventSlice::new(
//!     SensorGeometry::DAVIS346,
//!     vec![Event::new(10, 20, Timestamp::from_millis(1), Polarity::On)],
//! )?;
//! let frames = E2sf::new(E2sfConfig::new(4))
//!     .convert(&events, TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(8)))?;
//! // The default event buffer holds all four frames: nothing is
//! // emitted until a flush, which batches them into one input.
//! let mut dsfa = DsfaStage::new(DsfaConfig::default())?;
//! for frame in frames {
//!     assert!(dsfa.push(frame)?.is_empty());
//! }
//! let jobs = dsfa.flush(Timestamp::from_millis(8))?;
//! assert_eq!(jobs.len(), 1);
//! assert_eq!(jobs[0].events, 1);
//! # Ok(())
//! # }
//! ```

use crate::dsfa::{Dsfa, DsfaConfig, MergedBatch};
use crate::exec::job::JobInput;
use crate::frame::SparseFrame;
use crate::EvEdgeError;
use ev_core::Timestamp;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2sf::{E2sf, E2sfConfig};
    use ev_core::event::{Event, Polarity, SensorGeometry};
    use ev_core::stream::EventSlice;
    use ev_core::TimeWindow;

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
    fn composed_frontend_matches_manual_pipeline() {
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20));
        let frames = E2sf::new(E2sfConfig::new(4))
            .convert(&test_events(), window)
            .unwrap();
        let config = DsfaConfig {
            ebuf_size: 2,
            mb_size: 2,
            ..DsfaConfig::default()
        };

        // E2SF frames through the stage.
        let mut stage = DsfaStage::new(config).unwrap();
        let mut stage_jobs = Vec::new();
        for frame in frames.clone() {
            stage_jobs.extend(stage.push(frame).unwrap());
        }
        stage_jobs.extend(stage.flush(window.end()).unwrap());

        // The same frames through the aggregator by hand.
        let mut dsfa = Dsfa::new(config).unwrap();
        let mut manual_jobs = Vec::new();
        for frame in frames {
            if let Some(batch) = dsfa.push(frame).unwrap() {
                manual_jobs.push(job_of_batch(&batch));
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            manual_jobs.push(job_of_batch(&batch));
        }
        assert_eq!(stage_jobs, manual_jobs);
        // One overflow batch plus the flushed remainder.
        assert_eq!(stage_jobs.len(), 2);
        assert_eq!(
            stage.aggregation_aggressiveness().to_bits(),
            dsfa.aggregation_aggressiveness().to_bits()
        );
    }
}
