//! Watermark admission control over the engine's load probe.
//!
//! The controller samples PE-timeline utilization — booked busy time
//! over elapsed capacity, via [`LoadProbe`] (backed by the service
//! driver's `DeviceTimeline` busy counters) — and
//! refuses new arrivals once it crosses the watermark. Shedding is
//! *reject-newest*: an arrival the watermark refuses never displaces
//! work that was already admitted, so admitted tenants keep their
//! latency bound while the overload lasts.

use crate::{ServeError, ShedReason};
use ev_core::TimeDelta;
use ev_edge::exec::LoadProbe;

/// Refuses arrivals once PE utilization crosses a watermark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionController {
    watermark: f64,
}

impl AdmissionController {
    /// A controller shedding at `watermark` mean per-queue utilization
    /// (values above `1.0` are legal: they admit until reservations are
    /// booked past real time by that factor).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] unless the watermark is
    /// finite and positive.
    pub fn new(watermark: f64) -> Result<Self, ServeError> {
        if !watermark.is_finite() || watermark <= 0.0 {
            return Err(ServeError::InvalidConfig {
                what: format!("admission watermark must be finite and positive, got {watermark}"),
            });
        }
        Ok(AdmissionController { watermark })
    }

    /// The configured watermark.
    pub fn watermark(&self) -> f64 {
        self.watermark
    }

    /// Admission decision for one arrival after `elapsed` time of the
    /// epoch: `Ok(utilization)` to admit, `Err(Saturated)` to shed.
    ///
    /// # Errors
    ///
    /// Returns [`ShedReason::Saturated`] when utilization has reached
    /// the watermark.
    pub fn check(&self, probe: &dyn LoadProbe, elapsed: TimeDelta) -> Result<f64, ShedReason> {
        let utilization = probe.device_utilization(elapsed);
        if utilization >= self.watermark {
            Err(ShedReason::Saturated {
                utilization,
                watermark: self.watermark,
            })
        } else {
            Ok(utilization)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned probe for controller-mechanics tests.
    struct Fixed {
        queues: usize,
        busy: TimeDelta,
    }

    impl LoadProbe for Fixed {
        fn device_queues(&self) -> usize {
            self.queues
        }
        fn device_busy_total(&self) -> TimeDelta {
            self.busy
        }
    }

    #[test]
    fn sheds_at_and_above_the_watermark() {
        let ctl = AdmissionController::new(0.75).unwrap();
        let probe = |busy_ms: i64| Fixed {
            queues: 2,
            busy: TimeDelta::from_millis(busy_ms),
        };
        let elapsed = TimeDelta::from_millis(100);
        // 100 of 200 queue-ms booked → 0.5 < 0.75: admit.
        assert!(ctl.check(&probe(100), elapsed).is_ok());
        // 160 of 200 queue-ms booked → 0.8 ≥ 0.75: shed, reporting both
        // sides of the comparison.
        assert!(matches!(
            ctl.check(&probe(160), elapsed),
            Err(ShedReason::Saturated { utilization, watermark })
                if (utilization - 0.8).abs() < 1e-12 && watermark == 0.75
        ));
        // Exactly at the watermark sheds (>=): pin the watermark to the
        // probe's own reading so the boundary is bit-exact.
        let at_mark = probe(150).device_utilization(elapsed);
        let exact = AdmissionController::new(at_mark).unwrap();
        assert!(exact.check(&probe(150), elapsed).is_err());
        // Before any time elapses utilization reads zero: always admit.
        assert!(ctl.check(&probe(150), TimeDelta::ZERO).is_ok());
    }

    #[test]
    fn watermark_validation() {
        assert!(AdmissionController::new(0.0).is_err());
        assert!(AdmissionController::new(-1.0).is_err());
        assert!(AdmissionController::new(f64::NAN).is_err());
        assert!(AdmissionController::new(f64::INFINITY).is_err());
        assert_eq!(AdmissionController::new(1.5).unwrap().watermark(), 1.5);
    }
}
