//! # ev-serve — multi-tenant streaming service layer for Ev-Edge
//!
//! The paper evaluates the runtime as batch replays of *fixed* task
//! mixes; this crate is the front door that turns those replay drivers
//! into a long-lived service. Event streams are admitted and retired as
//! **tenants** ([`TenantRegistry`]): each live tenant owns a bounded
//! ingress queue feeding the exec core's [`ExecEngine`] dispatch loop,
//! an [`AdmissionController`] sheds load (reject-newest, typed
//! [`Overloaded`]) when PE-timeline utilization crosses a watermark,
//! and tenant churn triggers incremental NMP remapping: the live mix is
//! re-tuned through the existing `AutoTuner` when it drifts past a
//! configurable threshold, and otherwise carries the previous mapping
//! over ([`remap`]). Per-(platform × mix) tunings are cached and
//! replayed deterministically from their `NmpConfig`.
//!
//! The whole service is driven in simulated time on one thread —
//! `workers` only fans out the tuner's sweep, which is byte-identical
//! at any worker count — so a [`ServeReport`] is bitwise reproducible
//! for a given scenario and seed, matching the determinism bar of the
//! sweep and conformance suites.
//!
//! [`ExecEngine`]: ev_edge::exec::ExecEngine
//!
//! ## Example
//!
//! ```
//! use ev_core::{TimeWindow, Timestamp};
//! use ev_serve::{run_service, synthetic_scenario, ServeConfig};
//!
//! # fn main() -> Result<(), ev_serve::ServeError> {
//! let mut config = ServeConfig::new(TimeWindow::new(
//!     Timestamp::ZERO,
//!     Timestamp::from_millis(8),
//! ));
//! config.tune_populations = vec![3];
//! config.tune_generations = vec![2];
//! // Two synthetic tenants fed above saturation, with one mid-run
//! // join/leave churn pair.
//! let scenario = synthetic_scenario(&config, 2, 0.5)?;
//! let outcome = run_service(&scenario, &config)?;
//! assert!(outcome.report.totals.shed() > 0, "oversaturated ingress must shed");
//! assert_eq!(outcome.report.totals.retunes, 1, "one join past the drift threshold");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod remap;
pub mod scenario;
pub mod service;
pub mod tenant;

pub use admission::AdmissionController;
pub use remap::{carry_over_mapping, mix_drift, MappingCache, MappingSource, MixEntry};
pub use scenario::{corner_frontend_scenario, synthetic_scenario};
pub use service::{
    run_service, ChurnAction, ChurnEvent, EpochRecord, ServeConfig, ServeOutcome, ServeReport,
    ServeScenario, ServeTotals, TenantReport,
};
pub use tenant::{TenantEntry, TenantId, TenantRegistry, TenantSpec};

use core::fmt;
use ev_core::Timestamp;
use ev_edge::EvEdgeError;

/// Why an arrival was shed at the front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedReason {
    /// PE-timeline utilization reached the admission watermark.
    Saturated {
        /// Observed mean per-queue utilization at the arrival.
        utilization: f64,
        /// The configured watermark it crossed.
        watermark: f64,
    },
    /// The tenant's bounded ingress queue was full (reject-newest: the
    /// arriving input is refused, queued work is never displaced).
    IngressFull {
        /// The ingress queue capacity.
        capacity: usize,
    },
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::Saturated {
                utilization,
                watermark,
            } => write!(
                f,
                "PE utilization {utilization:.3} at watermark {watermark:.3}"
            ),
            ShedReason::IngressFull { capacity } => {
                write!(f, "ingress queue full (capacity {capacity})")
            }
        }
    }
}

/// A typed load-shedding rejection: the service refused one arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Overloaded {
    /// The tenant whose arrival was shed.
    pub tenant: String,
    /// When the arrival was refused.
    pub at: Timestamp,
    /// Why it was refused.
    pub reason: ShedReason,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant `{}` overloaded at {}: {}",
            self.tenant, self.at, self.reason
        )
    }
}

/// Errors produced by the service layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// An arrival was refused by admission control.
    Overloaded(Overloaded),
    /// No live tenant has this name.
    UnknownTenant {
        /// The name that failed to resolve.
        name: String,
    },
    /// A live tenant already has this name.
    DuplicateTenant {
        /// The conflicting name.
        name: String,
    },
    /// The registry is at its tenant limit.
    TenantLimit {
        /// The configured maximum.
        max: usize,
    },
    /// A tenant spec is malformed.
    InvalidTenant {
        /// The offending tenant name.
        name: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A service configuration or scenario field is out of range.
    InvalidConfig {
        /// What is wrong with it.
        what: String,
    },
    /// The tuner produced no selection for a live mix (a sweep-grid
    /// mismatch — the tune spec must cover the mix it was built for).
    NoSelection {
        /// The mix display name.
        mix: String,
    },
    /// A tenant has no slot in the per-tenant accounting table — the
    /// registry and the accumulators disagree. Surfaced as an error so
    /// a broken bookkeeping invariant fails loudly in release builds
    /// instead of panicking on (or silently misattributing to) a wrong
    /// index.
    MissingAccumulator {
        /// The tenant whose accumulator failed to resolve.
        name: String,
        /// Its registry-assigned id.
        id: u64,
    },
    /// An exec-core error surfaced through the service.
    Edge(EvEdgeError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded(o) => write!(f, "{o}"),
            ServeError::UnknownTenant { name } => write!(f, "unknown tenant `{name}`"),
            ServeError::DuplicateTenant { name } => {
                write!(f, "tenant `{name}` is already admitted")
            }
            ServeError::TenantLimit { max } => {
                write!(f, "tenant limit reached ({max} live tenants)")
            }
            ServeError::InvalidTenant { name, reason } => {
                write!(f, "invalid tenant `{name}`: {reason}")
            }
            ServeError::InvalidConfig { what } => write!(f, "invalid service config: {what}"),
            ServeError::NoSelection { mix } => {
                write!(f, "auto-tune produced no selection for mix {mix}")
            }
            ServeError::MissingAccumulator { name, id } => write!(
                f,
                "tenant `{name}` (id {id}) has no accounting slot — registry \
                 and accumulator table disagree"
            ),
            ServeError::Edge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EvEdgeError> for ServeError {
    fn from(e: EvEdgeError) -> Self {
        ServeError::Edge(e)
    }
}

impl From<Overloaded> for ServeError {
    fn from(o: Overloaded) -> Self {
        ServeError::Overloaded(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        let o = Overloaded {
            tenant: "cam-0".to_string(),
            at: Timestamp::from_millis(3),
            reason: ShedReason::Saturated {
                utilization: 0.91,
                watermark: 0.75,
            },
        };
        let e: ServeError = o.clone().into();
        assert!(e.to_string().contains("cam-0"));
        assert!(e.to_string().contains("0.910"));
        let full: ServeError = Overloaded {
            reason: ShedReason::IngressFull { capacity: 4 },
            ..o
        }
        .into();
        assert!(full.to_string().contains("capacity 4"));
        let edge: ServeError = EvEdgeError::EmptyProblem.into();
        assert!(matches!(edge, ServeError::Edge(_)));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
