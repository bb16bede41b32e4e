//! # ev-serve — multi-tenant streaming service layer for Ev-Edge
//!
//! The paper evaluates the runtime as batch replays of *fixed* task
//! mixes; this crate is the front door that turns those replay drivers
//! into a long-lived service. Event streams are admitted and retired as
//! **tenants** ([`TenantRegistry`]). Each live tenant has one queue:
//! its bounded §4.2 inference queue in the exec core's [`ExecEngine`].
//! An arrival goes straight into that queue unless it is shed, newest
//! first: when PE-timeline utilization is at the watermark, or when the
//! queue is full. Tenant churn triggers incremental NMP remapping: the
//! live mix is re-tuned through the existing `AutoTuner` when it drifts
//! past a threshold, and otherwise carries the previous mapping over
//! ([`remap`]). Per-(platform × mix) tunings are cached and replayed
//! deterministically from their `NmpConfig`.
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

pub mod remap;
pub mod scenario;
pub mod service;
pub mod tenant;

pub use remap::{carry_over_mapping, mix_drift, MappingCache, MappingSource, MixEntry};
pub use scenario::{corner_frontend_scenario, synthetic_scenario};
pub use service::{
    run_service, ChurnAction, ChurnEvent, EpochRecord, ServeConfig, ServeOutcome, ServeReport,
    ServeScenario, ServeTotals, TenantReport,
};
pub use tenant::{TenantEntry, TenantRegistry, TenantSpec};

use core::fmt;
use ev_edge::EvEdgeError;

/// Errors produced by the service layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
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
        /// The registry's maximum.
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
    /// An exec-core error surfaced through the service.
    Edge(EvEdgeError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        let limit = ServeError::TenantLimit { max: 64 };
        assert!(limit.to_string().contains("64 live tenants"));
        let edge: ServeError = EvEdgeError::EmptyProblem.into();
        assert!(matches!(edge, ServeError::Edge(_)));
        assert_eq!(edge.to_string(), EvEdgeError::EmptyProblem.to_string());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
