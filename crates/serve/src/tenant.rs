//! Tenant identity and lifecycle: who is streaming right now.
//!
//! A tenant is one event stream with a service contract — the network
//! it runs and the cadence its batches arrive at. The registry keeps one
//! table: every tenant it admitted, live and retired, in admission
//! order, each entry with its own service counters. A tenant's index in
//! that table is its accounting slot, and the live tenants, in table
//! order, are the task order of every epoch's mapping problem, so
//! mappings and reports never depend on hash or name ordering.

use crate::ServeError;
use ev_core::{TimeDelta, Timestamp};
use ev_edge::nmp::TaskMix;
use ev_nn::zoo::NetworkId;

/// What a stream asks for at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique (among live tenants) display name.
    pub name: String,
    /// The network this tenant's events run through.
    pub network: NetworkId,
    /// Cadence of the tenant's event-batch arrivals.
    pub period: TimeDelta,
}

/// A tenant's service counters, summed over the epochs it was live.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct TenantCounters {
    /// Event-batch arrivals offered.
    pub arrivals: u64,
    /// Arrivals admitted into the tenant's engine queue.
    pub admitted: u64,
    /// Arrivals shed at the utilization watermark.
    pub shed_saturated: u64,
    /// Arrivals shed because the engine queue was full.
    pub shed_ingress_full: u64,
    /// Inferences completed.
    pub completed: u64,
    /// Admitted inputs the engine queue dropped.
    pub dropped: u64,
    /// Input-to-completion latency summed over completed inferences, µs.
    pub latency_sum_us: i64,
    /// Worst input-to-completion latency, µs.
    pub max_latency_us: i64,
    /// Energy attributed by device-occupancy share, mJ.
    pub energy_mj: f64,
}

/// One admitted tenant: its spec, its lifetime and its counters.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEntry {
    /// The admission contract.
    pub spec: TenantSpec,
    /// When the tenant joined — its arrival *phase*: the stream keeps
    /// this cadence anchor across epoch boundaries.
    pub joined_at: Timestamp,
    /// When the tenant left (`None` while it is live).
    pub left_at: Option<Timestamp>,
    /// What the service did with its arrivals.
    pub(crate) counters: TenantCounters,
}

/// Admits and retires tenants; owns the one tenant table.
#[derive(Debug, Clone)]
pub struct TenantRegistry {
    tenants: Vec<TenantEntry>,
    max_tenants: usize,
}

impl TenantRegistry {
    /// An empty registry admitting at most `max_tenants` live tenants.
    pub fn new(max_tenants: usize) -> Self {
        TenantRegistry {
            tenants: Vec::new(),
            max_tenants,
        }
    }

    /// Admits a tenant at `now`, returning its slot: its index in the
    /// table of every tenant admitted so far.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTenant`] for an empty name or
    /// non-positive period, [`ServeError::DuplicateTenant`] when a live
    /// tenant already has the name, and [`ServeError::TenantLimit`]
    /// when the registry is full.
    pub fn admit(&mut self, spec: TenantSpec, now: Timestamp) -> Result<usize, ServeError> {
        if spec.name.is_empty() {
            return Err(ServeError::InvalidTenant {
                name: spec.name,
                reason: "name must be non-empty",
            });
        }
        if spec.period.as_micros() <= 0 {
            return Err(ServeError::InvalidTenant {
                name: spec.name,
                reason: "arrival period must be positive",
            });
        }
        if self.live().any(|t| t.spec.name == spec.name) {
            return Err(ServeError::DuplicateTenant { name: spec.name });
        }
        if self.live().count() >= self.max_tenants {
            return Err(ServeError::TenantLimit {
                max: self.max_tenants,
            });
        }
        self.tenants.push(TenantEntry {
            spec,
            joined_at: now,
            left_at: None,
            counters: TenantCounters::default(),
        });
        Ok(self.tenants.len() - 1)
    }

    /// Retires the live tenant named `name` at `now`; its entry stays in
    /// the table with its counters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTenant`] when no live tenant has
    /// the name.
    pub fn retire(&mut self, name: &str, now: Timestamp) -> Result<(), ServeError> {
        let entry = self
            .live_mut()
            .find(|t| t.spec.name == name)
            .ok_or_else(|| ServeError::UnknownTenant {
                name: name.to_string(),
            })?;
        entry.left_at = Some(now);
        Ok(())
    }

    /// Every admitted tenant, live and retired, in admission order.
    pub(crate) fn into_tenants(self) -> Vec<TenantEntry> {
        self.tenants
    }

    /// The live tenants, in admission order.
    pub fn live(&self) -> impl Iterator<Item = &TenantEntry> {
        self.tenants.iter().filter(|t| t.left_at.is_none())
    }

    /// The live tenants, in admission order, for accounting.
    pub(crate) fn live_mut(&mut self) -> impl Iterator<Item = &mut TenantEntry> {
        self.tenants.iter_mut().filter(|t| t.left_at.is_none())
    }

    /// Whether no tenant is live.
    pub fn is_empty(&self) -> bool {
        self.live().next().is_none()
    }

    /// The live networks, in admission order.
    pub fn networks(&self) -> Vec<NetworkId> {
        self.live().map(|t| t.spec.network).collect()
    }

    /// The live mix as a mapping workload (paper ΔA budgets, unscaled).
    pub fn mix(&self) -> TaskMix {
        TaskMix::Custom {
            networks: self.networks(),
            delta_scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, network: NetworkId) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            network,
            period: TimeDelta::from_millis(2),
        }
    }

    #[test]
    fn admission_order_is_identity_order() {
        let mut reg = TenantRegistry::new(4);
        let a = reg
            .admit(spec("a", NetworkId::Dotie), Timestamp::ZERO)
            .unwrap();
        let b = reg
            .admit(spec("b", NetworkId::E2Depth), Timestamp::from_millis(1))
            .unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(reg.networks(), vec![NetworkId::Dotie, NetworkId::E2Depth]);
        assert_eq!(
            reg.mix(),
            TaskMix::Custom {
                networks: vec![NetworkId::Dotie, NetworkId::E2Depth],
                delta_scale: 1.0,
            }
        );
        // Retire + re-admit under the same name: the retired entry keeps
        // its slot and its departure time, the newcomer takes a fresh
        // slot, and the live order updates.
        reg.retire("a", Timestamp::from_millis(2)).unwrap();
        let c = reg
            .admit(spec("a", NetworkId::Halsie), Timestamp::from_millis(2))
            .unwrap();
        assert_eq!(c, 2);
        assert_eq!(reg.networks(), vec![NetworkId::E2Depth, NetworkId::Halsie]);
        let left: Vec<_> = reg.into_tenants().iter().map(|t| t.left_at).collect();
        assert_eq!(left, [Some(Timestamp::from_millis(2)), None, None]);
    }

    #[test]
    fn admission_rejections() {
        let mut reg = TenantRegistry::new(1);
        assert!(matches!(
            reg.admit(spec("", NetworkId::Dotie), Timestamp::ZERO),
            Err(ServeError::InvalidTenant { .. })
        ));
        let mut bad = spec("x", NetworkId::Dotie);
        bad.period = TimeDelta::ZERO;
        assert!(matches!(
            reg.admit(bad, Timestamp::ZERO),
            Err(ServeError::InvalidTenant { .. })
        ));
        reg.admit(spec("x", NetworkId::Dotie), Timestamp::ZERO)
            .unwrap();
        assert!(matches!(
            reg.admit(spec("x", NetworkId::Dotie), Timestamp::ZERO),
            Err(ServeError::DuplicateTenant { .. })
        ));
        assert!(matches!(
            reg.admit(spec("y", NetworkId::Dotie), Timestamp::ZERO),
            Err(ServeError::TenantLimit { max: 1 })
        ));
        assert!(matches!(
            reg.retire("nope", Timestamp::ZERO),
            Err(ServeError::UnknownTenant { .. })
        ));
        // A retired tenant no longer counts against the limit.
        reg.retire("x", Timestamp::from_millis(1)).unwrap();
        reg.admit(spec("y", NetworkId::Dotie), Timestamp::from_millis(1))
            .unwrap();
    }
}
