//! Synthetic churn scenarios for the `serve_sim` bin and tests.
//!
//! [`synthetic_scenario`] sizes each tenant's arrival period from the
//! *joined* mix's own critical-path latencies (the sweep module's
//! near-saturation rule, ¾ of per-task latency), then scales them by a
//! `pressure` factor: `1.0` arrives right at saturation, `0.5` at
//! twice the sustainable rate — which keeps the tenants' bounded queues
//! full and guarantees the service sheds, exercising it end to end.
//! One tenant joins at 40% of the window and leaves at 70%, so every
//! run crosses a drift-triggered re-tune and a cache-replay epoch.

use crate::service::{ChurnAction, ChurnEvent, ServeConfig, ServeScenario, MAX_TENANTS};
use crate::tenant::TenantSpec;
use crate::ServeError;
use ev_core::TimeDelta;
use ev_edge::nmp::baseline;
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator};
use ev_edge::nmp::sweep::near_saturation_periods;
use ev_edge::nmp::TaskMix;
use ev_nn::zoo::NetworkId;

/// Network rotation for synthetic tenants (tenant `i` runs
/// `ROTATION[i % 7]`, the joiner runs `ROTATION[tenants % 7]`).
const ROTATION: [NetworkId; 7] = [
    NetworkId::Dotie,
    NetworkId::EvFlowNet,
    NetworkId::AdaptiveSpikeNet,
    NetworkId::E2Depth,
    NetworkId::Halsie,
    NetworkId::SpikeFlowNet,
    NetworkId::FusionFlowNet,
];

/// Builds a deterministic N-tenant churn scenario for `config`:
/// `tenants` initial streams plus one mid-run joiner
/// (`tenant-join`, joining at 40% and leaving at 70% of the window),
/// with per-tenant periods at `pressure` × the near-saturation rate of
/// the joined mix (`pressure < 1.0` oversubscribes the platform).
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for zero tenants,
/// non-positive/non-finite pressure, or a tenant count the registry
/// cannot admit; propagates problem-construction errors.
pub fn synthetic_scenario(
    config: &ServeConfig,
    tenants: usize,
    pressure: f64,
) -> Result<ServeScenario, ServeError> {
    let mut scenario = scenario_with_joiner(
        config,
        "synthetic",
        tenants,
        |i| ROTATION[i % ROTATION.len()],
        "tenant-join",
        pressure,
    )?;
    let start = config.window.start();
    let span = (config.window.end() - start).as_micros();
    scenario.churn.push(ChurnEvent {
        at: start + TimeDelta::from_micros(span * 7 / 10),
        action: ChurnAction::Leave("tenant-join".to_string()),
    });
    Ok(scenario)
}

/// Network rotation for the heterogeneous scenario's initial tenants:
/// the data-dependent GraphNet leads so every run carries at least one
/// event-graph workload alongside the classic inference networks.
const HETERO_ROTATION: [NetworkId; 4] = [
    NetworkId::GraphNet,
    NetworkId::Dotie,
    NetworkId::E2Depth,
    NetworkId::EvFlowNet,
];

/// Builds the heterogeneous churn scenario of `serve_sim --corner`:
/// `tenants` initial streams led by a GraphNet tenant, plus an
/// always-on corner-detection frontend (`corner-frontend`, running
/// [`NetworkId::CornerNet`]) that joins at 40% of the window and — being
/// always-on — never leaves. Periods follow the same near-saturation
/// sizing as [`synthetic_scenario`], measured against the joined mix,
/// so the frontend's cheap high-rate stream rides alongside the
/// heavyweight inference tenants. The join still crosses the
/// drift-triggered re-tune path; there is no leave epoch.
///
/// # Errors
///
/// Same contract as [`synthetic_scenario`].
pub fn corner_frontend_scenario(
    config: &ServeConfig,
    tenants: usize,
    pressure: f64,
) -> Result<ServeScenario, ServeError> {
    scenario_with_joiner(
        config,
        "corner-frontend",
        tenants,
        |i| {
            if i < tenants {
                HETERO_ROTATION[i % HETERO_ROTATION.len()]
            } else {
                NetworkId::CornerNet
            }
        },
        "corner-frontend",
        pressure,
    )
}

/// What both builders share: `tenants` initial streams (`tenant-NN`)
/// and one `joiner` joining at 40% of the window, where stream `i` runs
/// `network_of(i)` and the joiner is stream `tenants`. Every period is
/// `pressure` × the near-saturation period of the *joined* mix under
/// RR-Network, so cadences stay put when the joiner arrives — its join
/// changes the mapping, not anyone's arrival phase. `kind` names the
/// scenario in error messages.
fn scenario_with_joiner(
    config: &ServeConfig,
    kind: &str,
    tenants: usize,
    network_of: impl Fn(usize) -> NetworkId,
    joiner: &str,
    pressure: f64,
) -> Result<ServeScenario, ServeError> {
    if tenants == 0 {
        return Err(ServeError::InvalidConfig {
            what: format!("{kind} scenario needs at least one tenant"),
        });
    }
    let slots = tenants.saturating_add(1);
    if slots > MAX_TENANTS {
        return Err(ServeError::InvalidConfig {
            what: format!(
                "{kind} scenario needs {slots} tenant slots, config allows {MAX_TENANTS}"
            ),
        });
    }
    if !pressure.is_finite() || pressure <= 0.0 {
        return Err(ServeError::InvalidConfig {
            what: format!("pressure must be finite and positive, got {pressure}"),
        });
    }

    let networks: Vec<NetworkId> = (0..=tenants).map(network_of).collect();
    let mix = TaskMix::Custom {
        networks: networks.clone(),
        delta_scale: 1.0,
    };
    let problem = mix.build_problem(config.platform.build(), &config.zoo.config())?;
    let rr = baseline::rr_network(&problem);
    let report = FitnessEvaluator::new(&problem, FitnessConfig::default()).evaluate(&rr)?;
    let periods: Vec<TimeDelta> = near_saturation_periods(&report)
        .into_iter()
        .map(|p| scaled_period(p, pressure))
        .collect::<Result<_, _>>()?;

    let initial = (0..tenants)
        .map(|i| TenantSpec {
            name: format!("tenant-{i:02}"),
            network: networks[i],
            period: periods[i],
        })
        .collect();
    let start = config.window.start();
    let span = (config.window.end() - start).as_micros();
    let churn = vec![ChurnEvent {
        at: start + TimeDelta::from_micros(span * 2 / 5),
        action: ChurnAction::Join(TenantSpec {
            name: joiner.to_string(),
            network: networks[tenants],
            period: periods[tenants],
        }),
    }];
    Ok(ServeScenario { initial, churn })
}

/// Largest synthetic arrival period: one hour of simulated time. Far
/// beyond any service window, and small enough that downstream phase
/// arithmetic (`joined_at + k·period`) stays clear of timestamp
/// overflow.
const MAX_PERIOD_US: i64 = 3_600_000_000;

/// Scales one near-saturation period by `pressure`, validating the
/// result instead of casting it. The old `(… as f64 * pressure) as i64`
/// silently saturated huge products to `i64::MAX` (overflowing phase
/// arithmetic later) and rounded sub-microsecond products toward a
/// clamp; both now fail loudly naming the pressure and the period.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] when the scaled period falls
/// outside `[1 µs, 1 hour]` or is not finite.
fn scaled_period(p: TimeDelta, pressure: f64) -> Result<TimeDelta, ServeError> {
    let scaled = p.as_micros() as f64 * pressure;
    if !scaled.is_finite() || scaled < 1.0 {
        return Err(ServeError::InvalidConfig {
            what: format!(
                "pressure {pressure} scales a {} µs period to {scaled} µs \
                 (must be at least 1 µs)",
                p.as_micros()
            ),
        });
    }
    if scaled > MAX_PERIOD_US as f64 {
        return Err(ServeError::InvalidConfig {
            what: format!(
                "pressure {pressure} scales a {} µs period to {scaled} µs \
                 (must be at most {MAX_PERIOD_US} µs)",
                p.as_micros()
            ),
        });
    }
    Ok(TimeDelta::from_micros(scaled as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::run_service;
    use crate::MappingSource;
    use ev_core::{TimeWindow, Timestamp};

    fn quick_config() -> ServeConfig {
        let mut config =
            ServeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(8)));
        config.tune_population = 3;
        config.tune_generations = 2;
        config
    }

    #[test]
    fn scenario_validation() {
        let config = quick_config();
        assert!(synthetic_scenario(&config, 0, 0.5).is_err());
        assert!(synthetic_scenario(&config, 2, 0.0).is_err());
        assert!(synthetic_scenario(&config, 2, f64::NAN).is_err());
        // 64 initial tenants and the joiner need 65 registry slots.
        let err = synthetic_scenario(&config, MAX_TENANTS, 0.5).unwrap_err();
        assert!(err.to_string().contains("65 tenant slots"), "{err}");
        // A count whose joiner slot would overflow is rejected, not added.
        assert!(synthetic_scenario(&config, usize::MAX, 0.5).is_err());
        // The corner-frontend builder runs the same checks under its name.
        let err = corner_frontend_scenario(&config, MAX_TENANTS, 0.5).unwrap_err();
        assert!(
            err.to_string()
                .starts_with("invalid service config: corner-frontend scenario needs 65"),
            "{err}"
        );
    }

    #[test]
    fn scaled_periods_are_validated_not_cast() {
        let p = TimeDelta::from_micros(10);
        // Exactly 1 µs is the smallest representable period.
        assert_eq!(scaled_period(p, 0.1).unwrap(), TimeDelta::from_micros(1));
        // Below it the old cast clamped; now it names the pressure.
        let err = scaled_period(p, 0.05).unwrap_err();
        assert!(err.to_string().contains("0.05"), "{err}");
        assert!(err.to_string().contains("at least 1"), "{err}");
        // The hour cap is inclusive; one step past it fails instead of
        // saturating to i64::MAX like the old `as i64`.
        let hour = TimeDelta::from_micros(MAX_PERIOD_US);
        assert_eq!(scaled_period(hour, 1.0).unwrap(), hour);
        let err = scaled_period(hour, 2.0).unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
        // An overflow-scale product is an error, not i64::MAX.
        assert!(scaled_period(p, 1e30).is_err());
        // Non-finite products are caught even past the pressure check.
        assert!(scaled_period(p, f64::INFINITY).is_err());
        // End to end: a pressure that collapses every period below 1 µs
        // fails scenario construction loudly.
        let config = quick_config();
        assert!(matches!(
            synthetic_scenario(&config, 2, 1e-12),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn oversaturated_scenario_sheds_and_retunes_exactly_once() {
        let config = quick_config();
        let scenario = synthetic_scenario(&config, 2, 0.5).unwrap();
        assert_eq!(scenario.initial.len(), 2);
        assert_eq!(scenario.churn.len(), 2);
        let outcome = run_service(&scenario, &config).unwrap();
        let report = &outcome.report;
        // Above saturation the front door must shed...
        assert!(report.totals.shed() > 0, "expected load shedding");
        // ...and nothing admitted is lost to engine-queue drops.
        assert_eq!(report.totals.dropped, 0);
        assert_eq!(
            report.totals.arrivals,
            report.totals.admitted + report.totals.shed()
        );
        // Join drifts past the threshold (1/3 > 0.1) → exactly one
        // re-tune; the leave returns to the cached initial mix.
        assert_eq!(report.totals.retunes, 1);
        assert_eq!(
            report.epochs.iter().map(|e| e.mapping).collect::<Vec<_>>(),
            vec![
                MappingSource::Tuned,
                MappingSource::Tuned,
                MappingSource::Cached
            ]
        );
        // Every cached tuning replays bit for bit from its NmpConfig.
        assert!(outcome.mappings.verify_replays(config.workers).unwrap());
    }

    #[test]
    fn corner_frontend_scenario_is_heterogeneous_and_always_on() {
        let config = quick_config();
        let scenario = corner_frontend_scenario(&config, 2, 0.5).unwrap();
        // The initial mix leads with the data-dependent GraphNet.
        assert_eq!(scenario.initial[0].network, NetworkId::GraphNet);
        // One churn event: the corner frontend joins and never leaves.
        assert_eq!(scenario.churn.len(), 1);
        let ChurnAction::Join(joiner) = &scenario.churn[0].action else {
            panic!("expected a join event");
        };
        assert_eq!(joiner.name, "corner-frontend");
        assert_eq!(joiner.network, NetworkId::CornerNet);
        let outcome = run_service(&scenario, &config).unwrap();
        let report = &outcome.report;
        // The join drifts past the threshold → exactly one re-tune and
        // no post-leave epoch (the frontend stays).
        assert_eq!(report.totals.retunes, 1);
        assert_eq!(
            report.epochs.iter().map(|e| e.mapping).collect::<Vec<_>>(),
            vec![MappingSource::Tuned, MappingSource::Tuned]
        );
        let frontend = report
            .tenants
            .iter()
            .find(|t| t.name == "corner-frontend")
            .expect("frontend accounted");
        assert!(frontend.left_at_us.is_none(), "always-on tenant left");
        assert!(frontend.arrivals > 0);
        assert!(outcome.mappings.verify_replays(config.workers).unwrap());
        // Validation matches the synthetic scenario's contract.
        assert!(corner_frontend_scenario(&config, 0, 0.5).is_err());
        assert!(corner_frontend_scenario(&config, 2, f64::NAN).is_err());
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let config = quick_config();
        let scenario = synthetic_scenario(&config, 2, 0.5).unwrap();
        let serial = run_service(&scenario, &config).unwrap().report;
        let mut fanned = config.clone();
        fanned.workers = 8;
        let parallel = run_service(&scenario, &fanned).unwrap().report;
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}
