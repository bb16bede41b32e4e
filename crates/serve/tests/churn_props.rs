//! Property: the service layer is bitwise deterministic under churn.
//!
//! For any interleaving of tenant joins and leaves, the serialized
//! [`ServeReport`] is byte-identical between `workers = 1` and
//! `workers = 8` — the worker count only fans out the tune search's
//! candidate evaluation, which is bitwise identical by contract, and
//! the service driver itself runs in simulated time on one thread.

use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_nn::zoo::NetworkId;
use ev_serve::{run_service, ChurnAction, ChurnEvent, ServeConfig, ServeScenario, TenantSpec};
use proptest::prelude::*;

const ROTATION: [NetworkId; 4] = [
    NetworkId::Dotie,
    NetworkId::E2Depth,
    NetworkId::Halsie,
    NetworkId::EvFlowNet,
];

fn spec(name: String, network: NetworkId, period_us: i64) -> TenantSpec {
    TenantSpec {
        name,
        network,
        period: TimeDelta::from_micros(period_us),
    }
}

/// Builds a valid scenario from raw proptest choices: `ops[i]` joins a
/// fresh tenant (`true`) or retires the most recent live one
/// (`false`, flipped to a join when nobody could leave), at
/// millisecond `2 + i` of a 6 ms window.
fn scenario_from(initial: usize, period_us: i64, ops: &[bool]) -> ServeScenario {
    let initial_specs: Vec<TenantSpec> = (0..initial)
        .map(|i| {
            spec(
                format!("t{i}"),
                ROTATION[i % ROTATION.len()],
                period_us + 100 * i as i64,
            )
        })
        .collect();
    let mut live: Vec<String> = initial_specs.iter().map(|s| s.name.clone()).collect();
    let mut churn = Vec::new();
    for (i, &join) in ops.iter().enumerate() {
        let at = Timestamp::from_millis(2 + i as u64);
        // A leave with at most one live tenant would empty the mix or
        // fail outright; join instead so every op stays meaningful.
        if join || live.len() <= 1 {
            let name = format!("j{i}");
            live.push(name.clone());
            churn.push(ChurnEvent {
                at,
                action: ChurnAction::Join(spec(
                    name,
                    ROTATION[(initial + i) % ROTATION.len()],
                    period_us + 50 * i as i64,
                )),
            });
        } else {
            let name = live.pop().expect("checked non-empty");
            churn.push(ChurnEvent {
                at,
                action: ChurnAction::Leave(name),
            });
        }
    }
    ServeScenario {
        initial: initial_specs,
        churn,
    }
}

fn quick_config(workers: usize) -> ServeConfig {
    let mut config = ServeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(6)));
    config.tune_population = 3;
    config.tune_generations = 2;
    config.workers = workers;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn reports_are_byte_identical_across_worker_counts(
        initial in 1..3usize,
        period_us in 500..1200i64,
        ops in prop::collection::vec(any::<bool>(), 0..3),
    ) {
        let scenario = scenario_from(initial, period_us, &ops);
        let serial = run_service(&scenario, &quick_config(1))
            .expect("serial run");
        let fanned = run_service(&scenario, &quick_config(8))
            .expect("fanned run");
        let serial_json = serde_json::to_string_pretty(&serial.report)
            .expect("serialize serial");
        let fanned_json = serde_json::to_string_pretty(&fanned.report)
            .expect("serialize fanned");
        prop_assert_eq!(serial_json.as_bytes(), fanned_json.as_bytes());
        // And the report round-trips losslessly.
        let back: ev_serve::ServeReport =
            serde_json::from_str(&serial_json).expect("deserialize");
        prop_assert_eq!(back, serial.report);
    }

    /// The heterogeneous corner-frontend scenario — a data-dependent
    /// GraphNet tenant in the initial mix and an always-on CornerNet
    /// frontend joining mid-window — keeps the same bar: byte-identical
    /// reports between `workers = 1` and `workers = 8`, and bit-for-bit
    /// cached-tuning replays in both runs.
    #[test]
    fn corner_frontend_reports_are_byte_identical_across_worker_counts(
        tenants in 1..3usize,
        pressure in 0.4f64..1.5,
    ) {
        let scenario = ev_serve::corner_frontend_scenario(&quick_config(1), tenants, pressure)
            .expect("valid scenario");
        let serial = run_service(&scenario, &quick_config(1)).expect("serial run");
        let fanned = run_service(&scenario, &quick_config(8)).expect("fanned run");
        let serial_json = serde_json::to_string_pretty(&serial.report)
            .expect("serialize serial");
        let fanned_json = serde_json::to_string_pretty(&fanned.report)
            .expect("serialize fanned");
        prop_assert_eq!(serial_json.as_bytes(), fanned_json.as_bytes());
        prop_assert!(serial.mappings.verify_replays(1).expect("replay check"));
        prop_assert!(fanned.mappings.verify_replays(8).expect("replay check"));
    }
}
