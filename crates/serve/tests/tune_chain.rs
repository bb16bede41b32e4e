//! evbench's `serve` check, in the test suite: for every tuning a
//! service run caches, the tuner chain over `ServeConfig::tune_spec_for`
//! (`AutoTuner::tune_spec`, `selection_for_mix`, `replay_search`)
//! selects the `NmpConfig` serve searched with and scores the same bits.

use ev_core::{TimeWindow, Timestamp};
use ev_edge::nmp::AutoTuner;
use ev_serve::{
    corner_frontend_scenario, run_service, synthetic_scenario, MappingSource, ServeConfig,
};

/// Runs one scenario at `serve_sim --quick`'s window and search, checks
/// every tuning it caches, and returns how many it checked.
fn check(corner: bool, tenants: usize, pressure: f64, workers: usize) -> usize {
    let case =
        format!("corner {corner}, {tenants} tenants, pressure {pressure}, workers {workers}");
    let mut config = ServeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(8)));
    (config.tune_population, config.tune_generations) = (3, 2);
    config.workers = workers;
    let scenario = if corner {
        corner_frontend_scenario(&config, tenants, pressure)
    } else {
        synthetic_scenario(&config, tenants, pressure)
    };
    let outcome = run_service(&scenario.unwrap(), &config).unwrap();
    let entries = outcome.mappings.entries();
    for entry in entries {
        let spec = config.tune_spec_for(entry.mix.clone());
        let tuned = AutoTuner::new(config.objective)
            .tune_spec(&spec, 1)
            .unwrap();
        let selection = tuned
            .selection_for_mix(config.platform, &entry.mix)
            .expect(&case);
        let problem = entry
            .mix
            .build_problem(config.platform.build(), &config.zoo.config());
        let replay = selection.replay_search(&problem.unwrap()).unwrap();
        assert_eq!(selection.config, entry.nmp, "{case}");
        assert_eq!(replay.report.score.to_bits(), entry.score_bits, "{case}");
    }
    // What evbench reads: each tuned epoch records its cached tuning.
    let epochs = &outcome.report.epochs;
    let tuned = epochs.iter().filter(|e| e.mapping == MappingSource::Tuned);
    let cached = entries.iter().map(|e| (Some(e.nmp), Some(e.score_bits)));
    assert!(tuned.map(|e| (e.nmp, e.score_bits)).eq(cached), "{case}");
    entries.len()
}

#[test]
fn the_tuner_chain_selects_and_scores_serves_search() {
    let mut checked = 0;
    for corner in [false, true] {
        for tenants in 1..=4 {
            for pressure in [0.25, 0.5, 2.0] {
                for workers in [1, 0] {
                    checked += check(corner, tenants, pressure, workers);
                }
            }
        }
    }
    // Two tunings per run: the initial mix and the join.
    assert_eq!(checked, 2 * 4 * 3 * 2 * 2);
}
