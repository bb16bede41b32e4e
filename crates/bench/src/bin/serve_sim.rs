//! Extension: the multi-tenant streaming service layer, end to end —
//! N synthetic tenants arrive above the platform's sustainable rate,
//! one more joins and leaves mid-run, and the service admits, sheds,
//! and re-maps deterministically. Demonstrates the `crates/serve` front
//! door over the exec core: one bounded queue per tenant that sheds
//! the newest arrival at the utilization watermark or when full, and
//! churn-triggered incremental NMP remapping with bit-for-bit cached
//! replays.
//!
//! Flags (besides the common `--quick` / `--json <path>`):
//!
//! * `--tenants <n>` — initial tenant count (default 2 quick, 3 full;
//!   must be at least 1).
//! * `--pressure <f>` — arrival-period scale relative to the joined
//!   mix's near-saturation rate; below `1.0` oversubscribes the
//!   platform (default `0.5`, i.e. 2× saturation; must be finite and
//!   positive).
//! * `--workers <n>` — tune-sweep worker threads (`0` = machine
//!   parallelism; default `0`). The report is byte-identical for any
//!   worker count.
//! * `--corner` — run the heterogeneous scenario instead: the initial
//!   mix leads with a data-dependent GraphNet tenant and an always-on
//!   corner-detection frontend (`CornerNet`) joins mid-window and never
//!   leaves.
//!
//! `--json` writes `{ replay_bits_match, report }`: the serde
//! round-trippable `ServeReport` plus the receipt that every cached
//! tuning replayed bit for bit from its `NmpConfig`.

use ev_bench::report::{write_json, CommonArgs, TextTable};
use ev_core::{TimeWindow, Timestamp};
use ev_serve::{
    corner_frontend_scenario, run_service, synthetic_scenario, ServeConfig, ServeReport,
};
use serde::Serialize;

/// The `--json` artifact shape.
#[derive(Debug, Serialize)]
struct ServeSimArtifact {
    /// Whether every cached tuning replayed bit for bit from its
    /// `NmpConfig` (the determinism receipt the conformance suite
    /// pins to `true`).
    replay_bits_match: bool,
    /// The full service report.
    report: ServeReport,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&["--tenants", "--pressure", "--workers"], &["--corner"])?;
    let mut tenants = if args.quick { 2 } else { 3 };
    let mut pressure = 0.5f64;
    let mut workers = 0usize;
    let corner = args.has_flag("--corner");
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--tenants" => {
                tenants = rest
                    .next()
                    .ok_or("--tenants needs a value")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
            }
            "--pressure" => {
                pressure = rest
                    .next()
                    .ok_or("--pressure needs a value")?
                    .parse()
                    .map_err(|e| format!("--pressure: {e}"))?;
            }
            "--workers" => {
                workers = rest
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--corner" => {}
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    // Validate at the flag, not three layers down: the scenario builder
    // rejects these too, but its messages name fields, not flags.
    if tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    if !pressure.is_finite() || pressure <= 0.0 {
        return Err(format!("--pressure must be finite and positive, got {pressure}").into());
    }

    let window_ms = if args.quick { 8 } else { 20 };
    let mut config = ServeConfig::new(TimeWindow::new(
        Timestamp::ZERO,
        Timestamp::from_millis(window_ms),
    ));
    config.workers = workers;
    if args.quick {
        config.tune_populations = vec![3];
        config.tune_generations = vec![2];
    }

    let scenario = if corner {
        corner_frontend_scenario(&config, tenants, pressure)?
    } else {
        synthetic_scenario(&config, tenants, pressure)?
    };
    let outcome = run_service(&scenario, &config)?;
    let report = &outcome.report;

    println!(
        "Ev-Edge service layer — {} initial tenants + 1 {} over {} ms on {}, \
         pressure {:.2}, watermark {:.2}, drift threshold {:.2}",
        tenants,
        if corner {
            "always-on corner-frontend join"
        } else {
            "join/leave"
        },
        window_ms,
        report.platform,
        pressure,
        report.watermark,
        report.drift_threshold,
    );
    println!();

    let mut per_tenant = TextTable::new([
        "tenant", "network", "joined", "left", "arrivals", "admitted", "shed", "done", "drop",
        "mean µs", "max µs", "mJ",
    ]);
    for t in &report.tenants {
        per_tenant.row([
            t.name.clone(),
            t.network.clone(),
            format!("{:.1}ms", t.joined_at_us as f64 / 1e3),
            t.left_at_us
                .map_or("-".to_string(), |us| format!("{:.1}ms", us as f64 / 1e3)),
            t.arrivals.to_string(),
            t.admitted.to_string(),
            format!(
                "{} ({}w/{}q)",
                t.shed(),
                t.shed_saturated,
                t.shed_ingress_full
            ),
            t.completed.to_string(),
            t.dropped.to_string(),
            t.mean_latency_us.to_string(),
            t.max_latency_us.to_string(),
            format!("{:.3}", t.energy_mj),
        ]);
    }
    print!("{}", per_tenant.render());
    println!();

    let mut epochs = TextTable::new([
        "epoch", "tenants", "mapping", "drift", "util", "shed", "done", "mJ",
    ]);
    for e in &report.epochs {
        epochs.row([
            format!(
                "{:.1}-{:.1}ms",
                e.start_us as f64 / 1e3,
                e.end_us as f64 / 1e3
            ),
            e.tenants.len().to_string(),
            e.mapping.name().to_string(),
            e.drift.map_or("-".to_string(), |d| format!("{d:.3}")),
            format!("{:.3}", e.utilization),
            e.shed.to_string(),
            e.completed.to_string(),
            format!("{:.3}", e.energy_mj),
        ]);
    }
    print!("{}", epochs.render());
    println!();

    let totals = &report.totals;
    println!(
        "totals: {} arrivals, {} admitted, {} shed ({} at the watermark, {} ingress-full), \
         {} completed, {} dropped, {:.3} mJ",
        totals.arrivals,
        totals.admitted,
        totals.shed(),
        totals.shed_saturated,
        totals.shed_ingress_full,
        totals.completed,
        totals.dropped,
        totals.energy_mj,
    );
    println!(
        "remapping: {} tunes ({} churn-triggered re-tunes), {} cache replays, {} carried over",
        totals.tunes, totals.retunes, totals.cache_replays, totals.carried,
    );

    let replay_bits_match = outcome.mappings.verify_replays()?;
    println!(
        "replayed {} cached tuning(s) from their NmpConfig: {}",
        outcome.mappings.entries().len(),
        if replay_bits_match {
            "bit-for-bit MATCH"
        } else {
            "MISMATCH"
        },
    );
    if !replay_bits_match {
        return Err("cached tuning replay diverged from the recorded bits".into());
    }

    if let Some(path) = &args.json {
        write_json(
            path,
            &ServeSimArtifact {
                replay_bits_match,
                report: outcome.report,
            },
        )?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
