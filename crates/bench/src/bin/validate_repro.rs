//! Reproduction validator: runs every experiment at reduced budget and
//! checks the paper's qualitative claims, printing a PASS/FAIL checklist.
//!
//! ```bash
//! cargo run --release -p ev-bench --bin validate_repro
//! ```

use ev_bench::experiments::{figure1, figure10, figure3, figure5, figure8, figure9, table1};
use ev_bench::report::CommonArgs;

struct Checklist {
    passed: usize,
    failed: usize,
}

impl Checklist {
    fn new() -> Self {
        Checklist {
            passed: 0,
            failed: 0,
        }
    }

    fn check(&mut self, claim: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            println!("  PASS  {claim} — {detail}");
        } else {
            self.failed += 1;
            println!("  FAIL  {claim} — {detail}");
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Always runs the quick budget and writes no artifact: `--quick` is
    // accepted as a no-op, anything else (including `--json`) is an error.
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    if let Some(path) = &args.json {
        return Err(format!(
            "validate_repro writes no JSON artifact (got --json {})",
            path.display()
        )
        .into());
    }
    let mut list = Checklist::new();
    println!("Validating the Ev-Edge reproduction against the paper's claims (quick budget)\n");

    println!("Table 1 — network inventory");
    let t1 = table1()?;
    let total_layers: usize = t1.iter().map(|r| r.layers).sum();
    list.check(
        "six networks with 81 total layers (12+29+8+16+15+1)",
        t1.len() == 6 && total_layers == 81,
        format!("{} networks, {total_layers} layers", t1.len()),
    );

    println!("\nFigure 1 — wasted operations");
    let f1 = figure1(true)?;
    let min_wasted = f1
        .rows
        .iter()
        .map(|r| r.wasted_pct)
        .fold(f64::INFINITY, f64::min);
    list.check(
        "dense processing wastes most operations",
        min_wasted > 50.0,
        format!("≥{min_wasted:.1}% wasted across the nB sweep"),
    );
    list.check(
        "real sparse kernels confirm (effectual fraction < 50%)",
        f1.measured.effectual_fraction < 0.5,
        format!("{:.1}% effectual", f1.measured.effectual_fraction * 100.0),
    );

    println!("\nFigure 3 — frame density spread");
    let f3 = figure3(true)?;
    let min = f3
        .iter()
        .map(|r| r.mean_fill_pct)
        .fold(f64::INFINITY, f64::min);
    let max = f3.iter().map(|r| r.mean_fill_pct).fold(0.0f64, f64::max);
    list.check(
        "density spans orders of magnitude (paper: 0.15%–28.57%)",
        min < 1.5 && max > 10.0,
        format!("{min:.2}%–{max:.2}%"),
    );

    println!("\nFigure 5 — temporal burstiness");
    let f5 = figure5(true)?;
    list.check(
        "flying sequence is bursty",
        f5.burstiness > 2.0,
        format!("peak/mean {:.2}x", f5.burstiness),
    );

    println!("\nFigure 8 — single-task speedups");
    let f8 = figure8(true)?;
    let all_compound = f8
        .iter()
        .all(|r| r.speedup_nmp >= r.speedup_e2sf * 0.95 && r.speedup_nmp > 1.0);
    let max_speedup = f8.iter().map(|r| r.speedup_nmp).fold(0.0f64, f64::max);
    let leader = f8
        .iter()
        .max_by(|a, b| a.speedup_nmp.total_cmp(&b.speedup_nmp))
        .expect("six rows");
    list.check(
        "optimizations compound on every network",
        all_compound,
        format!("combined up to {max_speedup:.2}x (paper: 1.28–2.05x)"),
    );
    list.check(
        "the all-SNN network leads (paper: SNNs gain most)",
        leader.network == "Adaptive-SpikeNet",
        format!("leader: {}", leader.network),
    );
    let energy_ok = f8.iter().all(|r| r.energy_ratio > 1.0);
    list.check(
        "energy improves alongside latency",
        energy_ok,
        format!(
            "{:.2}x–{:.2}x (paper: 1.23–2.15x)",
            f8.iter()
                .map(|r| r.energy_ratio)
                .fold(f64::INFINITY, f64::min),
            f8.iter().map(|r| r.energy_ratio).fold(0.0f64, f64::max)
        ),
    );
    let accuracy_ok = f8.iter().all(|r| {
        let delta = (r.metric_evedge - r.metric_baseline).abs();
        let budget = match r.network.as_str() {
            "SpikeFlowNet" => 0.03,
            "Fusion-FlowNet" => 0.07,
            "Adaptive-SpikeNet" => 0.09,
            "HALSIE" => 2.13,
            "E2Depth" => 0.02,
            "DOTIE" => 0.04,
            _ => f64::INFINITY,
        };
        delta <= budget * 1.05 + 1e-9
    });
    list.check(
        "accuracy stays within each task's ΔA (Table 2)",
        accuracy_ok,
        "all six networks within budget".to_string(),
    );

    println!("\nFigure 9 — multi-task mapping");
    let f9 = figure9(true)?;
    let nmp_wins = f9
        .iter()
        .all(|r| r.speedup_vs_rr_network >= 1.0 && r.speedup_vs_rr_layer >= 1.0);
    list.check(
        "NMP beats both round-robin policies in every configuration",
        nmp_wins,
        f9.iter()
            .map(|r| {
                format!(
                    "{}: {:.2}x/{:.2}x",
                    r.config, r.speedup_vs_rr_network, r.speedup_vs_rr_layer
                )
            })
            .collect::<Vec<_>>()
            .join("; "),
    );
    let fp_ordered = f9.iter().all(|r| r.fp_slowdown >= 1.0);
    list.check(
        "NMP-FP is slower than NMP (full-precision restriction costs)",
        fp_ordered,
        f9.iter()
            .map(|r| format!("{:.2}x", r.fp_slowdown))
            .collect::<Vec<_>>()
            .join(", "),
    );

    println!("\nFigure 10 — search quality");
    let f10 = figure10(true)?;
    list.check(
        "evolutionary search beats equal-budget random search (paper: 1.42x)",
        f10.improvement_over_random >= 1.0,
        format!("{:.2}x", f10.improvement_over_random),
    );
    let converges = f10
        .nmp_history
        .windows(2)
        .all(|p| p[1].best_score <= p[0].best_score + 1e-12);
    list.check(
        "fitness converges monotonically",
        converges,
        format!("{} generations", f10.nmp_history.len()),
    );

    println!("\n{} checks passed, {} failed", list.passed, list.failed);
    if list.failed > 0 {
        std::process::exit(1);
    }
    Ok(())
}
