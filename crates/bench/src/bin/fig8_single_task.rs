//! Figure 8: single-task speedups of Ev-Edge over the all-GPU dense
//! baseline, with each optimization applied cumulatively.
//! Paper: 1.28×–2.05× latency, 1.23×–2.15× energy.
//!
//! `--ablate-dsfa` prints the DSFA threshold/mode ablation instead.

use ev_bench::claims::{FIG8_ENERGY, FIG8_SPEEDUP};
use ev_bench::experiments::{dsfa_ablation, figure8};
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &["--ablate-dsfa"])?;
    if args.has_flag("--ablate-dsfa") {
        return run_dsfa_ablation(&args);
    }
    let rows = figure8(args.quick)?;

    println!("Figure 8 — single-task speedup vs all-GPU dense baseline (cumulative)");
    println!();
    let mut table = TextTable::new([
        "network",
        "baseline ms",
        "+E2SF",
        "+DSFA",
        "+NMP",
        "energy x",
    ]);
    for row in &rows {
        table.row([
            row.network.clone(),
            format!("{:.1}", row.baseline_ms),
            format!("{:.2}x", row.speedup_e2sf),
            format!("{:.2}x", row.speedup_dsfa),
            format!("{:.2}x", row.speedup_nmp),
            format!("{:.2}x", row.energy_ratio),
        ]);
    }
    print!("{}", table.render());
    let min = rows
        .iter()
        .map(|r| r.speedup_nmp)
        .fold(f64::INFINITY, f64::min);
    let max = rows.iter().map(|r| r.speedup_nmp).fold(0.0f64, f64::max);
    let emin = rows
        .iter()
        .map(|r| r.energy_ratio)
        .fold(f64::INFINITY, f64::min);
    let emax = rows.iter().map(|r| r.energy_ratio).fold(0.0f64, f64::max);
    println!();
    println!(
        "Combined speedup range: {min:.2}x – {max:.2}x   (paper: {}x – {}x)\n\
         Energy improvement:     {emin:.2}x – {emax:.2}x   (paper: {}x – {}x)",
        FIG8_SPEEDUP.low, FIG8_SPEEDUP.high, FIG8_ENERGY.low, FIG8_ENERGY.high
    );

    if let Some(path) = args.json {
        write_json(&path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn run_dsfa_ablation(args: &CommonArgs) -> Result<(), Box<dyn std::error::Error>> {
    let rows = dsfa_ablation(args.quick)?;
    println!("DSFA ablation — SpikeFlowNet on indoor_flying1 (+E2SF+DSFA variant)");
    println!();
    let mut table = TextTable::new([
        "cMode",
        "MBsize",
        "MtTh ms",
        "MdTh",
        "makespan ms",
        "speedup",
        "merge",
        "degradation",
    ]);
    for row in &rows {
        table.row([
            row.cmode.clone(),
            row.mb_size.to_string(),
            format!("{:.0}", row.mt_th_ms),
            format!("{:.2}", row.md_th),
            format!("{:.1}", row.makespan_ms),
            format!("{:.2}x", row.speedup),
            format!("{:.2}", row.merge_factor),
            format!("{:.4}", row.degradation),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Larger MBsize consolidates more frames (performance) at higher temporal-\n\
         aggregation degradation; tight MtTh/MdTh close buckets early (accuracy)."
    );
    if let Some(path) = &args.json {
        write_json(path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
