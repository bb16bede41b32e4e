//! Figure 9: multi-task latency of NMP vs round-robin scheduling.
//! Paper: 1.43×–1.81× over RR-Network, 1.24×–1.41× over RR-Layer;
//! NMP-FP is 1.05×–1.22× slower than NMP.
//!
//! `--playback` additionally plays each configuration's NMP winner
//! forward through the multi-task runtime and appends that table.
//! `--mix <name>` narrows the run to a single named workload mix
//! (`all-ann`, `all-snn`, `mixed`, `gnn-heavy`, `corner-inference`) —
//! the heterogeneous mixes exercise the data-dependent GraphNet and
//! always-on corner-frontend tasks.

use ev_bench::claims::{FIG9_FP_SLOWDOWN, FIG9_OVER_RR_LAYER, FIG9_OVER_RR_NETWORK};
use ev_bench::experiments::{default_nmp_config, fig9_playback_table, figure9_detail, mix_flag};
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&["--mix"], &["--playback"])?;
    let mix = mix_flag(&args)?;
    // One search pass feeds both the table and the optional playback.
    let playback = args.has_flag("--playback").then_some(args.quick);
    let (rows, playback) = figure9_detail(default_nmp_config(args.quick), playback, mix.as_ref())?;

    println!("Figure 9 — multi-task execution latency");
    println!();
    let mut table = TextTable::new([
        "config",
        "RR-Network ms",
        "RR-Layer ms",
        "NMP ms",
        "NMP-FP ms",
        "vs RR-Net",
        "vs RR-Layer",
        "FP slowdown",
    ]);
    for row in &rows {
        table.row([
            row.config.clone(),
            format!("{:.2}", row.rr_network_ms),
            format!("{:.2}", row.rr_layer_ms),
            format!("{:.2}", row.nmp_ms),
            format!("{:.2}", row.nmp_fp_ms),
            format!("{:.2}x", row.speedup_vs_rr_network),
            format!("{:.2}x", row.speedup_vs_rr_layer),
            format!("{:.2}x", row.fp_slowdown),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Paper bands: NMP beats RR-Network by {}x-{}x, RR-Layer by {}x-{}x;\n\
         NMP-FP (full precision only) trails NMP by {}x-{}x but still beats both RRs.",
        FIG9_OVER_RR_NETWORK.low,
        FIG9_OVER_RR_NETWORK.high,
        FIG9_OVER_RR_LAYER.low,
        FIG9_OVER_RR_LAYER.high,
        FIG9_FP_SLOWDOWN.low,
        FIG9_FP_SLOWDOWN.high,
    );

    if let Some(playback) = &playback {
        println!();
        println!("Runtime playback — NMP winners under periodic near-saturation arrivals");
        println!();
        print!("{}", fig9_playback_table(playback).render());
    }

    if let Some(path) = args.json {
        // With --playback the artifact carries both tables; without it
        // the shape stays the plain Fig9Row array earlier tooling expects.
        match playback {
            Some(playback) => write_json(&path, &Fig9Artifact { rows, playback })?,
            None => write_json(&path, &rows)?,
        }
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The `--json` artifact shape when `--playback` is present: the Figure 9
/// rows plus the runtime playback they were printed with.
#[derive(serde::Serialize)]
struct Fig9Artifact {
    rows: Vec<ev_bench::experiments::Fig9Row>,
    playback: Vec<ev_bench::experiments::Fig9PlaybackRow>,
}
