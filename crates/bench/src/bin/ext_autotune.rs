//! Extension: sweep-driven auto-tuning, end to end — expand a
//! configuration-sweep spec, evaluate every cell on the worker pool,
//! rank the cells with a deterministic objective, and emit one selected
//! operating point (search configuration + queue capacity) per
//! (platform, task-mix) pair. The resulting tune report feeds the
//! Figure 8/9 binaries via their `--tuned` flag, closing the loop from
//! the Fig. 10 ablation sweeps back into the headline experiments.
//!
//! Flags (besides the common `--quick` / `--json <path>`):
//!
//! * `--workers <n>` — sweep worker threads (`0` = machine parallelism,
//!   `1` = serial; default `0`). The tune report is bitwise identical
//!   for any worker count.
//! * `--spec <path>` — tune from a `SweepSpec` JSON file instead of the
//!   built-in grid (a sweep report's `"spec"` field works).
//! * `--objective <latency|energy|edp>` — the ranking objective
//!   (default `latency`).
//! * `--no-compare` — skip the tuned-vs-default comparison runs.
//!
//! `--json` writes the `TuneReport` itself, so the artifact replays
//! through `fig8_single_task --tuned` / `fig9_multi_task --tuned`.

use ev_bench::experiments::{
    autotune_spec, load_sweep_spec, tune_selections_table, tuned_vs_default, tuned_vs_default_table,
};
use ev_bench::report::{write_json, CommonArgs};
use ev_edge::nmp::sweep::SweepSpec;
use ev_edge::nmp::tune::{AutoTuner, TuneObjective};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    let mut workers = 0usize;
    let mut spec_path: Option<String> = None;
    let mut objective = TuneObjective::Latency;
    let mut compare = true;
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workers" => {
                workers = rest
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--spec" => {
                spec_path = Some(rest.next().ok_or("--spec needs a path")?.clone());
            }
            "--objective" => {
                objective = TuneObjective::parse(rest.next().ok_or("--objective needs a value")?)?;
            }
            "--no-compare" => compare = false,
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    let spec: SweepSpec = match &spec_path {
        Some(path) => load_sweep_spec(std::path::Path::new(path))?,
        None => autotune_spec(args.quick),
    };

    let report = AutoTuner::new(objective).tune_spec(&spec, workers)?;
    println!(
        "Auto-tuning — objective: {}, {} cells considered, {} operating points selected, workers = {}",
        report.objective.name(),
        report.cells_considered,
        report.selections.len(),
        if workers == 0 {
            "auto".to_string()
        } else {
            workers.to_string()
        },
    );
    println!();
    print!("{}", tune_selections_table(&report).render());

    // Write the artifact before the optional comparison searches: an
    // interrupted or failing compare must not discard the tune report
    // the sweep already paid for.
    if let Some(path) = &args.json {
        write_json(path, &report)?;
        eprintln!("wrote {}", path.display());
    }

    if compare {
        let rows = tuned_vs_default(&report, args.quick)?;
        println!();
        println!("Tuned vs hard-coded default configuration (same problem and scale):");
        println!();
        print!("{}", tuned_vs_default_table(&rows).render());
        println!();
        println!(
            "Positive deltas mean the sweep-selected configuration beats the default;\n\
             replay a selection with `fig8_single_task --tuned <tune.json>` or\n\
             `fig9_multi_task --tuned <tune.json>`."
        );
    }
    Ok(())
}
