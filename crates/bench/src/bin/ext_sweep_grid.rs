//! Extension: the parallel NMP configuration-sweep grid (Figure 10
//! ablation subsystem).
//!
//! Expands a declarative `SweepSpec` into cells — population ×
//! generations × mutation strength × elite fraction × queue capacity ×
//! platform class × workload mix × algorithm — and evaluates them
//! concurrently on the exec-core worker pool. Results are bitwise
//! identical for any worker count.
//!
//! Flags (besides the common `--quick` / `--json <path>`):
//!
//! * `--workers <n>` — sweep worker threads (`0` = machine parallelism,
//!   `1` = serial; default `0`).
//! * `--spec <path>` — load the `SweepSpec` from a JSON file instead of
//!   the built-in grid; a previous report's `"spec"` field replays that
//!   sweep exactly.
//! * `--hetero` — sweep the heterogeneous built-in grid instead: the
//!   GNN-heavy and corner+inference mixes (data-dependent GraphNet
//!   tasks plus the always-on corner frontend) crossed with the
//!   GPU-class and composable-dataflow platform presets.

use ev_bench::experiments::{
    load_sweep_spec, sweep_cells_table, sweep_grid_hetero_spec, sweep_grid_spec,
};
use ev_bench::report::{write_json, CommonArgs};
use ev_edge::nmp::sweep::{run_sweep, SweepSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    let mut workers = 0usize;
    let mut spec_path: Option<String> = None;
    let mut hetero = false;
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
            "--hetero" => hetero = true,
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    if hetero && spec_path.is_some() {
        return Err("--hetero and --spec are mutually exclusive".into());
    }
    let spec: SweepSpec = match &spec_path {
        Some(path) => load_sweep_spec(std::path::Path::new(path))?,
        None if hetero => sweep_grid_hetero_spec(args.quick),
        None => sweep_grid_spec(args.quick),
    };

    let report = run_sweep(&spec, workers)?;
    println!(
        "NMP configuration sweep — {} cells, {} searches, {} mapping problems, workers = {}",
        report.cells.len(),
        report.distinct_searches,
        report.distinct_problems,
        if workers == 0 {
            "auto".to_string()
        } else {
            workers.to_string()
        },
    );
    println!();
    print!("{}", sweep_cells_table(&report).render());
    println!();
    let best = &report.cells[report.best_cell];
    println!(
        "Best cell #{}: score {:.5} ({:.2} ms, {}) — {} / {} / pop {} × gen {} × mut {}",
        report.best_cell,
        best.best_score,
        best.best_latency_ms,
        if best.feasible {
            "feasible"
        } else {
            "INFEASIBLE"
        },
        best.cell.platform.name(),
        best.cell.task_mix.name(),
        best.cell.population,
        best.cell.generations,
        best.cell.mutation_layers,
    );
    println!(
        "Search effort: {} fitness evaluations, {} cache hits.",
        report.total_evaluations, report.total_cache_hits
    );

    if let Some(path) = args.json {
        write_json(&path, &report)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
