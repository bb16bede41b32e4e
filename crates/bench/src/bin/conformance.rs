//! The conformance suite runner: discovers `specs/*.json`, runs every
//! scenario against the sibling experiment binaries, and reports
//! pass/fail with per-field diffs.
//!
//! Flags (besides the common `--quick` / `--json <path>`):
//!
//! * `--specs <dir>` — spec directory (default `specs`, resolved from
//!   the working directory; golden paths resolve relative to it).
//! * `--workers <n>` — scenario worker threads (`0` = machine
//!   parallelism; any value yields a byte-identical report).
//! * `--full` — run scenarios at the full paper budget instead of the
//!   default `--quick` budget (golden-pinned `quick_assertions` are
//!   skipped; structural assertions still apply).
//! * `--filter <substr>` — only run specs whose name contains the
//!   substring.
//!
//! `UPDATE_GOLDEN=1` regenerates every `MatchesGolden` snapshot from
//! the actual artifacts instead of failing. `--json <path>` writes the
//! machine-readable [`SuiteReport`]. Exit status is nonzero if any
//! spec fails.
//!
//! [`SuiteReport`]: ev_bench::conformance::SuiteReport

use ev_bench::conformance::{discover_specs, run_suite, BinPaths, RunnerOptions};
use ev_bench::report::{write_json, CommonArgs};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&["--specs", "--workers", "--filter"], &["--full"])?;
    let specs_dir = PathBuf::from(args.flag_value("--specs").unwrap_or("specs"));
    let workers: usize = match args.flag_value("--workers") {
        Some(v) => v.parse().map_err(|e| format!("--workers: {e}"))?,
        None => 0,
    };
    let full = args.has_flag("--full");

    let mut specs = discover_specs(&specs_dir)?;
    if let Some(filter) = args.flag_value("--filter") {
        specs.retain(|s| s.name.contains(filter));
        if specs.is_empty() {
            return Err(format!("--filter {filter}: no matching specs").into());
        }
    }
    let mut options = RunnerOptions::new(specs_dir, BinPaths::beside_current_exe()?);
    options.workers = workers;
    options.quick = !full;

    println!(
        "Conformance suite — {} specs, {} budget, workers = {}",
        specs.len(),
        if options.quick { "quick" } else { "full" },
        if workers == 0 {
            "auto".to_string()
        } else {
            workers.to_string()
        },
    );
    println!();
    let report = run_suite(specs, &options)?;
    print!("{}", report.render());

    if let Some(path) = args.json {
        write_json(&path, &report)?;
        eprintln!("wrote {}", path.display());
    }
    if !report.all_passed() {
        std::process::exit(1);
    }
    Ok(())
}
