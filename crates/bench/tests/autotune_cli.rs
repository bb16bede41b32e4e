//! Acceptance pins for the sweep → tune → replay loop:
//!
//! * `ext_autotune --quick --workers 1` and `--workers 8` write
//!   byte-identical `TuneReport` JSON — the tuning decision is
//!   independent of sweep parallelism.
//! * `fig8_single_task --tuned` / `fig9_multi_task --tuned` replay the
//!   selected configuration: their JSON artifacts match a direct
//!   library run of that exact configuration bit for bit.
//! * A `--spec` or `--tuned` file whose search configuration is over a
//!   cap ends promptly in an error that names the field, before a
//!   `--tuned` replay is announced.

use ev_bench::experiments::{
    autotune, autotune_spec, figure8_with, figure9_with, load_tune_report, sweep_grid_spec,
    tuned_config,
};
use ev_bench::report::write_json;
use ev_edge::nmp::sweep::{PlatformPreset, SweepSpec};
use ev_edge::nmp::tune::TuneObjective;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// This process's temp directory for one test. The test removes it
/// once it passes; a failing test leaves its files for inspection.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ev-edge-autotune-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_ok(exe: &str, args: &[&str]) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} {args:?} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
}

#[test]
fn tune_report_json_is_byte_identical_for_workers_1_and_8() {
    let dir = temp_dir("workers");
    let one = dir.join("tune_w1.json");
    let eight = dir.join("tune_w8.json");
    for (workers, path) in [("1", &one), ("8", &eight)] {
        run_ok(
            env!("CARGO_BIN_EXE_ext_autotune"),
            &[
                "--quick",
                "--no-compare",
                "--workers",
                workers,
                "--json",
                path.to_str().expect("utf-8 temp path"),
            ],
        );
    }
    let bytes_one = std::fs::read(&one).expect("workers-1 report");
    let bytes_eight = std::fs::read(&eight).expect("workers-8 report");
    assert!(!bytes_one.is_empty());
    assert_eq!(
        bytes_one, bytes_eight,
        "TuneReport JSON must not depend on the sweep worker count"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn fig8_tuned_replay_matches_a_direct_run_bit_for_bit() {
    let dir = temp_dir("fig8");
    let tune = dir.join("tune_fig8.json");
    run_ok(
        env!("CARGO_BIN_EXE_ext_autotune"),
        &[
            "--quick",
            "--no-compare",
            "--json",
            tune.to_str().expect("utf-8 temp path"),
        ],
    );
    let via_bin = dir.join("fig8_tuned_bin.json");
    run_ok(
        env!("CARGO_BIN_EXE_fig8_single_task"),
        &[
            "--quick",
            "--tuned",
            tune.to_str().expect("utf-8 temp path"),
            "--json",
            via_bin.to_str().expect("utf-8 temp path"),
        ],
    );
    // The direct run: load the same report, extract the same selection,
    // call the library entry point the binary delegates to.
    let report = load_tune_report(&tune).expect("tune report parses");
    let config = tuned_config(&report, PlatformPreset::XavierAgx).expect("xavier selection");
    let rows = figure8_with(true, config).expect("direct figure 8 run");
    let direct = dir.join("fig8_tuned_direct.json");
    write_json(&direct, &rows).expect("write direct report");
    assert_eq!(
        std::fs::read(&via_bin).expect("bin artifact"),
        std::fs::read(&direct).expect("direct artifact"),
        "fig8 --tuned must replay the selected config bit for bit"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn fig9_tuned_replay_matches_a_direct_run_bit_for_bit() {
    // Library-level tune (same spec/objective the quick binary uses)
    // doubles as a check that the bin artifact and the in-process
    // report agree.
    let report = autotune(true, 0, TuneObjective::Latency).expect("autotune runs");
    let dir = temp_dir("fig9");
    let tune = dir.join("tune_fig9.json");
    write_json(&tune, &report).expect("write tune report");
    let via_bin = dir.join("fig9_tuned_bin.json");
    run_ok(
        env!("CARGO_BIN_EXE_fig9_multi_task"),
        &[
            "--quick",
            "--tuned",
            tune.to_str().expect("utf-8 temp path"),
            "--json",
            via_bin.to_str().expect("utf-8 temp path"),
        ],
    );
    let config = tuned_config(&report, PlatformPreset::XavierAgx).expect("xavier selection");
    let rows = figure9_with(config).expect("direct figure 9 run");
    let direct = dir.join("fig9_tuned_direct.json");
    write_json(&direct, &rows).expect("write direct report");
    assert_eq!(
        std::fs::read(&via_bin).expect("bin artifact"),
        std::fs::read(&direct).expect("direct artifact"),
        "fig9 --tuned must replay the selected config bit for bit"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn tuned_config_prefers_the_mixed_workload_over_cheaper_mixes() {
    use ev_edge::nmp::evolution::NmpConfig;
    use ev_edge::nmp::sweep::{CellCoords, SearchAlgorithm, TaskMix};
    use ev_edge::nmp::tune::{TuneReport, TuneSelection};

    // Hand-built report: the 2-network all-ANN selection has a far
    // smaller raw score (joint latency of a lighter workload), but the
    // figure replay must pick the configuration tuned on the paper's
    // mixed SNN-ANN workload — scores are not comparable across mixes.
    let selection = |task_mix, coords, score: f64, population| TuneSelection {
        platform: PlatformPreset::XavierAgx,
        task_mix,
        config: NmpConfig {
            population,
            ..NmpConfig::default()
        },
        queue_capacity: 2,
        algorithm: SearchAlgorithm::Evolutionary,
        coords,
        score,
        best_latency_ms: score,
        best_energy_mj: 1.0,
        feasible: true,
        candidates: 4,
    };
    let report = TuneReport {
        objective: TuneObjective::Latency,
        spec: autotune(true, 0, TuneObjective::Latency)
            .expect("autotune runs")
            .spec,
        selections: vec![
            selection(TaskMix::AllAnn, CellCoords(0, 0, 0, 0, 0, 0, 0, 0), 1.0, 8),
            selection(
                TaskMix::MixedSnnAnn,
                CellCoords(0, 0, 0, 0, 0, 0, 1, 0),
                9.0,
                32,
            ),
        ],
        cells_considered: 8,
    };
    let config = tuned_config(&report, PlatformPreset::XavierAgx).expect("xavier selection");
    assert_eq!(config.population, 32, "the mixed-workload selection wins");
}

#[test]
fn tuned_flag_without_platform_selection_fails_loudly() {
    // A tune report that never swept Orin cannot drive an Orin replay —
    // but fig8/fig9 ask for Xavier, which the quick spec covers; point
    // the library lookup at the uncovered platform instead.
    let report = autotune(true, 0, TuneObjective::Latency).expect("autotune runs");
    let err = tuned_config(&report, PlatformPreset::OrinLike).unwrap_err();
    assert!(err.to_string().contains("orin_like"), "got: {err}");
    assert!(err.to_string().contains("xavier_agx"), "got: {err}");
}

/// How long a binary may take to reject a hostile input file.
const REJECT_DEADLINE: Duration = Duration::from_secs(10);

/// Runs `exe` on a hostile input and asserts a clean, prompt rejection:
/// exit code 1 (an error returned from `main`, neither a panic's 101 nor
/// a signal) within [`REJECT_DEADLINE`], with `field` named on stderr.
/// Returns the stderr text.
fn assert_rejected_naming(exe: &str, args: &[&str], field: &str) -> String {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if start.elapsed() > REJECT_DEADLINE {
            child.kill().ok();
            child.wait().ok();
            panic!("{exe} {args:?} still running after {REJECT_DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(
        status.code(),
        Some(1),
        "{exe} {args:?} must exit 1, got {status:?}; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(field) && !stderr.contains("panicked"),
        "{exe} {args:?} must name `{field}` without panicking; stderr:\n{stderr}"
    );
    stderr
}

#[test]
fn sweep_specs_over_a_cap_are_rejected_naming_the_field() {
    let dir = temp_dir("hostile_spec");
    let spec_with = |mutate: fn(&mut SweepSpec)| {
        let mut spec = sweep_grid_spec(true);
        mutate(&mut spec);
        spec
    };
    for (field, spec) in [
        (
            "generations",
            spec_with(|s| s.generations = vec![1_000_000_000_000]),
        ),
        (
            "mutation_layers",
            spec_with(|s| s.mutation_layers = vec![1_000_000_000]),
        ),
        (
            "runtime_window_ms",
            spec_with(|s| s.runtime_window_ms = u64::MAX / 1_000 - 1),
        ),
    ] {
        let path = dir.join(format!("hostile_spec_{field}.json"));
        write_json(&path, &spec).expect("write spec");
        assert_rejected_naming(
            env!("CARGO_BIN_EXE_ext_sweep_grid"),
            &["--spec", path.to_str().expect("utf-8 temp path")],
            field,
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn tuned_replay_over_the_generation_cap_is_rejected_naming_the_field() {
    use ev_edge::nmp::evolution::NmpConfig;
    use ev_edge::nmp::sweep::{CellCoords, SearchAlgorithm, TaskMix};
    use ev_edge::nmp::tune::{TuneReport, TuneSelection};

    let report = TuneReport {
        objective: TuneObjective::Latency,
        spec: autotune_spec(true),
        selections: vec![TuneSelection {
            platform: PlatformPreset::XavierAgx,
            task_mix: TaskMix::MixedSnnAnn,
            config: NmpConfig {
                generations: 1_000_000_000_000,
                ..NmpConfig::default()
            },
            queue_capacity: 2,
            algorithm: SearchAlgorithm::Evolutionary,
            coords: CellCoords(0, 0, 0, 0, 0, 0, 0, 0),
            score: 1.0,
            best_latency_ms: 1.0,
            best_energy_mj: 1.0,
            feasible: true,
            candidates: 1,
        }],
        cells_considered: 1,
    };
    let dir = temp_dir("hostile_tune");
    let path = dir.join("hostile_tune_generations.json");
    write_json(&path, &report).expect("write tune report");
    for exe in [
        env!("CARGO_BIN_EXE_fig8_single_task"),
        env!("CARGO_BIN_EXE_fig9_multi_task"),
    ] {
        let stderr = assert_rejected_naming(
            exe,
            &[
                "--quick",
                "--tuned",
                path.to_str().expect("utf-8 temp path"),
            ],
            "generations",
        );
        // The selection is validated before the replay is announced.
        assert!(
            !stderr.contains("replaying"),
            "{exe} announced a replay it then rejected; stderr:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
