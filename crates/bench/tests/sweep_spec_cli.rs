//! Acceptance pins for `ext_sweep_grid --spec <path>`, the one CLI path
//! that reads a search configuration from a file: a spec over a cap, and
//! a file that is not a spec at all, each end promptly in an error that
//! names the field or the file, never in a panic.

use ev_bench::experiments::sweep_grid_spec;
use ev_bench::report::write_json;
use ev_edge::nmp::sweep::SweepSpec;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// This process's temp directory for one test. The test removes it
/// once it passes; a failing test leaves its files for inspection.
fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ev-edge-sweep-spec-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// How long a binary may take to reject a hostile input file.
const REJECT_DEADLINE: Duration = Duration::from_secs(10);

/// Runs `exe` on a hostile input and asserts a clean, prompt rejection:
/// exit code 1 (an error returned from `main`, neither a panic's 101 nor
/// a signal) within [`REJECT_DEADLINE`], with `needle` named on stderr.
fn assert_rejected_naming(exe: &str, args: &[&str], needle: &str) {
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
        stderr.contains(needle) && !stderr.contains("panicked"),
        "{exe} {args:?} must name `{needle}` without panicking; stderr:\n{stderr}"
    );
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

    // Files that are not a spec at all name the file instead.
    let spec = sweep_grid_spec(true);
    let valid = serde_json::to_string(&spec).expect("spec serializes");
    let window = format!("\"runtime_window_ms\":{}", spec.runtime_window_ms);
    assert!(valid.contains(&window), "{valid}");
    let unreadable: [(&str, Vec<u8>); 4] = [
        ("truncated", valid.as_bytes()[..valid.len() / 2].to_vec()),
        ("empty", Vec::new()),
        (
            "wrong_typed",
            valid
                .replace(&window, "\"runtime_window_ms\":\"eight\"")
                .into_bytes(),
        ),
        ("non_utf8", b"{\"base_seed\": \xff\xfe}".to_vec()),
    ];
    for (name, bytes) in unreadable {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, bytes).expect("write file");
        let path = path.to_str().expect("utf-8 temp path");
        assert_rejected_naming(
            env!("CARGO_BIN_EXE_ext_sweep_grid"),
            &["--spec", path],
            path,
        );
    }
    let missing = dir.join("missing.json");
    let missing = missing.to_str().expect("utf-8 temp path");
    assert_rejected_naming(
        env!("CARGO_BIN_EXE_ext_sweep_grid"),
        &["--spec", missing],
        missing,
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
