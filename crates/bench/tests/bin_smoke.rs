//! CLI behaviours not expressible as conformance specs.
//!
//! Almost all binary smoke coverage lives in `specs/*.json` (run by
//! `tests/conformance_suite.rs` and the `conformance` binary); this
//! file keeps only the fig9 playback check, which compares the stdout
//! and artifacts of two runs — a relation between runs, not a property
//! of one run.

use serde::Value;
use std::process::Command;

fn run_quick(exe: &str, extra: &[&str]) -> String {
    let mut cmd = Command::new(exe);
    cmd.arg("--quick").args(extra);
    let output = cmd.output().unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} {extra:?} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8(output.stdout).expect("utf-8 report")
}

/// `fig9 --playback` appends the runtime-playback table after an
/// unchanged Figure 9 report, and switches the `--json` artifact from
/// the plain row array to `{rows, playback}` with the same rows.
#[test]
fn fig9_mode_flag_adds_an_identical_runtime_playback() {
    let exe = env!("CARGO_BIN_EXE_fig9_multi_task");
    let dir = std::env::temp_dir().join(format!("bin-smoke-fig9-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let plain_json = dir.join("plain.json");
    let playback_json = dir.join("playback.json");

    let plain = run_quick(exe, &["--json", plain_json.to_str().expect("utf-8 path")]);
    let with_playback = run_quick(
        exe,
        &[
            "--playback",
            "--json",
            playback_json.to_str().expect("utf-8 path"),
        ],
    );
    let rest = with_playback
        .strip_prefix(plain.as_str())
        .expect("the plain report is a prefix of the --playback report");
    assert!(rest.contains("Runtime playback"), "{rest}");

    let read = |path: &std::path::Path| -> Value {
        serde_json::from_str(&std::fs::read_to_string(path).expect("artifact written"))
            .expect("artifact parses")
    };
    let plain_artifact = read(&plain_json);
    let playback_artifact = read(&playback_json);
    let Value::Array(rows) = &plain_artifact else {
        panic!("the plain artifact is the Fig9Row array: {plain_artifact:?}");
    };
    assert_eq!(rows.len(), 3);
    assert_eq!(playback_artifact.get("rows"), Some(&plain_artifact));
    let Some(Value::Array(playback)) = playback_artifact.get("playback") else {
        panic!("no playback rows: {playback_artifact:?}");
    };
    assert_eq!(playback.len(), rows.len());
    let _ = std::fs::remove_dir_all(&dir);
}
