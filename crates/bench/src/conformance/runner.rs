//! Spec discovery and parallel scenario execution.
//!
//! The runner turns a directory of `specs/*.json` into a
//! [`SuiteReport`]: each scenario's binary runs in its own sandboxed
//! temp output directory, its stdout/stderr/artifact are checked
//! against the spec's assertions, and the per-spec outcomes are
//! collected in *spec order* via
//! [`ev_edge::exec::parallel::parallel_try_map`] — so the suite report
//! is byte-identical at any worker count.

use super::diff::{diff_values, lookup_path};
use super::spec::{Assertion, ScenarioSpec};
use ev_edge::exec::parallel::parallel_try_map;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global sandbox sequence number. A (pid, spec-name) key is
/// not unique: two suites in one process — the integration tests run
/// concurrently under the default test harness — can execute the same
/// spec at the same time, and with a shared sandbox one run's artifact
/// cleanup deletes the other's *live* artifact mid-check. The counter
/// makes every `run_spec` invocation's sandbox its own.
static SANDBOX_SEQ: AtomicU64 = AtomicU64::new(0);

/// Resolves a spec's `bin` name to an executable path.
#[derive(Debug, Clone)]
pub enum BinPaths {
    /// Look for `<dir>/<bin>` — the layout next to a cargo-built
    /// binary (the `conformance` bin resolves its siblings this way).
    Dir(PathBuf),
    /// An explicit name → path map (integration tests build this from
    /// the `CARGO_BIN_EXE_<name>` compile-time env vars).
    Map(Vec<(String, PathBuf)>),
}

impl BinPaths {
    /// The directory holding the currently running executable — for a
    /// cargo-built bin, the directory its sibling experiment bins
    /// share.
    ///
    /// # Errors
    ///
    /// Reports an unresolvable executable path.
    pub fn beside_current_exe() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or_else(|| format!("{} has no parent directory", exe.display()))?;
        Ok(BinPaths::Dir(dir.to_path_buf()))
    }

    /// A single-entry map binding `name` to the currently running
    /// executable — a self-referential resolver for harness tests.
    ///
    /// # Errors
    ///
    /// Reports an unresolvable executable path instead of panicking
    /// (the runner's error type is `String` everywhere else too).
    pub fn map_to_current_exe(name: &str) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        Ok(BinPaths::Map(vec![(name.to_string(), exe)]))
    }

    /// Resolves `bin` to an existing executable.
    ///
    /// # Errors
    ///
    /// Names the missing binary and where it was expected.
    pub fn resolve(&self, bin: &str) -> Result<PathBuf, String> {
        let path = match self {
            BinPaths::Dir(dir) => dir.join(format!("{bin}{}", std::env::consts::EXE_SUFFIX)),
            BinPaths::Map(entries) => entries
                .iter()
                .find(|(name, _)| name == bin)
                .map(|(_, path)| path.clone())
                .ok_or_else(|| format!("no binary `{bin}` in the bin map"))?,
        };
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!("binary `{bin}` not found at {}", path.display()))
        }
    }
}

/// How to run a suite: where the specs live, how to find binaries, and
/// the execution knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Directory holding `*.json` specs (golden paths resolve relative
    /// to it).
    pub specs_dir: PathBuf,
    /// Binary resolver.
    pub bins: BinPaths,
    /// Worker threads for the scenario fan-out (`0` = auto). Any value
    /// yields a byte-identical report.
    pub workers: usize,
    /// Run scenarios under the reduced `--quick` budget and check
    /// `quick_assertions` (goldens are pinned at the quick scale).
    pub quick: bool,
    /// Regenerate `MatchesGolden` snapshots from the actual artifacts
    /// instead of failing (the `UPDATE_GOLDEN=1` convention).
    pub update_golden: bool,
    /// Root for the per-spec sandbox output directories.
    pub sandbox_root: PathBuf,
}

impl RunnerOptions {
    /// Defaults: quick budget, auto workers, sandbox under the system
    /// temp dir, `UPDATE_GOLDEN` read from the environment.
    pub fn new(specs_dir: PathBuf, bins: BinPaths) -> Self {
        RunnerOptions {
            specs_dir,
            bins,
            workers: 0,
            quick: true,
            update_golden: std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1"),
            sandbox_root: std::env::temp_dir(),
        }
    }
}

/// One scenario's pass/fail outcome. Contains no timings and no
/// machine-local paths, so suite reports are byte-comparable across
/// runs and worker counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpecOutcome {
    /// Spec name.
    pub name: String,
    /// Paper artifact key (`fig8`, `table1`, ...).
    pub figure: String,
    /// Binary the scenario ran.
    pub bin: String,
    /// Whether every checked assertion held.
    pub passed: bool,
    /// One line per failed expectation (field-level diffs for golden
    /// mismatches).
    pub failures: Vec<String>,
}

/// The whole suite's outcome, in spec order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SuiteReport {
    /// Scenario count.
    pub total: usize,
    /// Scenarios whose assertions all held.
    pub passed: usize,
    /// Per-scenario outcomes, in discovery (filename) order.
    pub outcomes: Vec<SpecOutcome>,
}

impl SuiteReport {
    /// Whether every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.passed == self.total
    }

    /// Human-readable per-spec lines plus a summary tail.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for outcome in &self.outcomes {
            let status = if outcome.passed { "PASS" } else { "FAIL" };
            out.push_str(&format!(
                "{status}  {:<28}  [{}] {}\n",
                outcome.name, outcome.figure, outcome.bin
            ));
            for failure in &outcome.failures {
                out.push_str(&format!("      - {failure}\n"));
            }
        }
        out.push_str(&format!(
            "{} specs: {} passed, {} failed\n",
            self.total,
            self.passed,
            self.total - self.passed
        ));
        out
    }
}

/// Loads and strictly parses every `*.json` spec in `dir`, sorted by
/// filename (the deterministic suite order).
///
/// # Errors
///
/// Reports unreadable directories/files, the offending file for parse
/// failures, and duplicate spec names.
pub fn discover_specs(dir: &Path) -> Result<Vec<ScenarioSpec>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read specs dir {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json") && p.is_file())
        .collect();
    files.sort();
    let mut specs = Vec::with_capacity(files.len());
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if specs.iter().any(|s: &ScenarioSpec| s.name == spec.name) {
            return Err(format!(
                "{}: duplicate spec name `{}`",
                file.display(),
                spec.name
            ));
        }
        specs.push(spec);
    }
    if specs.is_empty() {
        return Err(format!("no *.json specs found in {}", dir.display()));
    }
    Ok(specs)
}

/// Runs every spec on the worker pool and collects outcomes in spec
/// order.
///
/// Scenario *failures* (assertion mismatches, unexpected exits) land in
/// the report; only infrastructure faults — an unresolvable binary, an
/// unreadable golden, a sandbox that cannot be created — abort the
/// suite, surfacing the first such error in spec order.
///
/// # Errors
///
/// Returns the first infrastructure error in spec order.
pub fn run_suite(specs: Vec<ScenarioSpec>, options: &RunnerOptions) -> Result<SuiteReport, String> {
    let outcomes = parallel_try_map(options.workers, specs, |spec| run_spec(&spec, options))?;
    let passed = outcomes.iter().filter(|o| o.passed).count();
    Ok(SuiteReport {
        total: outcomes.len(),
        passed,
        outcomes,
    })
}

/// Runs one scenario in its sandbox and evaluates its assertions.
///
/// # Errors
///
/// Returns infrastructure errors only; assertion failures are recorded
/// in the outcome.
pub fn run_spec(spec: &ScenarioSpec, options: &RunnerOptions) -> Result<SpecOutcome, String> {
    let sandbox = options.sandbox_root.join(format!(
        "ev-edge-conformance-{}-{}-{}",
        std::process::id(),
        SANDBOX_SEQ.fetch_add(1, Ordering::Relaxed),
        spec.name
    ));
    // (pid, seq) can still collide with a *dead* run after pid reuse;
    // a live run can't hold this key, so a leftover dir is stale.
    if sandbox.exists() {
        std::fs::remove_dir_all(&sandbox)
            .map_err(|e| format!("spec `{}`: cannot clear stale sandbox: {e}", spec.name))?;
    }
    std::fs::create_dir_all(&sandbox)
        .map_err(|e| format!("spec `{}`: cannot create sandbox: {e}", spec.name))?;
    let artifact_path = sandbox.join("report.json");

    let program = options.bins.resolve(&spec.bin)?;
    let mut command = Command::new(&program);
    if options.quick {
        command.arg("--quick");
    }
    if spec.artifact {
        command.arg("--json").arg(&artifact_path);
    }
    command.args(&spec.args);
    command.current_dir(&sandbox);
    let output = command.output().map_err(|e| {
        format!(
            "spec `{}`: cannot run {}: {e}",
            spec.name,
            program.display()
        )
    })?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    let mut failures = Vec::new();
    if spec.must_fail {
        if output.status.success() {
            failures.push("expected a nonzero exit, but the scenario succeeded".to_string());
        }
        failures.extend(panic_failure(&stderr));
    } else if !output.status.success() {
        failures.push(format!(
            "scenario exited with {}; stderr: {}",
            output.status,
            stderr.trim()
        ));
    }

    // Parse the artifact once, only if some assertion needs it and the
    // run was supposed to produce one.
    let needs_artifact = !spec.must_fail
        && spec.artifact
        && spec.artifact_assertions().next().is_some()
        && failures.is_empty();
    let artifact: Option<(String, Value)> = if needs_artifact {
        match std::fs::read_to_string(&artifact_path) {
            Ok(text) => match serde_json::from_str::<Value>(&text) {
                Ok(value) => Some((text, value)),
                Err(e) => {
                    failures.push(format!("artifact is not valid JSON: {e}"));
                    None
                }
            },
            Err(e) => {
                failures.push(format!("scenario wrote no JSON artifact: {e}"));
                None
            }
        }
    } else {
        None
    };

    let checked: Vec<&Assertion> = if options.quick {
        spec.assertions
            .iter()
            .chain(&spec.quick_assertions)
            .collect()
    } else {
        spec.assertions.iter().collect()
    };
    for assertion in checked {
        check_assertion(
            spec,
            assertion,
            &stdout,
            &stderr,
            artifact.as_ref(),
            options,
            &mut failures,
        )?;
    }

    // A passing scenario's sandbox is pure noise in temp_dir — remove
    // it (best-effort). Failing sandboxes stay behind for post-mortem.
    if failures.is_empty() {
        let _ = std::fs::remove_dir_all(&sandbox);
    }

    Ok(SpecOutcome {
        name: spec.name.clone(),
        figure: spec.figure.clone(),
        bin: spec.bin.clone(),
        passed: failures.is_empty(),
        failures,
    })
}

/// A `must_fail` scenario has to fail with an error message, never a
/// panic backtrace.
fn panic_failure(stderr: &str) -> Option<String> {
    stderr.contains("panicked").then(|| {
        format!(
            "expected an error message, but the scenario panicked; stderr: {}",
            stderr.trim()
        )
    })
}

fn check_assertion(
    spec: &ScenarioSpec,
    assertion: &Assertion,
    stdout: &str,
    stderr: &str,
    artifact: Option<&(String, Value)>,
    options: &RunnerOptions,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    // Artifact-dependent assertions without an artifact: the cause
    // (missing/bad artifact or failed run) is already recorded once;
    // repeating it per assertion would drown the real diff.
    match assertion {
        Assertion::StdoutContains(needle) => {
            if !stdout.contains(needle) {
                failures.push(format!("stdout does not contain {needle:?}"));
            }
        }
        Assertion::StderrContains(needle) => {
            if !stderr.contains(needle) {
                failures.push(format!("stderr does not contain {needle:?}"));
            }
        }
        Assertion::MatchesGolden(golden_rel) => {
            let Some((text, value)) = artifact else {
                return Ok(());
            };
            let golden_path = options.specs_dir.join(golden_rel);
            if options.update_golden {
                std::fs::write(&golden_path, text).map_err(|e| {
                    format!(
                        "spec `{}`: cannot update {}: {e}",
                        spec.name,
                        golden_path.display()
                    )
                })?;
                return Ok(());
            }
            let golden_text = read_golden(spec, &golden_path)?;
            let golden: Value = serde_json::from_str(&golden_text)
                .map_err(|e| format!("golden {golden_rel} is not valid JSON: {e}"))?;
            let mut diffs = Vec::new();
            diff_values("$", &golden, value, &mut diffs);
            if !diffs.is_empty() {
                failures.push(format!(
                    "artifact diverges from golden {golden_rel} in {} field(s) \
                     (UPDATE_GOLDEN=1 regenerates):",
                    diffs.len()
                ));
                failures.extend(diffs);
            }
        }
        Assertion::BytesEqualGolden(golden_rel) => {
            let Some((text, value)) = artifact else {
                return Ok(());
            };
            let golden_path = options.specs_dir.join(golden_rel);
            let golden_text = read_golden(spec, &golden_path)?;
            if *text != golden_text {
                failures.push(format!(
                    "artifact is not byte-identical to golden {golden_rel} \
                     (never regenerated — owned by its `MatchesGolden` spec):"
                ));
                match serde_json::from_str::<Value>(&golden_text) {
                    Ok(golden) => {
                        let mut diffs = Vec::new();
                        diff_values("$", &golden, value, &mut diffs);
                        if diffs.is_empty() {
                            failures.push(
                                "  (values match field-by-field; formatting differs)".to_string(),
                            );
                        }
                        failures.extend(diffs);
                    }
                    Err(e) => failures.push(format!("  (golden is not valid JSON: {e})")),
                }
            }
        }
        Assertion::FieldBits(path, expected) => {
            check_field(artifact, path, failures, |actual| match actual {
                Value::Float(f) if f.to_bits() == expected.to_bits() => None,
                Value::Int(n) if (*n as f64).to_bits() == expected.to_bits() => None,
                Value::UInt(n) if (*n as f64).to_bits() == expected.to_bits() => None,
                other => Some(format!(
                    "expected float {expected:?} (bitwise), found {other:?}"
                )),
            });
        }
        Assertion::FieldUInt(path, expected) => {
            check_field(artifact, path, failures, |actual| match actual {
                Value::UInt(n) if n == expected => None,
                Value::Int(n) if *n >= 0 && *n as u64 == *expected => None,
                other => Some(format!("expected integer {expected}, found {other:?}")),
            });
        }
        Assertion::FieldBool(path, expected) => {
            check_field(artifact, path, failures, |actual| match actual {
                Value::Bool(b) if b == expected => None,
                other => Some(format!("expected {expected}, found {other:?}")),
            });
        }
        Assertion::FieldStr(path, expected) => {
            check_field(artifact, path, failures, |actual| match actual {
                Value::String(s) if s == expected => None,
                other => Some(format!("expected {expected:?}, found {other:?}")),
            });
        }
        Assertion::ArrayLen(path, expected) => {
            check_field(artifact, path, failures, |actual| match actual {
                Value::Array(items) if items.len() == *expected => None,
                Value::Array(items) => Some(format!(
                    "expected {expected} elements, found {}",
                    items.len()
                )),
                other => Some(format!("expected an array, found {other:?}")),
            });
        }
        Assertion::FieldAtLeast(path, bound) => {
            check_numeric(artifact, path, failures, *bound, ">=", |v, b| v >= b);
        }
        Assertion::FieldAtMost(path, bound) => {
            check_numeric(artifact, path, failures, *bound, "<=", |v, b| v <= b);
        }
    }
    Ok(())
}

fn read_golden(spec: &ScenarioSpec, path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| {
        format!(
            "spec `{}`: cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create \
             MatchesGolden snapshots",
            spec.name,
            path.display()
        )
    })
}

fn check_field(
    artifact: Option<&(String, Value)>,
    path: &str,
    failures: &mut Vec<String>,
    check: impl FnOnce(&Value) -> Option<String>,
) {
    let Some((_, root)) = artifact else { return };
    match lookup_path(root, path) {
        Ok(actual) => {
            if let Some(msg) = check(actual) {
                failures.push(format!("{path}: {msg}"));
            }
        }
        Err(e) => failures.push(e),
    }
}

fn check_numeric(
    artifact: Option<&(String, Value)>,
    path: &str,
    failures: &mut Vec<String>,
    bound: f64,
    op: &str,
    holds: impl FnOnce(f64, f64) -> bool,
) {
    check_field(artifact, path, failures, |actual| {
        let numeric = match actual {
            Value::Float(f) => Some(*f),
            Value::Int(n) => Some(*n as f64),
            Value::UInt(n) => Some(*n as f64),
            _ => None,
        };
        match numeric {
            Some(v) if holds(v, bound) => None,
            Some(v) => Some(format!("expected {op} {bound}, found {v}")),
            None => Some(format!("expected a number, found {actual:?}")),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_map_resolves_and_reports_missing() -> Result<(), String> {
        let map = BinPaths::map_to_current_exe("self")?;
        assert!(map.resolve("self").is_ok());
        assert!(map.resolve("ghost").unwrap_err().contains("ghost"));
        let dir = BinPaths::Dir(PathBuf::from("/nonexistent-dir"));
        assert!(dir.resolve("fig8").unwrap_err().contains("not found"));
        Ok(())
    }

    #[test]
    fn must_fail_scenarios_may_not_panic() {
        let backtrace = "thread 'main' panicked at src/main.rs:12:5:\n\
                         attempt to multiply with overflow\n";
        let failure = panic_failure(backtrace).expect("a panic is a failure");
        assert!(failure.contains("scenario panicked"), "{failure}");
        assert!(failure.contains("attempt to multiply with overflow"));
        assert_eq!(panic_failure("Error: unknown argument `--mode`\n"), None);
    }

    #[test]
    fn suite_report_renders_summary() {
        let report = SuiteReport {
            total: 2,
            passed: 1,
            outcomes: vec![
                SpecOutcome {
                    name: "a".into(),
                    figure: "fig1".into(),
                    bin: "b1".into(),
                    passed: true,
                    failures: vec![],
                },
                SpecOutcome {
                    name: "b".into(),
                    figure: "fig2".into(),
                    bin: "b2".into(),
                    passed: false,
                    failures: vec!["$.n: expected integer 7, found UInt(8)".into()],
                },
            ],
        };
        assert!(!report.all_passed());
        let text = report.render();
        assert!(text.contains("PASS  a"));
        assert!(text.contains("FAIL  b"));
        assert!(text.contains("2 specs: 1 passed, 1 failed"));
        assert!(text.contains("expected integer 7"));
    }

    #[test]
    fn discover_rejects_empty_and_duplicate() {
        let dir = std::env::temp_dir().join(format!(
            "ev-edge-conformance-discover-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(discover_specs(&dir)
            .unwrap_err()
            .contains("no *.json specs"));
        let spec = r#"{"name": "same", "figure": "f", "bin": "b"}"#;
        std::fs::write(dir.join("a.json"), spec).unwrap();
        std::fs::write(dir.join("b.json"), spec).unwrap();
        assert!(discover_specs(&dir)
            .unwrap_err()
            .contains("duplicate spec name `same`"));
        std::fs::remove_file(dir.join("b.json")).unwrap();
        let specs = discover_specs(&dir).unwrap();
        assert_eq!(specs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
