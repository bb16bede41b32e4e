//! `evbench`: one command for the simulator's host speed and its
//! modeled latency and energy, on five workloads, with a traced
//! per-layer breakdown.
//!
//! # Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path evbench/Cargo.toml -- --seed 1 --json out.json
//! cargo run --release --manifest-path evbench/Cargo.toml -- --seed 1 --trace
//! cargo run --release --manifest-path evbench/Cargo.toml -- --seed 1 --compare evbench/baseline/seed1_a.json
//! cargo run --release --manifest-path evbench/Cargo.toml -- --smoke
//! cargo run --release --manifest-path evbench/Cargo.toml -- --workload streams --seed 3 --seconds 12 --trace 0
//! ```
//!
//! Flags: `--workload <name>` runs one workload (default: all five);
//! `--seed <n>` (default 1); `--seconds <s>` of measurement per workload
//! (default 8); `--trace [0|1]` reports the per-layer metrics of a
//! separate traced run instead of the end-to-end ones; `--json <path>`
//! writes the artifact; `--compare <old>` judges this run against an
//! earlier artifact; `--smoke` runs one round of two iterations per
//! workload; `--spans <dir>` writes every traced span there at exit.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (each metric's `value` and
//! `unit`; with several workloads, metric names are prefixed by the
//! workload).
//!
//! `--compare OLD.json` prints one row per workload × end-to-end
//! metric with the old and new run values and a verdict from the bound
//! in `BENCHMARK.json`: `worse` or `better` when the values differ by
//! more than the bound, `same` within it, and `unresolved` when either
//! side's quartile spread is wider than the bound (unless every new
//! invocation beats, or trails, every old one). Modeled outputs are
//! compared to 1e-9 relative and the output digest exactly. The exit
//! code is nonzero when any metric is `worse` or the failed fraction
//! rises.
//!
//! # Run shape
//!
//! The host load is a closed loop with one client: iterations run back
//! to back, one at a time. Each workload runs in child processes (the
//! parent re-executes itself with `--child <workload>`), one per round,
//! with the workload order rotated every round. A child sets up three
//! times (builds its inputs and runs one warm-up iteration, whose
//! output is the reference), runs timed iterations for its share of
//! `--seconds`, runs one traced reconstruction as an independent check,
//! and prints its samples, VmHWM and output digest as one JSON line. A
//! run's value of a timing metric is its best invocation's; of set-up
//! time and memory, the median over its invocations.
//!
//! Why this shape, measured on a 2-vCPU x86-64 KVM guest (Xeon, 2.1 GHz):
//!
//! - The host has phase-like interference. The same binary ran
//!   `streams` at ~52 ms and at ~78 ms per iteration for several
//!   seconds at a time, and its clock drifts by 10–20% over tens of
//!   seconds. Rounds spread those phases over all workloads and
//!   invocations instead of letting one phase own a workload; the
//!   calibration loop takes the clock drift out of the reported times;
//!   and the slow phases, which the loop barely sees (they look like
//!   contention for the caches a sibling hyperthread shares), are left
//!   out by taking the best invocation of a run.
//! - `ext_sweep_grid --workers 0` (two threads) ranged 0.33–0.64 s
//!   between runs and `--workers 1` 0.55–0.59 s, so every workload is
//!   single-threaded: `ExecMode::Serial`, `NmpConfig.workers = 1`,
//!   `ServeConfig.workers = 1`. One path inside the program ignores
//!   them: `TuneSelection::replay_search` runs with the selection's own
//!   `workers: 0` (machine parallelism, the replay contract). So the
//!   parent pins every invocation to one CPU with `taskset`, and that
//!   path sees one core too; without `taskset` (the artifact records
//!   `pinned_cpu`), `serve`'s small tune replays may use every core.
//!
//! `--seed S` is XORed into every generated input: `Sequence.seed`
//! (streams), `NmpConfig.seed` (mapping), `ServeConfig.base_seed`
//! (serve), and the event-generator and `Executor` weight seeds
//! (kernels). Seed 0 reproduces the repository's own scenarios.
//!
//! # Workloads
//!
//! - `streams`: `multipipe::run_multi_task_streams` on exactly the
//!   `exec_modes/streams_serial` scenario of `benches/exec_engine.rs`
//!   (Xavier AGX; FusionFlowNet←IndoorFlying1 with 8 bins,
//!   E2Depth←OutdoorDay1 with 6 bins and cBatch mb 1, Dotie←DenseTown10
//!   with 8 bins; RR-Network; 120 ms; queue capacity 2). Work unit:
//!   input events. The only workload that runs events → E2SF → DSFA →
//!   engine, the paper's Fig. 4 system.
//! - `mapping`: the Fig. 9 loop over the three §5 mixes from the same
//!   public calls as `figure9_detail`: RR baselines through
//!   `FitnessEvaluator::evaluate`, `run_nmp` for NMP and NMP-FP
//!   (population 32 × 30 generations), then a 50 ms
//!   `run_multi_task_runtime` playback at `near_saturation_periods`.
//!   Work unit: candidates searched (32 × 30 × 6). NMP search is most
//!   of it and it generates no events: the mirror of `streams`.
//! - `serve`: `run_service(synthetic_scenario(cfg, 6, 0.5))` with
//!   `ServeConfig::new` over a 10 s window and the default tune grid.
//!   Work unit: offered arrivals. Tenants form an open loop in
//!   simulated time at twice saturation, so most arrivals are shed:
//!   admission, ingress and the engine under churn, three epochs and
//!   little NMP work.
//! - `kernels_sparse`: `ev_nn::forward::Executor::run` of
//!   FusionFlowNet, AdaptiveSpikeNet, EvFlowNet and Dotie at 64×64 over
//!   four E2SF frames (40 ms, 4 bins) built at set-up, at mean input
//!   density ≈0.01, with `reset_state` before each network. Work unit:
//!   frame × network passes. The only workload running real `ev_sparse`
//!   kernels, where a density-adaptive dispatch would act.
//! - `kernels_dense`: the same at density ≈0.3, the other side of any
//!   density threshold (`sparse_scatter` wins 22× at 0.002 and loses
//!   2.4× at 0.3 in the hot-path micro-benchmarks).
//!
//! # Metrics
//!
//! End to end (tracing off):
//!
//! - `ref_ms_p50`: median time per iteration in *reference ms*: host
//!   ms scaled by a fixed calibration loop timed right after each
//!   iteration (see `calibration.rs`). The host's speed drifts by
//!   10–20% over tens of seconds; the scaled time does not, so this is
//!   what a user would see on a host that held its speed.
//! - `work_per_ref_s`: work units per reference second at the fixed
//!   input size, at the median iteration time.
//! - `setup_s`: host s to build the inputs and run the warm-up
//!   iteration (unscaled): the median of three set-ups per invocation,
//!   the first timed from process start, the others in the warm
//!   process. A single cold start swings by 2× with the host's caches.
//! - `peak_rss_mb`: the child's VmHWM, MiB.
//!
//! The artifact adds the unscaled host numbers: `host.wall_ms_p50`,
//! `host.wall_ms_p90` — the highest percentile with at least ten
//! samples beyond it, with its sample count — and the calibration
//! loop's median; and the failed fraction: an iteration fails when it
//! returns an error, breaks an invariant (serve: arrivals = admitted +
//! shed and admitted = completed + dropped; streams: completed +
//! dropped ≤ arrivals; mapping: every search scores population ×
//! generations candidates and every playback input completes or
//! drops), or when its output digest differs from the first warm-up's,
//! from the traced reconstruction's, or from another invocation's.
//! Kernel digests cover every output value and the MAC count.
//!
//! Per layer (a separate `--trace` run; each the median over traced
//! iterations; `0` where the workload does not run the layer). Layers
//! are named after modules; spans are recorded in this benchmark's own
//! files around the public calls, with the layer each one should move:
//!
//! - `events.*` (`Sequence::generate`): self time, count, ns per event.
//!   Moves `streams` wall time; on `kernels_*` only `setup_s`.
//! - `e2sf.*` (`E2sf::convert_intervals`): self time, frames, ns per
//!   event, mean frame density. Moves `streams` wall time.
//! - `dsfa.*` (`DsfaStage::{push, flush}`): self time, frames in,
//!   batches out, merge ratio, idle flushes. Moves `streams` wall time;
//!   policy changes move its modeled latency.
//! - `exec.engine.*` (`ExecEngine` calls and the `EventClock` ordering
//!   them, minus the model), `exec.model.*` (`MappedJobModel`
//!   dispatches, i.e. `ev_platform::latency` pricing, minus the
//!   timeline), `platform.timeline.*` (`DeviceTimeline` reservations):
//!   move `streams` wall time and the playback share of `mapping`.
//! - `nmp.*` (`FitnessEvaluator::evaluate` baselines, `run_nmp`
//!   searches): move `mapping` wall time, and `serve` through its tunes.
//! - `serve.*`: `serve.tune` is each tuned epoch's `tune_spec` +
//!   `replay_search` replayed outside the service run, `serve.epochs`
//!   is the rest of `run_service`; plus admission and epoch counts from
//!   the report. Move `serve` wall time and modeled loss.
//! - `nn.forward.*` (`Executor::run` per network): move `kernels_*`
//!   wall time and nothing else.
//! - `model.*` (simulated time): worst mean latency (mapping: mean over
//!   mixes of the NMP winner's Eq. 2 latency), worst single job, energy,
//!   (drops + sheds) / offered, and the busy share of each platform
//!   queue (streams, mapping; serve does not report it per queue). A
//!   simulator-speed change must leave them bit-identical. The model
//!   is unvalidated; checking it against the paper's bands is
//!   `validate_repro`'s job.
//! - `trace.overhead_frac` (traced p50 / untraced p50 − 1, both in
//!   reference ms) and `trace.unattributed_frac` (1 − Σ self time /
//!   traced iteration).
//!
//! This benchmark supersedes `BENCH_hotpath.json`,
//! `BENCH_exec_modes.json` and `ext_bench_summary`; removing them and
//! running `--smoke` from CI and `kick-tires.sh` is left to a later
//! change.

mod calibration;
mod spec;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use spec::{
    end_to_end_value, layer_value, num, set_value, verdict, Invocation, Spec, Verdict, OVERHEAD,
};
use stats::{median, quartiles, tail_percentile};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{check, Modeled, Output, Workload, WorkloadId};

/// Invocations per workload, one per round.
const ROUNDS: usize = 5;
const DEFAULT_SECONDS: f64 = 8.0;
/// Set-ups (input building + warm-up iteration) per invocation.
const SETUPS: usize = 3;
/// Timed iterations every invocation runs however short its budget.
const MIN_ITERATIONS: usize = 3;
/// Traced iterations a traced run spreads over its invocations.
const MIN_TRACED: usize = 20;

/// Attempted and failed iterations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that failed.
    pub failed: u64,
    /// The first failure's message.
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one iteration's check.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// Failed iterations / attempted iterations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
    json: Option<String>,
    compare: Option<String>,
    smoke: bool,
    spans: Option<String>,
    child: Option<WorkloadId>,
    iterations: Option<usize>,
    min_traced: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        rounds: ROUNDS,
        json: None,
        compare: None,
        smoke: false,
        spans: None,
        child: None,
        iterations: None,
        min_traced: MIN_TRACED,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        let workload = |name: String| {
            WorkloadId::parse(&name).ok_or(format!(
                "unknown workload `{name}` (expected one of {})",
                WorkloadId::ALL.map(WorkloadId::name).join(", ")
            ))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(value("a workload name")?)?),
            "--child" => args.child = Some(workload(value("a workload name")?)?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = s;
            }
            "--iterations" => {
                args.iterations = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--iterations: {e}"))?,
                );
            }
            "--min-traced" => {
                args.min_traced = value("a number")?
                    .parse()
                    .map_err(|e| format!("--min-traced: {e}"))?;
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => args.json = Some(value("a path")?),
            "--compare" => args.compare = Some(value("a path")?),
            "--spans" => args.spans = Some(value("a directory")?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn vmhwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

fn modeled_value(m: &Modeled) -> Value {
    Value::Object(vec![
        ("latency_ms".into(), Value::Float(m.latency_ms)),
        ("max_latency_ms".into(), Value::Float(m.max_latency_ms)),
        ("energy_mj".into(), Value::Float(m.energy_mj)),
        ("loss_frac".into(), Value::Float(m.loss_frac)),
    ])
}

fn write_spans(dir: &str, workload: WorkloadId) -> Result<(), String> {
    let (spans, dropped) = trace::take_spans();
    let items = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.to_string())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("iteration".into(), Value::UInt(u64::from(s.iteration))),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        (
            "workload".into(),
            Value::String(workload.name().to_string()),
        ),
        ("dropped".into(), Value::UInt(dropped)),
        ("spans".into(), Value::Array(items)),
    ]);
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!(
        "{dir}/spans-{}-{}.json",
        workload.name(),
        std::process::id()
    );
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

/// One invocation: set up, warm up, measure, check, report one line.
fn child(id: WorkloadId, args: &Args, start: Instant, spec: &Spec) -> Result<Value, String> {
    // Set up several times, the first from process start: one cold
    // start is at the mercy of the host's caches, a median is not.
    // Every warm-up must produce the first one's output.
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut current: Option<(Box<dyn Workload>, Output)> = None;
    let mut began = start;
    for _ in 0..SETUPS {
        let reference = current.take().map(|(_, out)| out);
        let mut w = id.setup(args.seed)?;
        let warmup = w.run()?;
        let out = w.summarize(&warmup);
        setup_s.push(began.elapsed().as_secs_f64());
        let reference = reference.unwrap_or_else(|| out.clone());
        tally.record(check(reference.digest, &out));
        current = Some((w, reference));
        began = Instant::now();
    }
    let (mut w, reference) = current.expect("SETUPS is positive");

    let untraced_budget = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let done = |n: usize, began: Instant, budget: f64, floor: usize| match args.iterations {
        Some(k) => n >= k,
        None => n >= floor && began.elapsed().as_secs_f64() >= budget,
    };
    let mut samples_ms = Vec::new();
    let mut calibration_ms = Vec::new();
    let began = Instant::now();
    while !done(samples_ms.len(), began, untraced_budget, MIN_ITERATIONS) {
        let t = Instant::now();
        let raw = w.run();
        samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        calibration_ms.push(calibration::calibration_ms());
        tally.record(raw.and_then(|raw| check(reference.digest, &w.summarize(&raw))));
    }

    // Traced iterations rebuild the entry point's work from public
    // calls, so each one doubles as an independent check of its output.
    let mut traced_ref_ms = Vec::new();
    let mut layers = Vec::new();
    let began = Instant::now();
    let (budget, floor) = if args.trace {
        (args.seconds - untraced_budget, args.min_traced)
    } else {
        (0.0, 1)
    };
    while traced_ref_ms.is_empty()
        || (args.trace && !done(traced_ref_ms.len(), began, budget, floor))
    {
        let (raw, it) = match w.run_traced() {
            Ok(traced) => traced,
            Err(e) => {
                tally.record(Err(e));
                break;
            }
        };
        let out = w.summarize(&raw);
        tally.record(check(reference.digest, &out));
        traced_ref_ms.push(calibration::to_reference_ms(
            it.total_ns as f64 / 1e6,
            calibration::calibration_ms(),
        ));
        let values: Vec<(String, Value)> = spec
            .per_layer
            .iter()
            .filter_map(|m| {
                layer_value(&m.name, &it, out.modeled.as_ref())
                    .map(|v| (m.name.clone(), Value::Float(v)))
            })
            .collect();
        layers.push(Value::Object(values));
    }
    if !args.trace {
        traced_ref_ms.clear();
        layers.clear();
    }
    if let Some(dir) = &args.spans {
        write_spans(dir, id)?;
    }

    Ok(Value::Object(vec![
        ("workload".into(), Value::String(id.name().to_string())),
        ("setup_s".into(), floats(&setup_s)),
        ("samples_ms".into(), floats(&samples_ms)),
        ("calibration_ms".into(), floats(&calibration_ms)),
        ("traced_ref_ms".into(), floats(&traced_ref_ms)),
        (
            "work_per_iteration".into(),
            Value::Float(w.work_per_iteration()),
        ),
        ("vmhwm_kb".into(), Value::Float(vmhwm_kb())),
        (
            "digest".into(),
            Value::String(format!("{:016x}", reference.digest)),
        ),
        ("attempted".into(), Value::UInt(tally.attempted)),
        ("failed".into(), Value::UInt(tally.failed)),
        (
            "error".into(),
            tally.first_error.map_or(Value::Null, Value::String),
        ),
        (
            "modeled".into(),
            reference
                .modeled
                .as_ref()
                .map_or(Value::Null, modeled_value),
        ),
        ("layers".into(), Value::Array(layers)),
    ]))
}

/// A child's JSON line, read back by the parent.
#[derive(Debug, Clone)]
struct ChildReport {
    inv: Invocation,
    traced_ref_ms: Vec<f64>,
    digest: String,
    tally: Tally,
    modeled: Value,
    layers: Vec<Value>,
}

fn float_list(v: Option<&Value>) -> Vec<f64> {
    match v {
        Some(Value::Array(items)) => items.iter().filter_map(num).collect(),
        _ => Vec::new(),
    }
}

fn parse_child(line: &str) -> Result<ChildReport, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("child output: {e}"))?;
    let f = |k: &str| {
        v.get(k)
            .and_then(num)
            .ok_or(format!("child output lacks `{k}`"))
    };
    Ok(ChildReport {
        inv: Invocation {
            setup_s: float_list(v.get("setup_s")),
            samples_ms: float_list(v.get("samples_ms")),
            calibration_ms: float_list(v.get("calibration_ms")),
            work_per_iteration: f("work_per_iteration")?,
            vmhwm_kb: f("vmhwm_kb")?,
        },
        traced_ref_ms: float_list(v.get("traced_ref_ms")),
        digest: v
            .get("digest")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        tally: Tally {
            attempted: f("attempted")? as u64,
            failed: f("failed")? as u64,
            first_error: v.get("error").and_then(Value::as_str).map(str::to_string),
        },
        modeled: v.get("modeled").cloned().unwrap_or(Value::Null),
        layers: match v.get("layers") {
            Some(Value::Array(items)) => items.clone(),
            _ => Vec::new(),
        },
    })
}

/// The CPU invocations are pinned to, if `taskset` can pin them: the
/// last one. Pinned, the program's own auto-parallel paths (`workers:
/// 0`) see a single core as well, so every workload runs on one thread.
fn pinned_cpu() -> Option<usize> {
    let cpu = std::thread::available_parallelism().ok()?.get() - 1;
    let pinned = Command::new("taskset")
        .args(["-c", &cpu.to_string(), "true"])
        .output()
        .is_ok_and(|o| o.status.success());
    pinned.then_some(cpu)
}

fn spawn_child(
    id: WorkloadId,
    args: &Args,
    seconds: f64,
    cpu: Option<usize>,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating evbench: {e}"))?;
    let mut cmd = match cpu {
        Some(cpu) => {
            let mut taskset = Command::new("taskset");
            taskset.args(["-c", &cpu.to_string()]).arg(exe);
            taskset
        }
        None => Command::new(exe),
    };
    cmd.args(["--child", id.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args([
            "--min-traced",
            &args.min_traced.div_ceil(args.rounds).to_string(),
        ]);
    if let Some(n) = args.iterations {
        cmd.args(["--iterations", &n.to_string()]);
    }
    if let Some(dir) = &args.spans {
        cmd.args(["--spans", dir]);
    }
    // `output` waits for the child to exit.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} child: {e}", id.name()))?;
    if !out.status.success() {
        return Err(format!("the {} child failed: {}", id.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("the {} child printed nothing", id.name()))?;
    parse_child(line)
}

/// Everything the invocations of one workload measured.
#[derive(Debug, Clone)]
struct WorkloadResult {
    id: WorkloadId,
    children: Vec<ChildReport>,
    tally: Tally,
}

impl WorkloadResult {
    fn new(id: WorkloadId, children: Vec<ChildReport>) -> Self {
        let mut tally = Tally::default();
        let reference = children
            .first()
            .map(|c| c.digest.clone())
            .unwrap_or_default();
        for c in &children {
            tally.attempted += c.tally.attempted;
            tally.failed += c.tally.failed;
            if let Some(e) = &c.tally.first_error {
                tally.first_error.get_or_insert(e.clone());
            }
            // Another invocation with the same seed must agree bit for bit.
            if c.digest != reference {
                tally.failed += c.tally.attempted - c.tally.failed;
                tally.first_error.get_or_insert(format!(
                    "invocation digest {} differs from {reference}",
                    c.digest
                ));
            }
        }
        WorkloadResult {
            id,
            children,
            tally,
        }
    }

    /// Per-invocation values of an end-to-end metric.
    fn invocations(&self, name: &str) -> Vec<f64> {
        self.children
            .iter()
            .filter_map(|c| end_to_end_value(name, &c.inv))
            .collect()
    }

    fn pooled(&self, pick: impl Fn(&ChildReport) -> Vec<f64>) -> Vec<f64> {
        self.children.iter().flat_map(pick).collect()
    }

    /// Median over every traced iteration of per-layer metric `name`.
    fn layer(&self, name: &str) -> f64 {
        if name == OVERHEAD {
            let traced = median(&self.pooled(|c| c.traced_ref_ms.clone()));
            let untraced = median(&self.pooled(|c| c.inv.reference_ms()));
            return traced / untraced - 1.0;
        }
        let values: Vec<f64> = self
            .children
            .iter()
            .flat_map(|c| c.layers.iter())
            .filter_map(|l| l.get(name).and_then(num))
            .collect();
        median(&values)
    }

    /// The reported metrics: end to end, or per layer for a traced run.
    fn metrics(&self, spec: &Spec, traced: bool) -> Vec<(String, f64, String)> {
        let list = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        list.iter()
            .map(|m| {
                let value = if traced {
                    self.layer(&m.name)
                } else {
                    set_value(m, &self.invocations(&m.name))
                };
                (m.name.clone(), value, m.unit.clone())
            })
            .collect()
    }

    fn artifact(&self, spec: &Spec, traced: bool) -> Value {
        let mut metrics = Vec::new();
        for m in &spec.end_to_end {
            let values = self.invocations(&m.name);
            let (q1, q3) = quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
            let mut fields = vec![
                ("unit".to_string(), Value::String(m.unit.clone())),
                ("value".to_string(), Value::Float(set_value(m, &values))),
                ("median".to_string(), Value::Float(median(&values))),
                ("invocations".to_string(), floats(&values)),
            ];
            if q1.is_finite() {
                fields.push(("q1".to_string(), Value::Float(q1)));
                fields.push(("q3".to_string(), Value::Float(q3)));
            }
            metrics.push((m.name.clone(), Value::Object(fields)));
        }
        let samples = self.pooled(|c| c.inv.samples_ms.clone());
        let p90 = tail_percentile(&samples, 90.0).map_or(Value::Null, |p| {
            Value::Object(vec![
                ("percentile".into(), Value::Float(p.percentile)),
                ("value_ms".into(), Value::Float(p.value)),
                ("n".into(), Value::UInt(p.n as u64)),
            ])
        });
        let mut fields = vec![
            (
                "name".to_string(),
                Value::String(self.id.name().to_string()),
            ),
            ("attempted".to_string(), Value::UInt(self.tally.attempted)),
            ("failed".to_string(), Value::UInt(self.tally.failed)),
            (
                "ops_failed_frac".to_string(),
                Value::Float(self.tally.failed_frac()),
            ),
            (
                "first_error".to_string(),
                self.tally
                    .first_error
                    .clone()
                    .map_or(Value::Null, Value::String),
            ),
            (
                "digest".to_string(),
                Value::String(
                    self.children
                        .first()
                        .map(|c| c.digest.clone())
                        .unwrap_or_default(),
                ),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
            (
                "host".to_string(),
                Value::Object(vec![
                    ("wall_ms_p50".into(), Value::Float(median(&samples))),
                    ("wall_ms_p90".into(), p90),
                    ("samples".into(), Value::UInt(samples.len() as u64)),
                    (
                        "calibration_ms_p50".into(),
                        Value::Float(median(&self.pooled(|c| c.inv.calibration_ms.clone()))),
                    ),
                ]),
            ),
            (
                "modeled".to_string(),
                self.children
                    .first()
                    .map_or(Value::Null, |c| c.modeled.clone()),
            ),
        ];
        if traced {
            let layers = spec
                .per_layer
                .iter()
                .map(|m| (m.name.clone(), Value::Float(self.layer(&m.name))))
                .collect();
            fields.push(("layers".to_string(), Value::Object(layers)));
        }
        Value::Object(fields)
    }
}

fn artifact(args: &Args, spec: &Spec, results: &[WorkloadResult], cpu: Option<usize>) -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "pinned_cpu".into(),
            cpu.map_or(Value::Null, |c| Value::UInt(c as u64)),
        ),
        ("rustc".into(), Value::String(rustc)),
        (
            "profile".into(),
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("seed".into(), Value::UInt(args.seed)),
        ("rounds".into(), Value::UInt(args.rounds as u64)),
        ("seconds_per_workload".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "workloads".into(),
            Value::Array(
                results
                    .iter()
                    .map(|r| r.artifact(spec, args.trace))
                    .collect(),
            ),
        ),
    ])
}

fn find_workload<'a>(artifact: &'a Value, name: &str) -> Option<&'a Value> {
    match artifact.get("workloads") {
        Some(Value::Array(items)) => items
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name)),
        _ => None,
    }
}

/// Prints the `--compare` table; returns whether anything got worse.
fn compare(old: &Value, new: &Value, spec: &Spec) -> bool {
    let mut worse = false;
    println!(
        "{:<15} {:<18} {:>14} {:>14}  verdict",
        "workload", "metric", "old", "new"
    );
    let Some(Value::Array(workloads)) = new.get("workloads") else {
        return false;
    };
    for nw in workloads {
        let name = nw.get("name").and_then(Value::as_str).unwrap_or_default();
        let Some(ow) = find_workload(old, name) else {
            println!("{name:<15} (not in the old artifact)");
            continue;
        };
        let mut row = |metric: &str, o: f64, n: f64, v: Verdict| {
            worse |= v == Verdict::Worse;
            println!("{name:<15} {metric:<18} {o:>14.6} {n:>14.6}  {}", v.name());
        };
        for m in &spec.end_to_end {
            let values = |w: &Value| {
                float_list(
                    w.get("metrics")
                        .and_then(|x| x.get(&m.name))
                        .and_then(|x| x.get("invocations")),
                )
            };
            let (ov, nv) = (values(ow), values(nw));
            if ov.is_empty() || nv.is_empty() {
                continue;
            }
            row(
                &m.name,
                set_value(m, &ov),
                set_value(m, &nv),
                verdict(m, &ov, &nv),
            );
        }
        let frac = |w: &Value| w.get("ops_failed_frac").and_then(num).unwrap_or(0.0);
        let (of, nf) = (frac(ow), frac(nw));
        let v = match nf.total_cmp(&of) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Same,
        };
        row("ops_failed_frac", of, nf, v);
        // Modeled outputs: lower is better, and only 1e-9 relative is
        // "same" — a simulator-speed change must not move them.
        for key in ["latency_ms", "max_latency_ms", "energy_mj", "loss_frac"] {
            let get = |w: &Value| w.get("modeled").and_then(|m| m.get(key)).and_then(num);
            if let (Some(o), Some(n)) = (get(ow), get(nw)) {
                let tol = 1e-9 * o.abs().max(f64::MIN_POSITIVE);
                let v = if (n - o).abs() <= tol {
                    Verdict::Same
                } else if n > o {
                    Verdict::Worse
                } else {
                    Verdict::Better
                };
                row(&format!("modeled.{key}"), o, n, v);
            }
        }
        let digest = |w: &Value| w.get("digest").and_then(Value::as_str).map(str::to_string);
        let same = digest(ow) == digest(nw);
        println!(
            "{name:<15} {:<18} {:>14} {:>14}  {}",
            "output digest",
            digest(ow).unwrap_or_default(),
            digest(nw).unwrap_or_default(),
            if same { "same" } else { "changed" }
        );
    }
    worse
}

fn drive(args: &Args, spec: &Spec) -> Result<ExitCode, String> {
    let mut args = args.clone();
    if args.smoke {
        args.rounds = 1;
        args.iterations = Some(2);
        args.min_traced = 2;
    }
    let ids: Vec<WorkloadId> = match args.workload {
        Some(w) => vec![w],
        None => spec
            .workloads
            .iter()
            .map(|name| WorkloadId::parse(name).ok_or(format!("BENCHMARK.json names `{name}`")))
            .collect::<Result<_, _>>()?,
    };
    let per_child = args.seconds / args.rounds as f64;
    let cpu = pinned_cpu();
    let mut children: BTreeMap<usize, Vec<ChildReport>> = BTreeMap::new();
    for round in 0..args.rounds {
        for k in 0..ids.len() {
            let slot = (k + round) % ids.len();
            let report = spawn_child(ids[slot], &args, per_child, cpu)?;
            children.entry(slot).or_default().push(report);
        }
    }
    let results: Vec<WorkloadResult> = children
        .into_iter()
        .map(|(slot, c)| WorkloadResult::new(ids[slot], c))
        .collect();

    let mut metrics = Vec::new();
    let mut total = Tally::default();
    for r in &results {
        let samples = r.pooled(|c| c.inv.samples_ms.clone());
        println!(
            "== {} ({} invocations, {} samples, {} of {} iterations failed)",
            r.id.name(),
            r.children.len(),
            samples.len(),
            r.tally.failed,
            r.tally.attempted
        );
        if let Some(e) = &r.tally.first_error {
            println!("   first failure: {e}");
        }
        for (name, value, unit) in r.metrics(spec, args.trace) {
            println!("   {name:<38} {value:>16.6} {unit}");
            let key = if ids.len() == 1 {
                name
            } else {
                format!("{}.{name}", r.id.name())
            };
            metrics.push((
                key,
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::String(unit)),
                ]),
            ));
        }
        if let Some(p) = tail_percentile(&samples, 90.0) {
            println!(
                "   host.wall_ms_p{:<27} {:>16.6} ms (n = {})",
                p.percentile, p.value, p.n
            );
        }
        total.attempted += r.tally.attempted;
        total.failed += r.tally.failed;
    }

    let mut code = ExitCode::SUCCESS;
    if args.json.is_some() || args.compare.is_some() {
        let doc = artifact(&args, spec, &results, cpu);
        if let Some(path) = &args.json {
            let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
            std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &args.compare {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let old: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            if compare(&old, &doc, spec) {
                code = ExitCode::FAILURE;
            }
        }
    }
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(total.failed == 0)),
        ("attempted".into(), Value::UInt(total.attempted)),
        ("failed".into(), Value::UInt(total.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(code)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<ExitCode, String> {
        let args = parse_args(&raw)?;
        let spec = Spec::embedded()?;
        match args.child {
            Some(id) => {
                let line = child(id, &args, start, &spec)?;
                println!(
                    "{}",
                    serde_json::to_string(&line).map_err(|e| e.to_string())?
                );
                Ok(ExitCode::SUCCESS)
            }
            None => drive(&args, &spec),
        }
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("evbench: {e}");
            ExitCode::from(2)
        }
    }
}
