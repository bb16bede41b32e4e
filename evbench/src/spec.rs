//! The metric definitions of `BENCHMARK.json` (compiled in), the value
//! of every metric, and the `--compare` verdicts.

use crate::calibration::to_reference_ms;
use crate::stats::{median, relative_spread};
use crate::trace::{IterationTrace, ITERATION};
use crate::workloads::Modeled;
use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the old median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported without tracing).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by a traced run).
    pub per_layer: Vec<MetricSpec>,
}

/// Reads a JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        _ => None,
    }
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let Some(Value::Array(items)) = root.get(key) else {
        return Err(format!("BENCHMARK.json: `{key}` is not a list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
            };
            let better = field("better")?;
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(num),
            })
        })
        .collect()
}

impl Spec {
    /// The `BENCHMARK.json` this binary was built with.
    ///
    /// # Errors
    ///
    /// Describes a malformed file.
    pub fn embedded() -> Result<Spec, String> {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
        let Some(Value::Array(items)) = root.get("workloads") else {
            return Err("BENCHMARK.json: `workloads` is not a list".to_string());
        };
        let workloads = items
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: a workload lacks `name`".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }
}

/// What one child process measured, as the parent needs it for the
/// end-to-end metrics.
#[derive(Debug, Clone, Default)]
pub struct Invocation {
    /// Set-up times, s: child start → first warm-up iteration done,
    /// then the repeated set-ups in the warm process.
    pub setup_s: Vec<f64>,
    /// Untraced iteration times, host ms.
    pub samples_ms: Vec<f64>,
    /// The calibration loop's time right after each sample, host ms.
    pub calibration_ms: Vec<f64>,
    /// Work units per iteration.
    pub work_per_iteration: f64,
    /// Peak resident set (VmHWM), KiB.
    pub vmhwm_kb: f64,
}

impl Invocation {
    /// Iteration times in reference ms (see [`crate::calibration`]).
    pub fn reference_ms(&self) -> Vec<f64> {
        self.samples_ms
            .iter()
            .zip(&self.calibration_ms)
            .map(|(&t, &c)| to_reference_ms(t, c))
            .collect()
    }
}

/// One invocation's value of end-to-end metric `name`; `None` for a
/// name this benchmark does not define.
pub fn end_to_end_value(name: &str, inv: &Invocation) -> Option<f64> {
    Some(match name {
        "ref_ms_p50" => median(&inv.reference_ms()),
        "work_per_ref_s" => inv.work_per_iteration * 1e3 / median(&inv.reference_ms()),
        "setup_s" => median(&inv.setup_s),
        "peak_rss_mb" => inv.vmhwm_kb / 1024.0,
        _ => return None,
    })
}

/// A run's value of an end-to-end metric from its invocations' values.
/// Host interference only ever adds time, and a phase of it can cover a
/// whole invocation, so the timing metrics take the best invocation;
/// set-up time and memory take the median.
pub fn set_value(metric: &MetricSpec, invocations: &[f64]) -> f64 {
    let best = if metric.higher_is_better {
        f64::max
    } else {
        f64::min
    };
    match metric.name.as_str() {
        "ref_ms_p50" | "work_per_ref_s" => {
            invocations.iter().copied().reduce(best).unwrap_or(f64::NAN)
        }
        _ => median(invocations),
    }
}

/// Names the parent computes from all traced iterations together
/// rather than per iteration.
pub const OVERHEAD: &str = "trace.overhead_frac";

/// Counters read straight from the trace.
const COUNTERS: [&str; 19] = [
    "nn.forward.macs_actual",
    "events.count",
    "e2sf.frames",
    "dsfa.frames_in",
    "dsfa.batches_out",
    "dsfa.idle_flushes",
    "exec.engine.jobs",
    "exec.engine.dropped",
    "exec.model.dispatches",
    "platform.timeline.calls",
    "platform.timeline.slots",
    "nmp.search.evaluations",
    "serve.shed_saturated",
    "serve.shed_ingress_full",
    "serve.epochs_tuned",
    "serve.epochs_carried",
    "serve.epochs_cached",
    "serve.utilization_mean",
    "nn.forward.input_density",
];

/// One traced iteration's value of per-layer metric `name` (`0` for a
/// layer the workload does not run); `None` for a name this benchmark
/// does not define, and for [`OVERHEAD`].
pub fn layer_value(name: &str, it: &IterationTrace, modeled: Option<&Modeled>) -> Option<f64> {
    let self_ns = |span: &str| it.self_ns.get(span).copied().unwrap_or(0) as f64;
    let c = |k: &str| it.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let model = |f: fn(&Modeled) -> f64| modeled.map_or(0.0, f);
    let scored = c("nmp.search.evaluations") + c("nmp.search.cache_hits");
    Some(match name {
        "events.ns_per_event" => ratio(self_ns("events"), c("events.count")),
        "e2sf.ns_per_event" => ratio(self_ns("e2sf"), c("events.count")),
        "e2sf.mean_density" => ratio(c("e2sf.density_sum"), c("e2sf.frames")),
        "dsfa.merge_ratio" => ratio(c("dsfa.frames_in"), c("dsfa.batches_out")),
        "nmp.search.cache_hit_ratio" => ratio(c("nmp.search.cache_hits"), scored),
        "nmp.search.candidates_per_s" => ratio(scored, self_ns("nmp.search") / 1e9),
        "serve.admitted_frac" => ratio(c("serve.admitted"), c("serve.arrivals")),
        "nn.forward.self_ms" => {
            it.self_ns
                .iter()
                .filter(|(k, _)| k.starts_with("nn.forward."))
                .map(|(_, &v)| v)
                .sum::<u64>() as f64
                / 1e6
        }
        "nn.forward.effectual_frac" => {
            ratio(c("nn.forward.macs_actual"), c("nn.forward.macs_dense"))
        }
        "trace.unattributed_frac" => ratio(self_ns(ITERATION), it.total_ns as f64),
        "model.latency_ms" => model(|m| m.latency_ms),
        "model.max_latency_ms" => model(|m| m.max_latency_ms),
        "model.energy_mj" => model(|m| m.energy_mj),
        "model.loss_frac" => model(|m| m.loss_frac),
        n if n.starts_with("model.pe_util.") => modeled
            .and_then(|m| {
                let queue = &n["model.pe_util.".len()..];
                m.pe_util.iter().find(|(q, _)| q == queue).map(|&(_, u)| u)
            })
            .unwrap_or(0.0),
        n if COUNTERS.contains(&n) => c(n),
        n if n.ends_with(".self_ms") && n != OVERHEAD => {
            self_ns(&n[..n.len() - ".self_ms".len()]) / 1e6
        }
        _ => return None,
    })
}

/// A `--compare` verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a change of `metric` from the `old` to the `new`
/// per-invocation values. The run values ([`set_value`]) must differ by
/// more than the metric's bound (a share of the old value) to count;
/// when either side's quartile spread is wider than the bound the
/// verdict is unresolved, unless every new value beats (or trails)
/// every old one.
pub fn verdict(metric: &MetricSpec, old: &[f64], new: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let worse_by = |a: f64, b: f64| {
        let d = (b - a) / a.abs();
        if metric.higher_is_better {
            -d
        } else {
            d
        }
    };
    let all = |pred: &dyn Fn(f64) -> bool| {
        old.iter()
            .all(|&o| new.iter().all(|&n| pred(worse_by(o, n))))
    };
    if relative_spread(old).max(relative_spread(new)) > bound {
        return if all(&|w| w < 0.0) {
            Verdict::Better
        } else if all(&|w| w > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let w = worse_by(set_value(metric, old), set_value(metric, new));
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadId;

    #[test]
    fn benchmark_json_matches_the_code() {
        let spec = Spec::embedded().expect("valid BENCHMARK.json");
        let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let reference = crate::calibration::REFERENCE_MS;
        let inv = Invocation {
            setup_s: vec![3.0, 1.0, 1.0],
            samples_ms: vec![1.0, 2.0],
            calibration_ms: vec![reference, 2.0 * reference],
            work_per_iteration: 3.0,
            vmhwm_kb: 1024.0,
        };
        for m in &spec.end_to_end {
            assert!(end_to_end_value(&m.name, &inv).is_some(), "{}", m.name);
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        // Both samples are 1 reference ms: the second ran on a host at
        // half speed.
        assert_eq!(end_to_end_value("ref_ms_p50", &inv), Some(1.0));
        assert_eq!(end_to_end_value("work_per_ref_s", &inv), Some(3000.0));
        assert_eq!(end_to_end_value("setup_s", &inv), Some(1.0));
        let it = IterationTrace::default();
        for m in &spec.per_layer {
            assert!(
                m.name == OVERHEAD || layer_value(&m.name, &it, None).is_some(),
                "{} has no definition",
                m.name
            );
            assert!(m.bound.is_none());
        }
        assert!(spec.per_layer.iter().any(|m| m.name == OVERHEAD));
        assert_eq!(layer_value("no.such_metric", &it, None), None);
    }

    fn metric(name: &str, higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn timing_takes_the_best_invocation_and_the_rest_the_median() {
        let v = [3.0, 1.0, 2.0, 9.0];
        assert_eq!(set_value(&metric("ref_ms_p50", false), &v), 1.0);
        assert_eq!(set_value(&metric("work_per_ref_s", true), &v), 9.0);
        assert_eq!(set_value(&metric("setup_s", false), &v), 2.5);
    }

    #[test]
    fn verdicts_respect_bounds_and_spread() {
        let (time, rate) = (metric("setup_s", false), metric("peak_rss_mb", true));
        let old = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [102.0, 101.0, 103.0, 102.5, 101.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&time, &old, &same), Verdict::Same);
        assert_eq!(verdict(&time, &old, &slower), Verdict::Worse);
        assert_eq!(verdict(&time, &old, &faster), Verdict::Better);
        // Higher is better.
        assert_eq!(verdict(&rate, &old, &slower), Verdict::Better);
        assert_eq!(verdict(&rate, &old, &faster), Verdict::Worse);
        // A noisy side makes the change unresolved...
        let noisy = [60.0, 140.0, 100.0, 70.0, 150.0];
        assert_eq!(verdict(&time, &old, &noisy), Verdict::Unresolved);
        // ...unless every new run beats, or trails, every old one.
        let noisy_fast = [10.0, 40.0, 20.0, 90.0, 30.0];
        assert_eq!(verdict(&time, &old, &noisy_fast), Verdict::Better);
        let noisy_slow = [110.0, 140.0, 200.0, 130.0, 180.0];
        assert_eq!(verdict(&time, &old, &noisy_slow), Verdict::Worse);
    }
}
