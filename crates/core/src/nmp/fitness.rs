//! Candidate fitness: Equation 2 objective via Equation 3 scheduling.
//!
//! Fitness of a mapping candidate = the critical-path latency of the
//! multi-task graph under per-device FIFO queues (computed by the
//! `ev-platform` list scheduler), with data-transfer nodes inserted on the
//! unified-memory queue wherever a producer and consumer layer sit on
//! different elements, penalized when any task's accuracy degradation
//! exceeds its ΔA threshold. Reports are cached by candidate hash, as the
//! paper does. [`FitnessEvaluator::evaluate_all`] hashes each candidate
//! once, keys the cache by that hash as it is, and returns reports
//! borrowed from the cache, so a cache hit copies nothing.
//!
//! A cache miss reads each layer's cost from the dense recorded profile,
//! builds the joint graph into flat per-worker buffers (a
//! [`SchedGraphBuilder`] and a [`Schedule`] kept in a thread-local) and
//! schedules it in one Kahn pass, so an evaluation allocates only the
//! report it returns.

use crate::exec::job::SchedGraphBuilder;
use crate::exec::parallel::parallel_map;
use crate::nmp::candidate::Candidate;
use crate::nmp::multitask::MultiTaskProblem;
use crate::EvEdgeError;
use ev_core::TimeDelta;
use ev_nn::Precision;
use ev_platform::energy::Energy;
use ev_platform::schedule::{list_schedule, Schedule};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// What the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// The paper's Equation 2: critical-path latency of one joint
    /// multi-task inference.
    #[default]
    JointLatency,
    /// Extension: schedulability load under periodic streaming arrivals —
    /// the maximum of each task's `latency / period` (tasks are serial:
    /// an inference must finish before its successor starts) and each
    /// processing element's utilization `Σ_t busy_t / period_t`. A load
    /// below 1 means the mapping sustains every task's input rate (see
    /// `ev_edge::multipipe`). Tasks without a period fall back to their
    /// latency in seconds.
    Streaming,
}

/// Multiplicative latency penalty per unit of relative ΔA violation.
const VIOLATION_PENALTY: f64 = 10.0;

/// Fitness evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitnessConfig {
    /// The quantity being minimized.
    pub objective: Objective,
}

/// The evaluated fitness of one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct FitnessReport {
    /// Per-task critical-path latency.
    pub per_task_latency: Vec<TimeDelta>,
    /// The Equation 2 objective: `max_i Latency(T_i)`.
    pub max_latency: TimeDelta,
    /// Per-task accuracy degradation (metric units).
    pub per_task_degradation: Vec<f64>,
    /// Whether every task respects its ΔA threshold.
    pub feasible: bool,
    /// Total energy of one multi-task inference.
    pub energy: Energy,
    /// Busy time of the most-loaded processing element during one joint
    /// inference (the throughput bottleneck).
    pub bottleneck: TimeDelta,
    /// Scalar score (lower is better): the objective in seconds, inflated
    /// by constraint violations.
    pub score: f64,
}

/// Passes a [`Candidate::cache_key`], already an FNV-1a hash, through to
/// the cache's table as it is.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Caching fitness evaluator.
#[derive(Debug)]
pub struct FitnessEvaluator<'a> {
    problem: &'a MultiTaskProblem,
    config: FitnessConfig,
    cache: HashMap<u64, FitnessReport, BuildHasherDefault<KeyHasher>>,
    evaluations: usize,
    cache_hits: usize,
}

impl<'a> FitnessEvaluator<'a> {
    /// Creates an evaluator over a problem.
    pub fn new(problem: &'a MultiTaskProblem, config: FitnessConfig) -> Self {
        FitnessEvaluator {
            problem,
            config,
            cache: HashMap::default(),
            evaluations: 0,
            cache_hits: 0,
        }
    }

    /// Evaluations performed (excluding cache hits).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Cache hits (candidates re-emerging across generations).
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Evaluates a candidate (cached).
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::UnsupportedAssignment`] if the candidate maps
    /// a layer to a (PE, precision) pair the platform cannot execute, and
    /// propagates scheduling errors.
    pub fn evaluate(&mut self, candidate: &Candidate) -> Result<FitnessReport, EvEdgeError> {
        let key = candidate.cache_key();
        if let Some(hit) = self.cache.get(&key) {
            self.cache_hits += 1;
            return Ok(hit.clone());
        }
        let report = self.evaluate_uncached(candidate)?;
        self.cache.insert(key, report.clone());
        self.evaluations += 1;
        Ok(report)
    }

    /// Evaluates a whole population, fanning cache misses out across
    /// `workers` threads (`0` = machine parallelism, `1` = serial), and
    /// returns each candidate's report borrowed from the cache.
    ///
    /// Results, cache contents and the evaluation/cache-hit counters are
    /// bitwise identical to calling [`FitnessEvaluator::evaluate`] per
    /// candidate in order — duplicates within the batch are evaluated
    /// once and counted as cache hits, exactly as the serial path does.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error in candidate order.
    pub fn evaluate_all(
        &mut self,
        candidates: &[Candidate],
        workers: usize,
    ) -> Result<Vec<&FitnessReport>, EvEdgeError> {
        let workers = crate::exec::parallel::resolve_workers(workers);
        let keys: Vec<u64> = candidates.iter().map(Candidate::cache_key).collect();
        // Unique cache misses, in first-occurrence order.
        let mut miss_keys: Vec<u64> = Vec::new();
        let mut miss_candidates: Vec<&Candidate> = Vec::new();
        for (candidate, &key) in candidates.iter().zip(&keys) {
            if !self.cache.contains_key(&key) && !miss_keys.contains(&key) {
                miss_keys.push(key);
                miss_candidates.push(candidate);
            }
        }
        let evaluator: &FitnessEvaluator<'_> = self;
        let results = parallel_map(workers, miss_candidates, |candidate| {
            evaluator.evaluate_uncached(candidate)
        });
        for (key, result) in miss_keys.iter().zip(results) {
            self.cache.insert(*key, result?);
            self.evaluations += 1;
        }
        self.cache_hits += candidates.len() - miss_keys.len();
        Ok(keys.iter().map(|key| &self.cache[key]).collect())
    }

    fn evaluate_uncached(&self, candidate: &Candidate) -> Result<FitnessReport, EvEdgeError> {
        SCRATCH.with(|scratch| self.evaluate_in(candidate, &mut scratch.borrow_mut()))
    }

    fn evaluate_in(
        &self,
        candidate: &Candidate,
        scratch: &mut Scratch,
    ) -> Result<FitnessReport, EvEdgeError> {
        let problem = self.problem;
        let platform = problem.platform();
        let tasks = problem.tasks();
        // Task `t`'s layers, as global node indices.
        let layers_of = |t: usize| {
            let first = problem.global_index(t, 0);
            first..first + tasks[t].graph.len()
        };

        // One joint multi-task DAG with cross-PE transfer nodes (paper
        // Figure 7a), built by the shared exec-core graph builder.
        let builder = &mut scratch.builder;
        builder.clear();
        for (t, task) in tasks.iter().enumerate() {
            let profile = problem.profile(t);
            let first = problem.global_index(t, 0);
            builder.add_network(
                platform,
                &task.graph,
                |l| candidate.assignment(first + l),
                |l, a| {
                    profile.layer(l).cost(a.pe, a.precision).ok_or(
                        EvEdgeError::UnsupportedAssignment {
                            task: t,
                            layer: l,
                            pe: a.pe,
                            precision: a.precision,
                        },
                    )
                },
                |l| problem.workload(t, l).output_bytes,
            )?;
        }
        let schedule = &mut scratch.schedule;
        list_schedule(builder.graph(), platform.queue_count(), schedule)?;
        let timings = schedule.timings();
        let per_task_latency: Vec<TimeDelta> = (0..tasks.len())
            .map(|t| {
                builder.layer_nodes()[layers_of(t)]
                    .iter()
                    .map(|&i| timings[i].end)
                    .max()
                    .map(|end| end - ev_core::Timestamp::ZERO)
                    .unwrap_or(TimeDelta::ZERO)
            })
            .collect();
        let max_latency = per_task_latency
            .iter()
            .copied()
            .max()
            .unwrap_or(TimeDelta::ZERO);

        let mut per_task_degradation = Vec::with_capacity(tasks.len());
        let mut violation = 0.0f64;
        for (t, task) in tasks.iter().enumerate() {
            let precisions = &mut scratch.precisions;
            precisions.clear();
            precisions.extend(
                candidate.assignments()[layers_of(t)]
                    .iter()
                    .map(|a| a.precision),
            );
            let degradation =
                task.accuracy
                    .degradation(problem.shares(t), precisions, task.aggregation);
            if degradation > task.max_degradation && task.max_degradation > 0.0 {
                violation += (degradation - task.max_degradation) / task.max_degradation;
            }
            per_task_degradation.push(degradation);
        }
        let feasible = violation == 0.0;
        // Bottleneck: the busiest PE queue (the memory queue is excluded —
        // transfers overlap with compute in steady state).
        let pes = platform.elements().len();
        let bottleneck = schedule.queue_busy()[..pes]
            .iter()
            .copied()
            .max()
            .unwrap_or(TimeDelta::ZERO);
        let objective_secs = match self.config.objective {
            Objective::JointLatency => max_latency.as_secs_f64(),
            Objective::Streaming => {
                // Busy seconds per (PE, task), PE-major.
                let graph = builder.graph();
                let pe_task_busy = &mut scratch.pe_task_busy;
                pe_task_busy.clear();
                pe_task_busy.resize(pes * tasks.len(), 0.0);
                for t in 0..tasks.len() {
                    for &node in &builder.layer_nodes()[layers_of(t)] {
                        pe_task_busy[graph.queue(node) * tasks.len() + t] +=
                            graph.duration(node).as_secs_f64();
                    }
                }
                let mut load = 0.0f64;
                for (t, task) in tasks.iter().enumerate() {
                    let latency_s = per_task_latency[t].as_secs_f64();
                    load = load.max(match task.arrival_period {
                        Some(p) => latency_s / p.as_secs_f64(),
                        None => latency_s,
                    });
                }
                for pe_busy in pe_task_busy.chunks_exact(tasks.len()) {
                    let mut util = 0.0;
                    for (busy, task) in pe_busy.iter().zip(tasks) {
                        if let Some(p) = task.arrival_period {
                            util += busy / p.as_secs_f64();
                        }
                    }
                    load = load.max(util);
                }
                load
            }
        };
        let score = objective_secs * (1.0 + VIOLATION_PENALTY * violation);
        Ok(FitnessReport {
            per_task_latency,
            max_latency,
            per_task_degradation,
            feasible,
            energy: builder.energy(),
            bottleneck,
            score,
        })
    }
}

/// One worker's evaluation buffers, reused across candidates.
#[derive(Debug, Default)]
struct Scratch {
    builder: SchedGraphBuilder,
    schedule: Schedule,
    /// One task's layer precisions, for the accuracy model.
    precisions: Vec<Precision>,
    /// Busy seconds per (PE, task), for the streaming objective.
    pe_task_busy: Vec<f64>,
}

thread_local! {
    /// [`parallel_map`] takes a `Fn`, so each worker thread keeps its
    /// buffers here rather than in the evaluator.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::baseline;
    use crate::nmp::multitask::TaskSpec;
    use ev_nn::zoo::{NetworkId, ZooConfig};
    use ev_nn::Precision;
    use ev_platform::pe::Platform;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem() -> MultiTaskProblem {
        let cfg = ZooConfig::small();
        MultiTaskProblem::new(
            Platform::xavier_agx(),
            vec![
                TaskSpec::new(
                    NetworkId::Dotie.build(&cfg).unwrap(),
                    NetworkId::Dotie.accuracy_model(),
                    0.04,
                ),
                TaskSpec::new(
                    NetworkId::E2Depth.build(&cfg).unwrap(),
                    NetworkId::E2Depth.accuracy_model(),
                    0.02,
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_gpu_candidate_evaluates() {
        let p = problem();
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        let c = baseline::all_gpu(&p).unwrap();
        let report = eval.evaluate(&c).unwrap();
        assert!(report.max_latency > TimeDelta::ZERO);
        assert_eq!(report.per_task_latency.len(), 2);
        assert!(report.feasible, "full precision has zero degradation");
        assert!(report.energy > Energy::ZERO);
        assert!(report.max_latency >= *report.per_task_latency.iter().min().unwrap());
    }

    #[test]
    fn cache_hits_on_reevaluation() {
        let p = problem();
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        let c = baseline::all_gpu(&p).unwrap();
        let a = eval.evaluate(&c).unwrap();
        let b = eval.evaluate(&c).unwrap();
        assert_eq!(a, b);
        assert_eq!(eval.evaluations(), 1);
        assert_eq!(eval.cache_hits(), 1);
    }

    #[test]
    fn int8_everywhere_violates_delta_a() {
        let p = problem();
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        // All-GPU INT8: fast but exceeds each task's ΔA (anchored at 1.2Δ).
        let assignments = (0..p.node_count())
            .map(|_| crate::nmp::candidate::Assignment {
                pe: p.platform().id_by_name("gpu").unwrap(),
                precision: Precision::Int8,
            })
            .collect();
        let c = Candidate::from_assignments(assignments);
        let report = eval.evaluate(&c).unwrap();
        assert!(!report.feasible);
        // Penalty inflates the score above the raw latency.
        assert!(report.score > report.max_latency.as_secs_f64());
    }

    #[test]
    fn random_candidates_all_evaluate() {
        let p = problem();
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let c = Candidate::random(&p, &mut rng);
            let report = eval.evaluate(&c).unwrap();
            assert!(report.max_latency > TimeDelta::ZERO);
        }
    }

    #[test]
    fn element_ids_past_255_have_their_own_cache_entries() {
        // Element 0 is Xavier's GPU and elements 1..=256 are its CPU, so
        // ids 0 and 256 share their low byte but not their cost.
        let xavier = Platform::xavier_agx();
        let mut elements = vec![xavier.element_by_name("cpu").unwrap().clone(); 257];
        elements[0] = xavier.element_by_name("gpu").unwrap().clone();
        let platform = Platform::new(
            "gpu-and-256-cpus",
            elements,
            xavier.memory_bandwidth,
            xavier.transfer_base_latency_s,
            xavier.dram_energy_per_byte,
        );
        let cfg = ZooConfig::small();
        let p = MultiTaskProblem::new(
            platform,
            vec![TaskSpec::new(
                NetworkId::Dotie.build(&cfg).unwrap(),
                NetworkId::Dotie.accuracy_model(),
                0.04,
            )],
        )
        .unwrap();
        let all_on = |pe| {
            Candidate::from_assignments(vec![
                crate::nmp::candidate::Assignment {
                    pe: ev_platform::pe::PeId(pe),
                    precision: Precision::Fp32,
                };
                p.node_count()
            ])
        };
        let (low, high) = (all_on(0), all_on(256));
        assert_ne!(low.cache_key(), high.cache_key());
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        let low_report = eval.evaluate(&low).unwrap();
        let high_report = eval.evaluate(&high).unwrap();
        assert_eq!((eval.evaluations(), eval.cache_hits()), (2, 0));
        let fresh = FitnessEvaluator::new(&p, FitnessConfig::default())
            .evaluate(&high)
            .unwrap();
        assert_eq!(high_report, fresh);
        assert_ne!(high_report, low_report);
    }

    #[test]
    fn cross_pe_mapping_pays_transfers() {
        let p = problem();
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        // Everything on GPU FP16 vs alternating GPU/DLA FP16: the
        // alternating one must pay unified-memory transfers.
        let gpu = p.platform().id_by_name("gpu").unwrap();
        let dla = p.platform().id_by_name("dla0").unwrap();
        let same: Vec<_> = (0..p.node_count())
            .map(|_| crate::nmp::candidate::Assignment {
                pe: gpu,
                precision: Precision::Fp16,
            })
            .collect();
        let alternating: Vec<_> = (0..p.node_count())
            .map(|i| crate::nmp::candidate::Assignment {
                pe: if i % 2 == 0 { gpu } else { dla },
                precision: Precision::Fp16,
            })
            .collect();
        let same_report = eval.evaluate(&Candidate::from_assignments(same)).unwrap();
        let alt_report = eval
            .evaluate(&Candidate::from_assignments(alternating))
            .unwrap();
        // Alternating pays a unified-memory transfer on every edge plus the
        // DLA's higher dispatch overhead: it must be slower.
        assert!(alt_report.max_latency > same_report.max_latency);
    }
}
