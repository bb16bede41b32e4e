//! Search equivalence: `run_nmp` and `run_random_search` return exactly
//! what their earlier loops returned — the same best candidate, report,
//! history and counters, down to the last bit — across task mixes,
//! platforms, both objectives, FP-only and mixed precision, seeds,
//! worker counts and the corner configurations of the loop (two- and
//! three-candidate populations, an all-elite population, no mutation,
//! no baseline seeds, and a population of 32, where ties on score make
//! the rank sort's order of equal scores matter).
//!
//! The reference copies below are those loops: every draw goes through
//! the platform (`pe_ids`, `supported_precisions`, `pes_supporting`),
//! each generation is sorted as `(candidate, report)` pairs with owned
//! reports, and every elite, parent and child is a clone.

use ev_core::TimeDelta;
use ev_edge::nmp::baseline;
use ev_edge::nmp::candidate::{Assignment, Candidate};
use ev_edge::nmp::evolution::{run_nmp, GenerationStat, NmpConfig, SearchResult};
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator, FitnessReport, Objective};
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::random_search::run_random_search;
use ev_edge::nmp::{task_spec_for, TaskMix};
use ev_edge::EvEdgeError;
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_nn::Precision;
use ev_platform::pe::{PeId, PeKind, Platform};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One layer's draw, through the platform.
fn reference_assignment(
    problem: &MultiTaskProblem,
    rng: &mut ChaCha8Rng,
    fp_only: bool,
) -> Assignment {
    let platform = problem.platform();
    if fp_only {
        let pes = platform.pes_supporting(Precision::Fp32);
        let pe = pes[rng.gen_range(0..pes.len())];
        return Assignment {
            pe,
            precision: Precision::Fp32,
        };
    }
    let pes = platform.pe_ids();
    let pe = pes[rng.gen_range(0..pes.len())];
    let precisions = platform
        .element(pe)
        .expect("drawn id")
        .supported_precisions();
    let precision = precisions[rng.gen_range(0..precisions.len())];
    Assignment { pe, precision }
}

fn reference_random(problem: &MultiTaskProblem, rng: &mut ChaCha8Rng, fp_only: bool) -> Candidate {
    Candidate::from_assignments(
        (0..problem.node_count())
            .map(|_| reference_assignment(problem, rng, fp_only))
            .collect(),
    )
}

fn reference_mutate(
    candidate: Candidate,
    problem: &MultiTaskProblem,
    rng: &mut ChaCha8Rng,
    layers: usize,
    fp_only: bool,
) -> Candidate {
    let mut assignments = candidate.assignments().to_vec();
    if assignments.is_empty() {
        return candidate;
    }
    for _ in 0..layers {
        let idx = rng.gen_range(0..assignments.len());
        assignments[idx] = reference_assignment(problem, rng, fp_only);
    }
    Candidate::from_assignments(assignments)
}

/// RR-Network or RR-Layer over the platform's non-CPU elements, each at
/// its highest-fidelity precision.
fn reference_rr(problem: &MultiTaskProblem, per_layer: bool) -> Candidate {
    let platform = problem.platform();
    let accelerators: Vec<PeId> = platform
        .pe_ids()
        .into_iter()
        .filter(|id| platform.element(*id).expect("platform id").kind != PeKind::Cpu)
        .collect();
    let pes = if accelerators.is_empty() {
        platform.pe_ids()
    } else {
        accelerators
    };
    Candidate::from_assignments(
        (0..problem.node_count())
            .map(|global| {
                let slot = if per_layer {
                    global
                } else {
                    problem.node(global).0
                };
                let pe = pes[slot % pes.len()];
                let precision = platform
                    .element(pe)
                    .expect("platform id")
                    .supported_precisions()[0];
                Assignment { pe, precision }
            })
            .collect(),
    )
}

fn owned_reports(
    evaluator: &mut FitnessEvaluator<'_>,
    candidates: &[Candidate],
    workers: usize,
) -> Result<Vec<FitnessReport>, EvEdgeError> {
    Ok(evaluator
        .evaluate_all(candidates, workers)?
        .into_iter()
        .cloned()
        .collect())
}

/// The evolutionary loop as it was written before the search reused its
/// buffers.
fn reference_nmp(
    problem: &MultiTaskProblem,
    config: NmpConfig,
    fitness: FitnessConfig,
) -> Result<SearchResult, EvEdgeError> {
    config.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut evaluator = FitnessEvaluator::new(problem, fitness);
    let mut population: Vec<Candidate> = (0..config.population)
        .map(|_| reference_random(problem, &mut rng, config.fp_only))
        .collect();
    if config.seed_baselines {
        let mut seeds = Vec::new();
        if let Ok(all_gpu) = baseline::all_gpu(problem) {
            seeds.push(all_gpu);
        }
        if !config.fp_only {
            seeds.push(reference_rr(problem, false));
            seeds.push(reference_rr(problem, true));
        }
        for (slot, seed) in population.iter_mut().zip(seeds) {
            *slot = seed;
        }
    }
    let mut history = Vec::new();
    let mut best_feasible: Option<(Candidate, FitnessReport)> = None;
    let mut best_any: Option<(Candidate, FitnessReport)> = None;
    for generation in 0..config.generations {
        let reports = owned_reports(&mut evaluator, &population, config.workers)?;
        let mut scored: Vec<(Candidate, FitnessReport)> =
            population.drain(..).zip(reports).collect();
        scored.sort_by(|a, b| a.1.score.total_cmp(&b.1.score));
        let gen_best = &scored[0];
        let mean_score = scored.iter().map(|(_, r)| r.score).sum::<f64>() / scored.len() as f64;
        history.push(GenerationStat {
            generation,
            best_score: gen_best.1.score,
            best_latency: gen_best.1.max_latency,
            mean_score,
        });
        if best_any
            .as_ref()
            .map(|(_, r)| gen_best.1.score < r.score)
            .unwrap_or(true)
        {
            best_any = Some((gen_best.0.clone(), gen_best.1.clone()));
        }
        if let Some((c, r)) = scored
            .iter()
            .filter(|(_, r)| r.feasible)
            .min_by(|a, b| a.1.score.total_cmp(&b.1.score))
        {
            if best_feasible
                .as_ref()
                .map(|(_, br)| r.score < br.score)
                .unwrap_or(true)
            {
                best_feasible = Some((c.clone(), r.clone()));
            }
        }
        let elite_count = ((config.population as f64 * config.elite_fraction).ceil() as usize)
            .clamp(1, config.population);
        let mut next: Vec<Candidate> = scored
            .iter()
            .take(elite_count)
            .map(|(c, _)| c.clone())
            .collect();
        let parents: Vec<Candidate> = scored
            .iter()
            .take((config.population / 2).max(2))
            .map(|(c, _)| c.clone())
            .collect();
        while next.len() < config.population {
            let i = rng.gen_range(0..parents.len());
            let j = (i + 1) % parents.len();
            let child = if rng.gen::<bool>() {
                parents[i].clone()
            } else {
                parents[j].clone()
            };
            next.push(reference_mutate(
                child,
                problem,
                &mut rng,
                config.mutation_layers,
                config.fp_only,
            ));
        }
        next.shuffle(&mut rng);
        population = next;
    }
    let (best, report) = best_feasible.or(best_any).expect("a generation ran");
    Ok(SearchResult {
        best,
        report,
        history,
        evaluations: evaluator.evaluations(),
        cache_hits: evaluator.cache_hits(),
    })
}

/// The random-search loop as it was written before it borrowed reports.
fn reference_random_search(
    problem: &MultiTaskProblem,
    config: NmpConfig,
    fitness: FitnessConfig,
) -> Result<SearchResult, EvEdgeError> {
    config.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut evaluator = FitnessEvaluator::new(problem, fitness);
    let mut best_feasible: Option<(Candidate, FitnessReport)> = None;
    let mut best_any: Option<(Candidate, FitnessReport)> = None;
    let mut history = Vec::new();
    for generation in 0..config.generations {
        let candidates: Vec<Candidate> = (0..config.population)
            .map(|_| reference_random(problem, &mut rng, config.fp_only))
            .collect();
        let reports = owned_reports(&mut evaluator, &candidates, config.workers)?;
        let mut gen_scores = Vec::with_capacity(config.population);
        for (candidate, report) in candidates.into_iter().zip(reports) {
            gen_scores.push(report.score);
            if report.feasible
                && best_feasible
                    .as_ref()
                    .map(|(_, r)| report.score < r.score)
                    .unwrap_or(true)
            {
                best_feasible = Some((candidate.clone(), report.clone()));
            }
            if best_any
                .as_ref()
                .map(|(_, r)| report.score < r.score)
                .unwrap_or(true)
            {
                best_any = Some((candidate, report));
            }
        }
        let best_so_far = best_any.as_ref().expect("population evaluated");
        history.push(GenerationStat {
            generation,
            best_score: best_so_far.1.score,
            best_latency: best_so_far.1.max_latency,
            mean_score: gen_scores.iter().sum::<f64>() / gen_scores.len() as f64,
        });
    }
    let (best, report) = best_feasible
        .or(best_any)
        .expect("a candidate was evaluated");
    Ok(SearchResult {
        best,
        report,
        history,
        evaluations: evaluator.evaluations(),
        cache_hits: evaluator.cache_hits(),
    })
}

/// A mix on a platform, with arrival periods on all but the last task
/// (so the streaming objective weighs utilization) and DSFA
/// aggregation on the first (so degradation varies).
fn problem(mix: &TaskMix, platform: Platform) -> MultiTaskProblem {
    let zoo = ZooConfig::mvsec();
    let networks = mix.networks();
    let tasks = networks
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut spec = task_spec_for(n, &zoo, mix.delta_scale()).expect("zoo network");
            if i + 1 < networks.len() {
                spec = spec.with_period(TimeDelta::from_micros(2_500 * (i as i64 + 1)));
            }
            if i == 0 {
                spec = spec.with_aggregation(0.5);
            }
            spec
        })
        .collect();
    MultiTaskProblem::new(platform, tasks).expect("valid problem")
}

#[test]
fn searches_match_their_reference_loops() {
    let mixes = [
        TaskMix::AllAnn,
        TaskMix::AllSnn,
        TaskMix::MixedSnnAnn,
        TaskMix::GnnHeavy,
        TaskMix::CornerPlusInference,
        TaskMix::Custom {
            networks: vec![
                NetworkId::SpikeFlowNet,
                NetworkId::GraphNet,
                NetworkId::Dotie,
            ],
            delta_scale: 0.5,
        },
    ];
    let platforms = [
        Platform::xavier_agx,
        Platform::orin_like,
        Platform::nano_like,
    ];
    let base = NmpConfig {
        population: 8,
        generations: 4,
        ..NmpConfig::default()
    };
    let configs = [
        base,
        NmpConfig {
            population: 2,
            ..base
        },
        NmpConfig {
            population: 3,
            ..base
        },
        NmpConfig {
            elite_fraction: 1.0,
            ..base
        },
        NmpConfig {
            mutation_layers: 0,
            ..base
        },
        NmpConfig {
            seed_baselines: false,
            ..base
        },
        // The population `mapping` and Fig. 9 search with: distinct
        // candidates tie on score there, so a rank sort that reordered
        // ties would show.
        NmpConfig {
            population: 32,
            generations: 2,
            ..base
        },
    ];
    let mut compared = 0;
    let mut failures = 0;
    for mix in &mixes {
        for platform in platforms {
            let p = problem(mix, platform());
            for objective in [Objective::JointLatency, Objective::Streaming] {
                let fitness = FitnessConfig { objective };
                for fp_only in [false, true] {
                    for seed in [1, 2, 3] {
                        for config in configs {
                            let config = NmpConfig {
                                fp_only,
                                seed,
                                workers: 1,
                                ..config
                            };
                            let nmp = format!("{:?}", reference_nmp(&p, config, fitness));
                            let random =
                                format!("{:?}", reference_random_search(&p, config, fitness));
                            for workers in [1, 2] {
                                let config = NmpConfig { workers, ..config };
                                for (name, reference, got) in [
                                    ("run_nmp", &nmp, run_nmp(&p, config, fitness)),
                                    (
                                        "run_random_search",
                                        &random,
                                        run_random_search(&p, config, fitness),
                                    ),
                                ] {
                                    compared += 1;
                                    if format!("{got:?}") != *reference {
                                        failures += 1;
                                        eprintln!(
                                            "{name} differs on {} / {} ({objective:?}, {config:?})",
                                            mix.name(),
                                            p.platform().name()
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(compared, 6 * 3 * 2 * 2 * 3 * 7 * 2 * 2);
    assert_eq!(failures, 0, "searches differing from their reference loops");
}
