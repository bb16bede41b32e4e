//! The Network Mapper's evolutionary search (paper §4.3.1).
//!
//! Population-based search over mapping candidates: random initial
//! population → fitness evaluation (cached) → elite survival → the paper's
//! neighbour-pair crossover → per-child mutation of a fixed number of
//! layers. Convergence history is recorded for Figure 10a.
//!
//! A generation's cost is its uncached evaluations: the evaluator hashes
//! each candidate once and lends out its cached reports, the population
//! is ranked as an index permutation, parents are read by reference
//! ([`Candidate::crossover`] returns the chosen one), elites move into
//! the next generation, and children are written into the buffers of the
//! candidates that died. A candidate and its report are cloned only when
//! they become the best seen.

use crate::nmp::candidate::Candidate;
use crate::nmp::fitness::{FitnessConfig, FitnessEvaluator, FitnessReport};
use crate::nmp::multitask::MultiTaskProblem;
use crate::EvEdgeError;
use ev_core::TimeDelta;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::mem::take;

/// Evolutionary search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NmpConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Layers re-randomized per mutation (the paper's "specified number of
    /// layers in each task").
    pub mutation_layers: usize,
    /// Fraction of the population surviving as elites.
    pub elite_fraction: f64,
    /// PRNG seed.
    pub seed: u64,
    /// Restrict the search to full-precision mappings (Ev-Edge-NMP-FP).
    pub fp_only: bool,
    /// Seed the initial population with the all-GPU baseline candidate, so
    /// elitism guarantees the search never returns anything worse than the
    /// baseline (and always has one feasible, zero-degradation member).
    pub seed_baselines: bool,
    /// Worker threads for candidate evaluation: `0` = machine
    /// parallelism, `1` = serial. Search results are bitwise identical
    /// regardless of the worker count (the RNG never crosses threads).
    pub workers: usize,
}

impl Default for NmpConfig {
    fn default() -> Self {
        NmpConfig {
            population: 32,
            generations: 40,
            mutation_layers: 2,
            elite_fraction: 0.25,
            seed: 0x4E4D50, // "NMP"
            fp_only: false,
            seed_baselines: true,
            workers: 0,
        }
    }
}

/// Largest [`NmpConfig::population`] a search accepts.
pub const MAX_POPULATION: usize = 1_024;
/// Largest [`NmpConfig::generations`] a search accepts.
pub const MAX_GENERATIONS: usize = 10_000;
/// Largest [`NmpConfig::mutation_layers`] a search accepts.
pub const MAX_MUTATION_LAYERS: usize = 1_024;

impl NmpConfig {
    /// Checks a configuration before a search runs on it: a population
    /// in `2..=MAX_POPULATION`, generations in `1..=MAX_GENERATIONS`, at
    /// most [`MAX_MUTATION_LAYERS`] mutated layers, and an elite
    /// fraction in `(0, 1]`. The caps bound the memory and time of a
    /// search whose configuration was read from a file.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidSearchConfig`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), EvEdgeError> {
        let elite_ok = self.elite_fraction > 0.0 && self.elite_fraction <= 1.0;
        let field = if !(2..=MAX_POPULATION).contains(&self.population) {
            "population"
        } else if !(1..=MAX_GENERATIONS).contains(&self.generations) {
            "generations"
        } else if self.mutation_layers > MAX_MUTATION_LAYERS {
            "mutation_layers"
        } else if !elite_ok {
            "elite_fraction"
        } else {
            return Ok(());
        };
        Err(EvEdgeError::InvalidSearchConfig { field })
    }
}

/// Checks `config` as [`NmpConfig::validate`] does, and that an
/// `fp_only` search has an FP32-capable element to draw from.
pub(crate) fn validate_search(
    config: &NmpConfig,
    problem: &MultiTaskProblem,
) -> Result<(), EvEdgeError> {
    config.validate()?;
    if config.fp_only && problem.fp32_pes().is_empty() {
        return Err(EvEdgeError::InvalidSearchConfig { field: "fp_only" });
    }
    Ok(())
}

/// Best/mean fitness of one generation (Figure 10a data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStat {
    /// Generation index.
    pub generation: usize,
    /// Best score in the generation.
    pub best_score: f64,
    /// Best latency in the generation.
    pub best_latency: TimeDelta,
    /// Mean score across the population.
    pub mean_score: f64,
}

/// The outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best candidate found.
    pub best: Candidate,
    /// Its fitness report.
    pub report: FitnessReport,
    /// Per-generation convergence history.
    pub history: Vec<GenerationStat>,
    /// Fitness evaluations performed (cache misses).
    pub evaluations: usize,
    /// Fitness cache hits.
    pub cache_hits: usize,
}

/// Runs the NMP evolutionary search.
///
/// # Errors
///
/// Propagates fitness-evaluation errors; returns
/// [`EvEdgeError::InvalidSearchConfig`] for configurations that
/// [`NmpConfig::validate`] rejects, and for an `fp_only` search on a
/// platform with no FP32-capable element.
///
/// # Examples
///
/// ```no_run
/// use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
/// use ev_edge::nmp::fitness::FitnessConfig;
/// use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
/// use ev_nn::zoo::{NetworkId, ZooConfig};
/// use ev_platform::pe::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ZooConfig::small();
/// let problem = MultiTaskProblem::new(
///     Platform::xavier_agx(),
///     vec![TaskSpec::new(
///         NetworkId::Dotie.build(&cfg)?,
///         NetworkId::Dotie.accuracy_model(),
///         NetworkId::Dotie.delta_a(),
///     )],
/// )?;
/// let result = run_nmp(&problem, NmpConfig::default(), FitnessConfig::default())?;
/// assert!(result.report.feasible);
/// # Ok(())
/// # }
/// ```
pub fn run_nmp(
    problem: &MultiTaskProblem,
    config: NmpConfig,
    fitness: FitnessConfig,
) -> Result<SearchResult, EvEdgeError> {
    validate_search(&config, problem)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut evaluator = FitnessEvaluator::new(problem, fitness);
    let make_random = |rng: &mut ChaCha8Rng| {
        if config.fp_only {
            Candidate::random_fp(problem, rng)
        } else {
            Candidate::random(problem, rng)
        }
    };
    let mut population: Vec<Candidate> = (0..config.population)
        .map(|_| make_random(&mut rng))
        .collect();
    if config.seed_baselines {
        // Heuristic seeds: the search starts no worse than any baseline
        // policy (elitism preserves them). RR seeds use reduced precision,
        // so they only apply to the mixed-precision search space.
        let mut seeds = Vec::new();
        if let Ok(all_gpu) = crate::nmp::baseline::all_gpu(problem) {
            seeds.push(all_gpu);
        }
        if !config.fp_only {
            seeds.push(crate::nmp::baseline::rr_network(problem));
            seeds.push(crate::nmp::baseline::rr_layer(problem));
        }
        for (slot, seed) in population.iter_mut().zip(seeds) {
            *slot = seed;
        }
    }
    let mut history = Vec::new();
    // Equation 2 is a hard constraint: prefer the best *feasible*
    // candidate, fall back to the best overall only if nothing feasible
    // was ever seen.
    let mut best_feasible: Option<(Candidate, FitnessReport)> = None;
    let mut best_any: Option<(Candidate, FitnessReport)> = None;
    let elite_count = ((config.population as f64 * config.elite_fraction).ceil() as usize)
        .clamp(1, config.population);
    let parent_count = (config.population / 2).max(2);
    let mut order: Vec<usize> = Vec::with_capacity(config.population);
    // The candidates that died last generation, whose buffers hold this
    // generation's children, and the vector the next generation fills.
    let mut spare: Vec<Candidate> = Vec::with_capacity(config.population);
    let mut next: Vec<Candidate> = Vec::with_capacity(config.population);

    for generation in 0..config.generations {
        // The hottest path of the search: the whole generation's cache
        // misses evaluate concurrently on the worker pool.
        let reports = evaluator.evaluate_all(&population, config.workers)?;
        order.clear();
        order.extend(0..population.len());
        order.sort_by(|&a, &b| reports[a].score.total_cmp(&reports[b].score));
        let gen_best = reports[order[0]];
        let mean_score = order.iter().map(|&i| reports[i].score).sum::<f64>() / order.len() as f64;
        history.push(GenerationStat {
            generation,
            best_score: gen_best.score,
            best_latency: gen_best.max_latency,
            mean_score,
        });
        if best_any
            .as_ref()
            .map(|(_, r)| gen_best.score < r.score)
            .unwrap_or(true)
        {
            best_any = Some((population[order[0]].clone(), gen_best.clone()));
        }
        if let Some(&i) = order.iter().find(|&&i| reports[i].feasible) {
            if best_feasible
                .as_ref()
                .map(|(_, br)| reports[i].score < br.score)
                .unwrap_or(true)
            {
                best_feasible = Some((population[i].clone(), reports[i].clone()));
            }
        }

        // Next generation: elites survive, the rest are crossover children
        // of neighbouring parents with mutation.
        let parents = &order[..parent_count];
        for k in 0..config.population - elite_count {
            // Neighbouring parent pair (wrapping), per the paper.
            let i = rng.gen_range(0..parents.len());
            let j = (i + 1) % parents.len();
            let parent =
                Candidate::crossover(&population[parents[i]], &population[parents[j]], &mut rng);
            match spare.get_mut(k) {
                Some(child) => child.clone_from(parent),
                None => spare.push(parent.clone()),
            }
            spare[k].mutate(problem, &mut rng, config.mutation_layers, config.fp_only);
        }
        // Elites move on; the rest die and lend their buffers to the
        // next generation's children.
        let (elites, dead) = order.split_at(elite_count);
        next.extend(elites.iter().map(|&i| take(&mut population[i])));
        next.append(&mut spare);
        spare.extend(dead.iter().map(|&i| take(&mut population[i])));
        // Shuffle so elitism does not bias neighbour pairing next round.
        next.shuffle(&mut rng);
        std::mem::swap(&mut population, &mut next);
        next.clear();
    }

    let (best_candidate, best_report) = best_feasible
        .or(best_any)
        .expect("at least one generation ran");
    Ok(SearchResult {
        best: best_candidate,
        report: best_report,
        history,
        evaluations: evaluator.evaluations(),
        cache_hits: evaluator.cache_hits(),
    })
}

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::baseline;
    use crate::nmp::multitask::TaskSpec;
    use ev_nn::zoo::{NetworkId, ZooConfig};
    use ev_platform::pe::Platform;

    fn problem() -> MultiTaskProblem {
        // MVSEC scale: layer latencies are compute-dominated, so mapping
        // and precision choices have visible effect.
        let cfg = ZooConfig::mvsec();
        MultiTaskProblem::new(
            Platform::xavier_agx(),
            vec![
                TaskSpec::new(
                    NetworkId::Dotie.build(&cfg).unwrap(),
                    NetworkId::Dotie.accuracy_model(),
                    0.04,
                ),
                TaskSpec::new(
                    NetworkId::SpikeFlowNet.build(&cfg).unwrap(),
                    NetworkId::SpikeFlowNet.accuracy_model(),
                    0.03,
                ),
            ],
        )
        .unwrap()
    }

    fn quick_config() -> NmpConfig {
        NmpConfig {
            population: 16,
            generations: 12,
            seed: 42,
            ..NmpConfig::default()
        }
    }

    #[test]
    fn search_converges_and_is_feasible() {
        let p = problem();
        let result = run_nmp(&p, quick_config(), FitnessConfig::default()).unwrap();
        assert!(result.report.feasible, "best candidate must satisfy ΔA");
        // Convergence: final best ≤ first-generation best.
        let first = result.history.first().unwrap().best_score;
        let last = result.history.last().unwrap().best_score;
        assert!(last <= first, "search must not regress: {first} → {last}");
        assert_eq!(result.history.len(), 12);
        assert!(result.evaluations > 0);
    }

    #[test]
    fn search_beats_all_gpu_baseline() {
        let p = problem();
        let result = run_nmp(&p, quick_config(), FitnessConfig::default()).unwrap();
        let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
        let gpu_report = eval.evaluate(&baseline::all_gpu(&p).unwrap()).unwrap();
        assert!(
            result.report.max_latency < gpu_report.max_latency,
            "NMP {:?} should beat all-GPU {:?}",
            result.report.max_latency,
            gpu_report.max_latency
        );
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let p = problem();
        let a = run_nmp(&p, quick_config(), FitnessConfig::default()).unwrap();
        let b = run_nmp(&p, quick_config(), FitnessConfig::default()).unwrap();
        assert_eq!(a.report, b.report);
        let c = run_nmp(
            &p,
            NmpConfig {
                seed: 43,
                ..quick_config()
            },
            FitnessConfig::default(),
        )
        .unwrap();
        // Different seed explores differently (scores may coincide, but
        // histories rarely do; compare evaluation counts too).
        assert!(a.history != c.history || a.evaluations != c.evaluations);
    }

    #[test]
    fn fp_only_restricts_precision() {
        let p = problem();
        let result = run_nmp(
            &p,
            NmpConfig {
                fp_only: true,
                ..quick_config()
            },
            FitnessConfig::default(),
        )
        .unwrap();
        for a in result.best.assignments() {
            assert_eq!(a.precision, ev_nn::Precision::Fp32);
        }
        // FP-only has exactly zero degradation.
        assert!(result.report.per_task_degradation.iter().all(|d| *d == 0.0));
    }

    #[test]
    fn fp_only_is_slower_than_mixed() {
        let p = problem();
        let mixed = run_nmp(&p, quick_config(), FitnessConfig::default()).unwrap();
        let fp = run_nmp(
            &p,
            NmpConfig {
                fp_only: true,
                ..quick_config()
            },
            FitnessConfig::default(),
        )
        .unwrap();
        assert!(
            fp.report.max_latency >= mixed.report.max_latency,
            "NMP-FP should not beat mixed-precision NMP"
        );
    }

    #[test]
    fn degenerate_configs_rejected() {
        let p = problem();
        let at_caps = NmpConfig {
            population: MAX_POPULATION,
            generations: MAX_GENERATIONS,
            mutation_layers: MAX_MUTATION_LAYERS,
            elite_fraction: 1.0,
            ..quick_config()
        };
        assert!(at_caps.validate().is_ok());
        let with = |mutate: fn(&mut NmpConfig)| {
            let mut config = quick_config();
            mutate(&mut config);
            config
        };
        for (field, config) in [
            ("population", with(|c| c.population = 1)),
            ("population", with(|c| c.population = MAX_POPULATION + 1)),
            ("generations", with(|c| c.generations = 0)),
            ("generations", with(|c| c.generations = 1_000_000_000_000)),
            (
                "mutation_layers",
                with(|c| c.mutation_layers = MAX_MUTATION_LAYERS + 1),
            ),
            ("elite_fraction", with(|c| c.elite_fraction = 0.0)),
            ("elite_fraction", with(|c| c.elite_fraction = f64::NAN)),
        ] {
            let err = run_nmp(&p, config, FitnessConfig::default()).err();
            assert!(
                matches!(err, Some(EvEdgeError::InvalidSearchConfig { field: got }) if got == field),
                "{field}: {err:?}"
            );
        }
    }

    /// A platform whose one element is Xavier's DLA, which has no FP32
    /// datapath.
    fn dla_only_problem() -> MultiTaskProblem {
        let xavier = Platform::xavier_agx();
        let dla = xavier.element_by_name("dla0").unwrap().clone();
        let platform = Platform::new(
            "dla-only",
            vec![dla],
            xavier.memory_bandwidth,
            xavier.transfer_base_latency_s,
            xavier.dram_energy_per_byte,
        );
        let cfg = ZooConfig::small();
        MultiTaskProblem::new(
            platform,
            vec![TaskSpec::new(
                NetworkId::E2Depth.build(&cfg).unwrap(),
                NetworkId::E2Depth.accuracy_model(),
                0.02,
            )],
        )
        .unwrap()
    }

    #[test]
    fn fp_only_search_without_an_fp32_element_is_rejected() {
        let p = dla_only_problem();
        let fp_only = NmpConfig {
            fp_only: true,
            ..quick_config()
        };
        let err = run_nmp(&p, fp_only, FitnessConfig::default()).err();
        assert!(
            matches!(
                err,
                Some(EvEdgeError::InvalidSearchConfig { field: "fp_only" })
            ),
            "{err:?}"
        );
        assert!(run_nmp(&p, quick_config(), FitnessConfig::default()).is_ok());
    }

    #[test]
    fn fp_only_random_search_without_an_fp32_element_is_rejected() {
        let p = dla_only_problem();
        let fp_only = NmpConfig {
            fp_only: true,
            ..quick_config()
        };
        let err =
            crate::nmp::random_search::run_random_search(&p, fp_only, FitnessConfig::default())
                .err();
        assert!(
            matches!(
                err,
                Some(EvEdgeError::InvalidSearchConfig { field: "fp_only" })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn parallel_evaluation_is_bitwise_identical_to_serial() {
        let p = problem();
        let serial = run_nmp(
            &p,
            NmpConfig {
                workers: 1,
                ..quick_config()
            },
            FitnessConfig::default(),
        )
        .unwrap();
        let parallel = run_nmp(
            &p,
            NmpConfig {
                workers: 4,
                ..quick_config()
            },
            FitnessConfig::default(),
        )
        .unwrap();
        assert_eq!(serial.best, parallel.best);
        assert_eq!(serial.report, parallel.report);
        assert_eq!(serial.history, parallel.history);
        assert_eq!(serial.evaluations, parallel.evaluations);
        assert_eq!(serial.cache_hits, parallel.cache_hits);
    }

    #[test]
    fn cache_is_exercised_across_generations() {
        let p = problem();
        let result = run_nmp(&p, quick_config(), FitnessConfig::default()).unwrap();
        // Elites re-evaluate every generation → cache hits must occur.
        assert!(result.cache_hits > 0);
    }
}
