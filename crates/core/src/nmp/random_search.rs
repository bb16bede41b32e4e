//! Random-search baseline for the mapper (paper Figure 10b).
//!
//! Samples fresh random candidates every "generation" with the same
//! evaluation budget as the evolutionary search, tracking the best-so-far
//! score — the comparison showing NMP's search is not just luck.

use crate::nmp::candidate::Candidate;
use crate::nmp::evolution::{validate_search, GenerationStat, NmpConfig, SearchResult};
use crate::nmp::fitness::{FitnessConfig, FitnessEvaluator, FitnessReport};
use crate::nmp::multitask::MultiTaskProblem;
use crate::EvEdgeError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs random search with the budget described by `config`
/// (`population × generations` candidate evaluations).
///
/// # Errors
///
/// Propagates fitness errors; rejects the configurations that
/// [`crate::nmp::evolution::run_nmp`] rejects.
pub fn run_random_search(
    problem: &MultiTaskProblem,
    config: NmpConfig,
    fitness: FitnessConfig,
) -> Result<SearchResult, EvEdgeError> {
    validate_search(&config, problem)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut evaluator = FitnessEvaluator::new(problem, fitness);
    let mut best_feasible: Option<(Candidate, FitnessReport)> = None;
    let mut best_any: Option<(Candidate, FitnessReport)> = None;
    let mut history = Vec::new();
    for generation in 0..config.generations {
        // Draw the whole generation first (the RNG stays serial), then
        // fan evaluation out across the worker pool like the
        // evolutionary search does.
        let candidates: Vec<Candidate> = (0..config.population)
            .map(|_| {
                if config.fp_only {
                    Candidate::random_fp(problem, &mut rng)
                } else {
                    Candidate::random(problem, &mut rng)
                }
            })
            .collect();
        let reports = evaluator.evaluate_all(&candidates, config.workers)?;
        for (candidate, &report) in candidates.iter().zip(&reports) {
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
                best_any = Some((candidate.clone(), report.clone()));
            }
        }
        // History tracks the best *score* seen so far (monotone curve);
        // the returned result prefers the best feasible candidate.
        let best_so_far = best_any.as_ref().expect("population evaluated");
        history.push(GenerationStat {
            generation,
            best_score: best_so_far.1.score,
            best_latency: best_so_far.1.max_latency,
            mean_score: reports.iter().map(|r| r.score).sum::<f64>() / reports.len() as f64,
        });
    }
    let (candidate, report) = best_feasible
        .or(best_any)
        .expect("at least one candidate evaluated");
    Ok(SearchResult {
        best: candidate,
        report,
        history,
        evaluations: evaluator.evaluations(),
        cache_hits: evaluator.cache_hits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::evolution::run_nmp;
    use crate::nmp::multitask::TaskSpec;
    use ev_nn::zoo::{NetworkId, ZooConfig};
    use ev_platform::pe::Platform;

    fn problem() -> MultiTaskProblem {
        let cfg = ZooConfig::small();
        MultiTaskProblem::new(
            Platform::xavier_agx(),
            vec![
                TaskSpec::new(
                    NetworkId::Halsie.build(&cfg).unwrap(),
                    NetworkId::Halsie.accuracy_model(),
                    2.13,
                ),
                TaskSpec::new(
                    NetworkId::Dotie.build(&cfg).unwrap(),
                    NetworkId::Dotie.accuracy_model(),
                    0.04,
                ),
            ],
        )
        .unwrap()
    }

    fn config() -> NmpConfig {
        NmpConfig {
            population: 16,
            generations: 10,
            seed: 7,
            ..NmpConfig::default()
        }
    }

    #[test]
    fn best_so_far_never_regresses() {
        let p = problem();
        let result = run_random_search(&p, config(), FitnessConfig::default()).unwrap();
        for pair in result.history.windows(2) {
            assert!(pair[1].best_score <= pair[0].best_score);
        }
    }

    #[test]
    fn evolutionary_search_matches_or_beats_random() {
        let p = problem();
        let nmp = run_nmp(&p, config(), FitnessConfig::default()).unwrap();
        let random = run_random_search(&p, config(), FitnessConfig::default()).unwrap();
        assert!(
            nmp.report.score <= random.report.score * 1.05,
            "NMP {} should be competitive with random {}",
            nmp.report.score,
            random.report.score
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem();
        let a = run_random_search(&p, config(), FitnessConfig::default()).unwrap();
        let b = run_random_search(&p, config(), FitnessConfig::default()).unwrap();
        assert_eq!(a.report, b.report);
    }
}
