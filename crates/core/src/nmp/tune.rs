//! Sweep-driven auto-tuning: one operating point per platform and task
//! mix, chosen from a configuration sweep.
//!
//! An [`AutoTuner`] turns a [`SweepReport`] (what *did* win, per
//! configuration cell) into a [`TuneReport`] (what *should run*, per
//! platform × task mix): it ranks every cell with a deterministic
//! objective and emits, for each (platform, task-mix, algorithm) group
//! the sweep covered, the winning cell's replayable search
//! configuration. [`TuneReport::selection_for_mix`] answers "what
//! should this (platform, task-mix) pair run" across algorithms.
//! Nothing in the program calls the tuner: `ev_serve` runs its one-cell
//! tune spec's search directly, and evbench's `serve` workload replays
//! each such search through the tuner to check that the two agree.
//!
//! # Determinism
//!
//! A tuning decision must not depend on how the sweep was executed:
//!
//! * **Objectives are pure functions of the cell report.**
//!   [`TuneObjective::score`] maps a [`SweepCellReport`] to one `f64`;
//!   nothing about worker counts, wall-clock time or evaluation order
//!   enters the score.
//! * **Ranking breaks ties on the cell key.** Cells are ordered by
//!   feasibility, then score ([`f64::total_cmp`], so even NaN scores
//!   order deterministically), then [`crate::nmp::sweep::SweepCell::coords`] — a total
//!   order on grid identity. Any worker count and any cell order
//!   (including duplicated cells) therefore selects the same winner.
//! * **The selected configuration is replayable.** Each selection's
//!   [`NmpConfig`] carries the cell's value-derived seed and
//!   `workers: 0` (auto), and [`TuneSelection::replay_search`]
//!   dispatches on the winning cell's algorithm — so replaying it,
//!   serially or on every core, reproduces the cell's search bit for
//!   bit.
//!
//! # Examples
//!
//! ```
//! use ev_edge::nmp::sweep::{SweepSpec, TaskMix, ZooPreset};
//! use ev_edge::nmp::tune::{AutoTuner, TuneObjective};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = SweepSpec {
//!     populations: vec![3, 4],
//!     generations: vec![2],
//!     task_mixes: vec![TaskMix::AllSnn],
//!     zoo: ZooPreset::Small,
//!     runtime_window_ms: 5,
//!     keep_history: false,
//!     ..SweepSpec::default()
//! };
//! let tuned = AutoTuner::new(TuneObjective::Latency).tune_spec(&spec, 0)?;
//! assert_eq!(tuned.selections.len(), 1); // one (platform, mix) pair
//! let config = tuned.selections[0].config;
//! assert_eq!(config.workers, 0); // replayable on any worker count
//! # Ok(())
//! # }
//! ```

use crate::nmp::evolution::{run_nmp, NmpConfig, SearchResult};
use crate::nmp::fitness::FitnessConfig;
use crate::nmp::multitask::MultiTaskProblem;
use crate::nmp::random_search::run_random_search;
use crate::nmp::sweep::{
    run_sweep, CellCoords, PlatformPreset, SearchAlgorithm, SweepCellReport, SweepReport,
    SweepSpec, TaskMix,
};
use crate::EvEdgeError;

/// The tuning objectives (all serde-round-trippable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TuneObjective {
    /// Minimize the winning mapping's joint multi-task latency.
    Latency,
    /// Minimize the energy of one joint inference.
    Energy,
    /// Minimize the energy-delay product (ms · mJ) — the paper's
    /// efficiency framing, where neither latency nor energy alone is
    /// the deployment constraint.
    Edp,
}

impl TuneObjective {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TuneObjective::Latency => "latency",
            TuneObjective::Energy => "energy",
            TuneObjective::Edp => "edp",
        }
    }

    /// Scores one evaluated cell; lower is better. A pure function of
    /// the report (no wall-clock, no RNG, no global state), which the
    /// tuner's winner-selection guarantees rest on: the same winner for
    /// any worker count and any cell order.
    pub fn score(self, report: &SweepCellReport) -> f64 {
        match self {
            TuneObjective::Latency => report.best_latency_ms,
            TuneObjective::Energy => report.best_energy_mj,
            TuneObjective::Edp => report.best_latency_ms * report.best_energy_mj,
        }
    }
}

/// The tuner's one total order, over the decision triple (feasibility,
/// score, cell key): feasible before infeasible, then lower score, then
/// [`CellCoords`] — execution-independent by construction. Every place
/// a winner is chosen (cell ranking, the per-mix selection lookup) must
/// compare through this single function so the orders cannot drift
/// apart.
fn rank_key(
    (a_feasible, a_score, a_coords): (bool, f64, CellCoords),
    (b_feasible, b_score, b_coords): (bool, f64, CellCoords),
) -> core::cmp::Ordering {
    b_feasible
        .cmp(&a_feasible)
        .then(a_score.total_cmp(&b_score))
        .then(a_coords.cmp(&b_coords))
}

/// [`rank_key`] applied to a scored cell report.
fn rank_order(
    (a, a_score): (&SweepCellReport, f64),
    (b, b_score): (&SweepCellReport, f64),
) -> core::cmp::Ordering {
    rank_key(
        (a.feasible, a_score, a.cell.coords),
        (b.feasible, b_score, b.cell.coords),
    )
}

/// Ranks cell reports best-first under an objective, returning indices
/// into `reports`. Feasible cells rank strictly above infeasible ones;
/// ties break on score then on [`crate::nmp::sweep::SweepCell::coords`], so the ranking is
/// a pure function of the *set* of reports — shuffling the slice
/// permutes the returned indices but never the cells they denote.
pub fn rank_cells(reports: &[SweepCellReport], objective: &TuneObjective) -> Vec<usize> {
    let scores: Vec<f64> = reports.iter().map(|r| objective.score(r)).collect();
    let mut order: Vec<usize> = (0..reports.len()).collect();
    order.sort_by(|&i, &j| {
        rank_order((&reports[i], scores[i]), (&reports[j], scores[j]))
            // Equal-key duplicates: keep slice order among exact ties so
            // the sort is fully specified (the tied cells are identical
            // in coords, hence interchangeable as winners).
            .then(i.cmp(&j))
    });
    order
}

/// The tuned operating point for one (platform, task-mix, algorithm)
/// group: the sweep cell the objective selected, flattened into the
/// facts a replay needs.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TuneSelection {
    /// The platform this selection tunes.
    pub platform: PlatformPreset,
    /// The workload mix this selection tunes.
    pub task_mix: TaskMix,
    /// The replayable search configuration: the winning cell's
    /// parameters and value-derived seed, with `workers: 0` so a replay
    /// is bitwise identical on any core count.
    pub config: NmpConfig,
    /// The winning cell's inference-queue capacity (playback-side
    /// operating point).
    pub queue_capacity: usize,
    /// The winning cell's search algorithm.
    pub algorithm: SearchAlgorithm,
    /// Grid coordinates of the winning cell (the tie-break key).
    pub coords: CellCoords,
    /// The winning cell's objective score (lower is better).
    pub score: f64,
    /// The winner's joint multi-task latency, ms.
    pub best_latency_ms: f64,
    /// The winner's energy per joint inference, mJ.
    pub best_energy_mj: f64,
    /// Whether the winner satisfies every ΔA constraint.
    pub feasible: bool,
    /// How many sweep cells competed for this pair.
    pub candidates: usize,
}

impl TuneSelection {
    /// Re-runs the winning cell's search on a problem — the same
    /// algorithm, configuration and seed that earned this selection's
    /// numbers. On the problem built from this selection's (platform,
    /// task-mix) pair at the tuning zoo scale, the result reproduces
    /// the cell's search bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn replay_search(&self, problem: &MultiTaskProblem) -> Result<SearchResult, EvEdgeError> {
        match self.algorithm {
            SearchAlgorithm::Evolutionary => {
                run_nmp(problem, self.config, FitnessConfig::default())
            }
            SearchAlgorithm::Random => {
                run_random_search(problem, self.config, FitnessConfig::default())
            }
        }
    }
}

/// The serde-round-trippable outcome of an auto-tuning pass: one
/// selected operating point per (platform, task-mix, algorithm) group
/// the sweep covered, plus the provenance needed to regenerate it.
/// [`TuneReport::selection_for_mix`] answers "what should this
/// (platform, task-mix) pair run" across algorithms.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TuneReport {
    /// The objective that ranked the cells.
    pub objective: TuneObjective,
    /// The sweep spec the selections were tuned from (provenance: a
    /// report can be regenerated by re-running spec → sweep → tune).
    pub spec: SweepSpec,
    /// Selected operating points, ordered by the spec's (platform,
    /// task-mix, algorithm) grid coordinates.
    pub selections: Vec<TuneSelection>,
    /// Total sweep cells considered.
    pub cells_considered: usize,
}

impl TuneReport {
    /// The best selection for an exact (platform, task-mix) pair,
    /// across every algorithm the sweep ran — "what should this pair
    /// run", under the total order the tuner selected with.
    pub fn selection_for_mix(
        &self,
        platform: PlatformPreset,
        task_mix: &TaskMix,
    ) -> Option<&TuneSelection> {
        self.selections
            .iter()
            .filter(|s| s.platform == platform && &s.task_mix == task_mix)
            .min_by(|a, b| {
                rank_key(
                    (a.feasible, a.score, a.coords),
                    (b.feasible, b.score, b.coords),
                )
            })
    }
}

/// Ranks sweep cells under a deterministic objective and selects one
/// operating point per (platform, task-mix, algorithm) group.
///
/// The tuner is the feedback edge of the sweep subsystem: a
/// [`SweepReport`] measures how every configuration performs, the tuner
/// decides which one each platform should run, and a replay re-runs
/// that decision's search. See the module docs for the determinism
/// argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoTuner {
    /// The ranking objective.
    pub objective: TuneObjective,
}

impl AutoTuner {
    /// A tuner ranking with the given built-in objective.
    pub fn new(objective: TuneObjective) -> Self {
        AutoTuner { objective }
    }

    /// Tunes from an already-evaluated sweep report.
    ///
    /// The winner per (platform, task-mix, algorithm) group is
    /// invariant under the report's cell order and under cell
    /// duplication; groups are emitted in (platform-axis, mix-axis,
    /// algorithm-axis) coordinate order. The algorithm axis is *not*
    /// collapsed: each search algorithm keeps its own selection.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::EmptySweepReport`] when the report has no
    /// cells.
    pub fn tune(&self, report: &SweepReport) -> Result<TuneReport, EvEdgeError> {
        if report.cells.is_empty() {
            return Err(EvEdgeError::EmptySweepReport);
        }
        // Group cell indices by (platform, task-mix, algorithm) value;
        // every member of a group shares those axes' coordinates, which
        // order the groups deterministically.
        type GroupKey = (PlatformPreset, TaskMix, SearchAlgorithm);
        let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
        for (i, cell_report) in report.cells.iter().enumerate() {
            let cell = &cell_report.cell;
            match groups.iter_mut().find(|((p, m, a), _)| {
                *p == cell.platform && *m == cell.task_mix && *a == cell.algorithm
            }) {
                Some((_, members)) => members.push(i),
                None => groups.push((
                    (cell.platform, cell.task_mix.clone(), cell.algorithm),
                    vec![i],
                )),
            }
        }
        groups.sort_by_key(|(_, members)| {
            let coords = &report.cells[members[0]].cell.coords;
            (coords.5, coords.6, coords.7)
        });
        let selections = groups
            .into_iter()
            .map(|((platform, task_mix, _algorithm), members)| {
                // First strictly-better member wins (same tie semantics
                // as [`rank_cells`]), ranking by reference — no cell
                // report is cloned for a read-only decision.
                let mut winner = &report.cells[members[0]];
                let mut winner_score = self.objective.score(winner);
                for &i in &members[1..] {
                    let candidate = &report.cells[i];
                    let score = self.objective.score(candidate);
                    if rank_order((candidate, score), (winner, winner_score)).is_lt() {
                        winner = candidate;
                        winner_score = score;
                    }
                }
                TuneSelection {
                    platform,
                    task_mix,
                    config: winner.cell.nmp_config(0),
                    queue_capacity: winner.cell.queue_capacity,
                    algorithm: winner.cell.algorithm,
                    coords: winner.cell.coords,
                    score: winner_score,
                    best_latency_ms: winner.best_latency_ms,
                    best_energy_mj: winner.best_energy_mj,
                    feasible: winner.feasible,
                    candidates: members.len(),
                }
            })
            .collect();
        Ok(TuneReport {
            objective: self.objective,
            spec: report.spec.clone(),
            selections,
            cells_considered: report.cells.len(),
        })
    }

    /// Runs a sweep spec inline (expanding and evaluating its cells on
    /// the [`crate::exec::parallel::parallel_try_map`] worker pool, `0`
    /// = machine parallelism) and tunes from the result. The returned
    /// report is bitwise identical for any worker count.
    ///
    /// # Errors
    ///
    /// Propagates sweep errors; see [`SweepSpec::validate`].
    pub fn tune_spec(&self, spec: &SweepSpec, workers: usize) -> Result<TuneReport, EvEdgeError> {
        self.tune(&run_sweep(spec, workers)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmp::sweep::{RuntimeSummary, SweepCell, TrajectorySummary, ZooPreset};

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            base_seed: 11,
            populations: vec![3, 4],
            generations: vec![2],
            mutation_layers: vec![1],
            elite_fractions: vec![0.25],
            queue_capacities: vec![1, 2],
            platforms: vec![PlatformPreset::XavierAgx, PlatformPreset::NanoLike],
            task_mixes: vec![TaskMix::AllSnn],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Small,
            runtime_window_ms: 5,
            keep_history: false,
        }
    }

    /// A synthetic cell report with the given key facts (everything the
    /// tuner reads), for ranking tests that need no real search.
    fn synthetic_report(
        coords: CellCoords,
        latency_ms: f64,
        energy_mj: f64,
        feasible: bool,
    ) -> SweepCellReport {
        SweepCellReport {
            cell: SweepCell {
                coords,
                population: 4,
                generations: 2,
                mutation_layers: 1,
                elite_fraction: 0.25,
                queue_capacity: 2,
                platform: PlatformPreset::XavierAgx,
                task_mix: TaskMix::AllSnn,
                algorithm: SearchAlgorithm::Evolutionary,
                seed: coords.0 as u64,
            },
            best_score: latency_ms,
            best_latency_ms: latency_ms,
            best_energy_mj: energy_mj,
            feasible,
            evaluations: 1,
            cache_hits: 0,
            trajectory: TrajectorySummary {
                first_best: latency_ms,
                final_best: latency_ms,
                final_mean: latency_ms,
                improvement: 1.0,
                generations_to_1pct: 0,
                history: Vec::new(),
            },
            runtime: RuntimeSummary {
                completed: 1,
                dropped: 0,
                worst_mean_latency_ms: latency_ms,
                mean_utilization: 0.5,
            },
        }
    }

    fn coords(i: usize) -> CellCoords {
        CellCoords(i, 0, 0, 0, 0, 0, 0, 0)
    }

    #[test]
    fn objectives_score_the_expected_fields() {
        let report = synthetic_report(coords(0), 3.0, 5.0, true);
        assert_eq!(TuneObjective::Latency.score(&report), 3.0);
        assert_eq!(TuneObjective::Energy.score(&report), 5.0);
        assert_eq!(TuneObjective::Edp.score(&report), 15.0);
    }

    #[test]
    fn ranking_prefers_feasible_then_score_then_coords() {
        let reports = vec![
            synthetic_report(coords(3), 1.0, 1.0, false), // best score, infeasible
            synthetic_report(coords(2), 5.0, 1.0, true),
            synthetic_report(coords(1), 2.0, 1.0, true), // tied score...
            synthetic_report(coords(0), 2.0, 1.0, true), // ...lower coords wins
        ];
        let order = rank_cells(&reports, &TuneObjective::Latency);
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn exact_duplicates_rank_adjacent_and_interchangeably() {
        let a = synthetic_report(coords(0), 2.0, 1.0, true);
        let reports = vec![a.clone(), synthetic_report(coords(1), 1.0, 1.0, true), a];
        let order = rank_cells(&reports, &TuneObjective::Latency);
        assert_eq!(order[0], 1);
        // The duplicates tie on every key; either index denotes the
        // same winner content.
        assert_eq!(reports[order[1]], reports[order[2]]);
    }

    #[test]
    fn tune_selects_one_operating_point_per_platform_mix_pair() {
        let spec = tiny_spec();
        let tuned = AutoTuner::new(TuneObjective::Latency)
            .tune_spec(&spec, 0)
            .unwrap();
        // 2 platforms × 1 mix.
        assert_eq!(tuned.selections.len(), 2);
        assert_eq!(tuned.cells_considered, 2 * 2 * 2);
        assert_eq!(tuned.selections[0].platform, PlatformPreset::XavierAgx);
        assert_eq!(tuned.selections[1].platform, PlatformPreset::NanoLike);
        for selection in &tuned.selections {
            assert_eq!(selection.candidates, 4);
            assert_eq!(selection.config.workers, 0);
            assert!(selection.feasible);
            // The selection's score actually is the group minimum.
            assert!(selection.score > 0.0);
        }
        assert_eq!(tuned.spec.zoo, ZooPreset::Small);
    }

    #[test]
    fn tuned_winner_matches_a_manual_scan_of_the_sweep() {
        let spec = tiny_spec();
        let sweep = run_sweep(&spec, 0).unwrap();
        let tuned = AutoTuner::new(TuneObjective::Edp).tune(&sweep).unwrap();
        for selection in &tuned.selections {
            let manual = sweep
                .cells
                .iter()
                .filter(|c| {
                    c.cell.platform == selection.platform && c.cell.task_mix == selection.task_mix
                })
                .map(|c| c.best_latency_ms * c.best_energy_mj)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(selection.score, manual);
        }
    }

    #[test]
    fn selection_lookups_work() {
        let spec = tiny_spec();
        let tuned = AutoTuner::new(TuneObjective::Latency)
            .tune_spec(&spec, 1)
            .unwrap();
        let nano = tuned
            .selection_for_mix(PlatformPreset::NanoLike, &TaskMix::AllSnn)
            .unwrap();
        assert_eq!(nano.platform, PlatformPreset::NanoLike);
        assert!(tuned
            .selection_for_mix(PlatformPreset::OrinLike, &TaskMix::AllSnn)
            .is_none());
        assert!(tuned
            .selection_for_mix(PlatformPreset::XavierAgx, &TaskMix::AllAnn)
            .is_none());
        let xavier = tuned
            .selection_for_mix(PlatformPreset::XavierAgx, &TaskMix::AllSnn)
            .unwrap();
        assert!(xavier.config.population >= 3);
    }

    #[test]
    fn empty_sweep_report_is_rejected() {
        let report = SweepReport {
            spec: tiny_spec(),
            cells: Vec::new(),
            best_cell: 0,
            total_evaluations: 0,
            total_cache_hits: 0,
            distinct_problems: 0,
            distinct_searches: 0,
        };
        assert!(matches!(
            AutoTuner::new(TuneObjective::Latency).tune(&report),
            Err(EvEdgeError::EmptySweepReport)
        ));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn tune_report_roundtrips_through_serde() {
        let tuned = AutoTuner::new(TuneObjective::Edp)
            .tune_spec(&tiny_spec(), 0)
            .unwrap();
        let value = serde::Serialize::to_value(&tuned);
        let back = <TuneReport as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(back, tuned);
    }

    #[test]
    fn replaying_a_selection_reproduces_the_cell_search() {
        // Both algorithms in the grid: `replay_search` must dispatch on
        // the winner's algorithm, whichever it is, and still reproduce
        // the cell bit for bit.
        let spec = SweepSpec {
            algorithms: vec![SearchAlgorithm::Evolutionary, SearchAlgorithm::Random],
            ..tiny_spec()
        };
        let sweep = run_sweep(&spec, 0).unwrap();
        let tuned = AutoTuner::new(TuneObjective::Latency).tune(&sweep).unwrap();
        for selection in &tuned.selections {
            let problem = selection
                .task_mix
                .build_problem(selection.platform.build(), &spec.zoo.config())
                .unwrap();
            let replay = selection.replay_search(&problem).unwrap();
            let cell = sweep
                .cells
                .iter()
                .find(|c| c.cell.coords == selection.coords)
                .unwrap();
            assert_eq!(replay.report.score.to_bits(), cell.best_score.to_bits());
            assert_eq!(
                replay.report.max_latency.as_secs_f64() * 1e3,
                cell.best_latency_ms
            );
        }
    }
}
