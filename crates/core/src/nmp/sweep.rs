//! The NMP configuration-sweep engine (paper Figure 10 ablations).
//!
//! [`crate::nmp::evolution::run_nmp`] answers "what does *one* search
//! configuration find"; this module answers "how does solution quality
//! move across a whole *grid* of configurations" — search budget,
//! population, mutation strength, elitism, inference-queue depth,
//! platform class and workload mix. A declarative [`SweepSpec`] expands
//! into [`SweepCell`]s, each cell runs one full search (plus a short
//! streaming-runtime playback of its winning mapping), and the cells
//! evaluate concurrently on the [`crate::exec::parallel`] worker pool
//! with results bitwise identical to a serial sweep for any worker
//! count.
//!
//! # Determinism
//!
//! Two properties make sweeps reproducible end to end:
//!
//! * **Per-cell seeds derive from *search-relevant* cell values, not
//!   enumeration order.** Every cell's PRNG seed is a SplitMix64-style
//!   fold of the spec's base seed with the cell's search parameters
//!   (population, generations, mutation layers, elite-fraction bits,
//!   platform tag, task-mix contents, algorithm tag and zoo preset).
//!   Shuffling the cell list, or adding/removing other grid points,
//!   never changes what an individual cell computes. Playback-only
//!   parameters — queue capacity and the runtime window — are *not*
//!   absorbed: cells differing only there share a seed and one
//!   memoized search, so the capacity column of a sweep isolates
//!   capacity's runtime effect on a fixed winner instead of
//!   confounding it with search variance.
//! * **Cells never share mutable state.** Each cell owns its search RNG
//!   and fitness cache; the pool only spreads whole-cell evaluations,
//!   and [`parallel_try_map`] returns results (and selects errors) in
//!   input order. Serial and 8-worker sweeps therefore serialize to
//!   byte-identical JSON.
//!
//! # Examples
//!
//! ```
//! use ev_edge::nmp::sweep::{run_sweep, SweepSpec, TaskMix, ZooPreset};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = SweepSpec {
//!     populations: vec![4, 8],
//!     generations: vec![3],
//!     task_mixes: vec![TaskMix::AllSnn],
//!     zoo: ZooPreset::Small,
//!     keep_history: false,
//!     ..SweepSpec::default()
//! };
//! let report = run_sweep(&spec, 0)?;
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.cells[report.best_cell].feasible);
//! # Ok(())
//! # }
//! ```

use crate::exec::parallel::parallel_try_map;
use crate::multipipe::{run_multi_task_runtime, MultiTaskRuntimeConfig};
use crate::nmp::baseline;
use crate::nmp::evolution::{run_nmp, GenerationStat, NmpConfig};
use crate::nmp::fitness::{FitnessConfig, FitnessEvaluator};
use crate::nmp::multitask::{MultiTaskProblem, TaskSpec};
use crate::nmp::random_search::run_random_search;
use crate::EvEdgeError;
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;

/// A commodity-edge platform class the sweep can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PlatformPreset {
    /// NVIDIA Jetson Xavier AGX — the paper's evaluation platform.
    XavierAgx,
    /// An Orin-class device (more capable GPU/DLA).
    OrinLike,
    /// A Nano-class device (a single weaker GPU).
    NanoLike,
    /// An FPGA-like composable-dataflow fabric (sparse-first PEs with
    /// near-zero dispatch cost — inverts the GPU-first PE ranking for
    /// data-dependent workloads).
    ComposableDataflow,
}

impl PlatformPreset {
    /// Builds the processing-element table of the preset.
    pub fn build(self) -> Platform {
        match self {
            PlatformPreset::XavierAgx => Platform::xavier_agx(),
            PlatformPreset::OrinLike => Platform::orin_like(),
            PlatformPreset::NanoLike => Platform::nano_like(),
            PlatformPreset::ComposableDataflow => Platform::composable_dataflow(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PlatformPreset::XavierAgx => "xavier_agx",
            PlatformPreset::OrinLike => "orin_like",
            PlatformPreset::NanoLike => "nano_like",
            PlatformPreset::ComposableDataflow => "composable_dataflow",
        }
    }
}

/// The network-zoo scale a sweep builds its task graphs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ZooPreset {
    /// Reduced-scale graphs (fast; unit tests and smoke sweeps).
    Small,
    /// MVSEC-scale graphs (the paper's evaluation scale).
    Mvsec,
}

impl ZooPreset {
    /// The corresponding zoo configuration.
    pub fn config(self) -> ZooConfig {
        match self {
            ZooPreset::Small => ZooConfig::small(),
            ZooPreset::Mvsec => ZooConfig::mvsec(),
        }
    }
}

/// Which mapping-search algorithm a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SearchAlgorithm {
    /// The paper's evolutionary NMP search (§4.3.1).
    Evolutionary,
    /// The random-sampling baseline with the same evaluation budget
    /// (Figure 10b).
    Random,
}

impl SearchAlgorithm {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SearchAlgorithm::Evolutionary => "evolutionary",
            SearchAlgorithm::Random => "random",
        }
    }
}

/// The concurrent-task workload a sweep cell maps (paper §5 mixes).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TaskMix {
    /// The all-ANN configuration: EV-FlowNet + E2Depth.
    AllAnn,
    /// The all-SNN configuration: DOTIE + Adaptive-SpikeNet.
    AllSnn,
    /// The mixed SNN-ANN configuration: Fusion-FlowNet + HALSIE +
    /// DOTIE + E2Depth (the Figure 10 workload).
    MixedSnnAnn,
    /// The GNN-heavy heterogeneous configuration: two GraphNet instances
    /// (data-dependent per-layer cost) + DOTIE. Exercises the
    /// density-aware cost tables end to end.
    GnnHeavy,
    /// Corner frontend + heterogeneous inference: CornerNet (cheap,
    /// high-rate, always-on) + GraphNet + E2Depth.
    CornerPlusInference,
    /// An explicit workload: the listed networks, each with its Table 2
    /// ΔA budget scaled by `delta_scale` (1.0 = the paper's budgets;
    /// smaller is stricter).
    Custom {
        /// The networks running concurrently.
        networks: Vec<NetworkId>,
        /// Multiplier on each network's ΔA budget.
        delta_scale: f64,
    },
}

impl TaskMix {
    /// The networks of the mix, in task order.
    pub fn networks(&self) -> Vec<NetworkId> {
        match self {
            TaskMix::AllAnn => vec![NetworkId::EvFlowNet, NetworkId::E2Depth],
            TaskMix::AllSnn => vec![NetworkId::Dotie, NetworkId::AdaptiveSpikeNet],
            TaskMix::MixedSnnAnn => vec![
                NetworkId::FusionFlowNet,
                NetworkId::Halsie,
                NetworkId::Dotie,
                NetworkId::E2Depth,
            ],
            TaskMix::GnnHeavy => vec![NetworkId::GraphNet, NetworkId::GraphNet, NetworkId::Dotie],
            TaskMix::CornerPlusInference => vec![
                NetworkId::CornerNet,
                NetworkId::GraphNet,
                NetworkId::E2Depth,
            ],
            TaskMix::Custom { networks, .. } => networks.clone(),
        }
    }

    /// The ΔA scale applied to the Table 2 budgets.
    pub fn delta_scale(&self) -> f64 {
        match self {
            TaskMix::Custom { delta_scale, .. } => *delta_scale,
            _ => 1.0,
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            TaskMix::AllAnn => "all-ANN".to_string(),
            TaskMix::AllSnn => "all-SNN".to_string(),
            TaskMix::MixedSnnAnn => "mixed SNN-ANN".to_string(),
            TaskMix::GnnHeavy => "GNN-heavy".to_string(),
            TaskMix::CornerPlusInference => "corner+inference".to_string(),
            TaskMix::Custom {
                networks,
                delta_scale,
            } => {
                let names: Vec<&str> = networks.iter().map(|n| n.name()).collect();
                format!("custom[{}]x{delta_scale}", names.join("+"))
            }
        }
    }

    /// Parses a command-line mix name (the `--mix` flag of the bench
    /// binaries). `None` for unknown names.
    pub fn from_flag(name: &str) -> Option<TaskMix> {
        match name {
            "all-ann" => Some(TaskMix::AllAnn),
            "all-snn" => Some(TaskMix::AllSnn),
            "mixed" => Some(TaskMix::MixedSnnAnn),
            "gnn-heavy" => Some(TaskMix::GnnHeavy),
            "corner-inference" => Some(TaskMix::CornerPlusInference),
            _ => None,
        }
    }

    /// Builds the mapping problem of this mix on a platform. Networks
    /// with a data-dependent cost schedule (see
    /// [`NetworkId::density_schedule`]) get their measured densities
    /// attached, so `Custom` mixes assembled elsewhere (e.g. the serve
    /// tenant registry) automatically price them correctly too.
    ///
    /// # Errors
    ///
    /// Propagates graph construction and profiling errors.
    pub fn build_problem(
        &self,
        platform: Platform,
        zoo: &ZooConfig,
    ) -> Result<MultiTaskProblem, EvEdgeError> {
        let scale = self.delta_scale();
        let tasks = self
            .networks()
            .iter()
            .map(|&n| task_spec_for(n, zoo, scale))
            .collect::<Result<Vec<_>, ev_nn::NnError>>()?;
        MultiTaskProblem::new(platform, tasks)
    }

    /// Words absorbed into the per-cell seed (value-derived, so cell
    /// identity survives grid reshuffles).
    fn seed_words(&self) -> Vec<u64> {
        match self {
            TaskMix::AllAnn => vec![0],
            TaskMix::AllSnn => vec![1],
            TaskMix::MixedSnnAnn => vec![2],
            TaskMix::GnnHeavy => vec![4],
            TaskMix::CornerPlusInference => vec![5],
            TaskMix::Custom {
                networks,
                delta_scale,
            } => {
                let mut words = vec![3, networks.len() as u64];
                words.extend(networks.iter().map(|&n| n as u64));
                words.push(delta_scale.to_bits());
                words
            }
        }
    }
}

/// Builds one network's [`TaskSpec`] with its ΔA budget scaled by
/// `delta_scale`, attaching the network's data-dependent density
/// schedule when it has one ([`NetworkId::density_schedule`]). The
/// single task-construction path shared by [`TaskMix::build_problem`]
/// and the bench/serve layers, so data-dependent costs can never be
/// silently dropped by one of them.
///
/// # Errors
///
/// Propagates graph construction errors.
pub fn task_spec_for(
    network: NetworkId,
    zoo: &ZooConfig,
    delta_scale: f64,
) -> Result<TaskSpec, ev_nn::NnError> {
    let mut spec = TaskSpec::new(
        network.build(zoo)?,
        network.accuracy_model(),
        network.delta_a() * delta_scale,
    );
    if let Some(densities) = network.density_schedule(zoo) {
        spec = spec.with_densities(densities);
    }
    Ok(spec)
}

/// A declarative grid over NMP search configurations (the Figure 10
/// ablation space). Every cross-product point becomes one [`SweepCell`];
/// duplicate values within an axis are collapsed to their first
/// occurrence so cell identity is unambiguous.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepSpec {
    /// Base PRNG seed; per-cell seeds are derived from it and the cell's
    /// parameter values.
    pub base_seed: u64,
    /// Population-size grid.
    pub populations: Vec<usize>,
    /// Generation-count grid.
    pub generations: Vec<usize>,
    /// Mutation-strength grid (layers re-randomized per child).
    pub mutation_layers: Vec<usize>,
    /// Elite-fraction grid (crossover pressure: survivors per round).
    pub elite_fractions: Vec<f64>,
    /// Inference-queue capacity grid for the runtime playback of each
    /// cell's winning mapping (§4.2 bounded queues).
    pub queue_capacities: Vec<usize>,
    /// Platform-class grid.
    pub platforms: Vec<PlatformPreset>,
    /// Workload-mix grid.
    pub task_mixes: Vec<TaskMix>,
    /// Search-algorithm grid.
    pub algorithms: Vec<SearchAlgorithm>,
    /// Zoo scale for every cell's task graphs.
    pub zoo: ZooPreset,
    /// Simulated duration of the per-cell runtime playback, ms.
    pub runtime_window_ms: u64,
    /// Keep the full per-generation trajectory in each cell report
    /// (Figure 10a curves) instead of the summary alone.
    pub keep_history: bool,
}

impl Default for SweepSpec {
    fn default() -> Self {
        let nmp = NmpConfig::default();
        SweepSpec {
            base_seed: nmp.seed,
            populations: vec![nmp.population],
            generations: vec![nmp.generations],
            mutation_layers: vec![nmp.mutation_layers],
            elite_fractions: vec![nmp.elite_fraction],
            queue_capacities: vec![2],
            platforms: vec![PlatformPreset::XavierAgx],
            task_mixes: vec![TaskMix::MixedSnnAnn],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Mvsec,
            runtime_window_ms: 40,
            keep_history: true,
        }
    }
}

/// Most cells a [`SweepSpec`] grid may expand to.
pub const MAX_CELLS: usize = 4_096;
/// Longest [`SweepSpec::runtime_window_ms`] a sweep accepts.
pub const MAX_RUNTIME_WINDOW_MS: u64 = 10_000;

impl SweepSpec {
    /// Validates the grid: its axes, its size and every cell's search
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidSweepSpec`] as [`SweepSpec::cells`].
    pub fn validate(&self) -> Result<(), EvEdgeError> {
        self.cells().map(drop)
    }

    /// Expands the grid into cells, in canonical axis order (populations
    /// outermost, algorithms innermost). Duplicate axis values collapse
    /// to their first occurrence.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidSweepSpec`] naming the offending
    /// axis: an empty axis, zero queue capacities, an empty custom task
    /// mix, a runtime window that is zero or longer than
    /// [`MAX_RUNTIME_WINDOW_MS`], more than [`MAX_CELLS`] cells (axis
    /// `cells`), or a cell whose search configuration
    /// [`NmpConfig::validate`] rejects (named by its axis, such as
    /// `generations`).
    pub fn cells(&self) -> Result<Vec<SweepCell>, EvEdgeError> {
        let bad = |axis| Err(EvEdgeError::InvalidSweepSpec { axis });
        let axes = [
            ("populations", self.populations.len()),
            ("generations", self.generations.len()),
            ("mutation_layers", self.mutation_layers.len()),
            ("elite_fractions", self.elite_fractions.len()),
            ("queue_capacities", self.queue_capacities.len()),
            ("platforms", self.platforms.len()),
            ("task_mixes", self.task_mixes.len()),
            ("algorithms", self.algorithms.len()),
        ];
        if let Some(&(axis, _)) = axes.iter().find(|(_, len)| *len == 0) {
            return bad(axis);
        }
        if self.queue_capacities.contains(&0) {
            return bad("queue_capacities");
        }
        if self.task_mixes.iter().any(|m| {
            m.networks().is_empty() || !m.delta_scale().is_finite() || m.delta_scale() < 0.0
        }) {
            return bad("task_mixes");
        }
        if !(1..=MAX_RUNTIME_WINDOW_MS).contains(&self.runtime_window_ms) {
            return bad("runtime_window_ms");
        }
        // Bounded before the axes are deduplicated, so a huge axis is
        // rejected before any per-value work.
        let grid_cells = axes
            .iter()
            .try_fold(1usize, |cells, &(_, len)| cells.checked_mul(len));
        if grid_cells.is_none_or(|cells| cells > MAX_CELLS) {
            return bad("cells");
        }
        let populations = dedup(&self.populations);
        let generations = dedup(&self.generations);
        let mutation_layers = dedup(&self.mutation_layers);
        let elite_fractions = dedup_by_bits(&self.elite_fractions);
        let queue_capacities = dedup(&self.queue_capacities);
        let platforms = dedup(&self.platforms);
        let task_mixes = dedup(&self.task_mixes);
        let algorithms = dedup(&self.algorithms);
        let mut cells = Vec::new();
        for (pop_i, &population) in populations.iter().enumerate() {
            for (gen_i, &generations) in generations.iter().enumerate() {
                for (mut_i, &mutation_layers) in mutation_layers.iter().enumerate() {
                    for (elite_i, &elite_fraction) in elite_fractions.iter().enumerate() {
                        for (cap_i, &queue_capacity) in queue_capacities.iter().enumerate() {
                            for (plat_i, &platform) in platforms.iter().enumerate() {
                                for (mix_i, task_mix) in task_mixes.iter().enumerate() {
                                    for (alg_i, &algorithm) in algorithms.iter().enumerate() {
                                        let cell = SweepCell {
                                            coords: CellCoords(
                                                pop_i, gen_i, mut_i, elite_i, cap_i, plat_i, mix_i,
                                                alg_i,
                                            ),
                                            population,
                                            generations,
                                            mutation_layers,
                                            elite_fraction,
                                            queue_capacity,
                                            platform,
                                            task_mix: task_mix.clone(),
                                            algorithm,
                                            seed: 0,
                                        };
                                        if let Err(EvEdgeError::InvalidSearchConfig { field }) =
                                            cell.nmp_config(0).validate()
                                        {
                                            return bad(match field {
                                                "population" => "populations",
                                                "elite_fraction" => "elite_fractions",
                                                axis => axis,
                                            });
                                        }
                                        cells.push(SweepCell {
                                            seed: self.cell_seed(&cell),
                                            ..cell
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Derives a cell's PRNG seed from the base seed and the cell's
    /// *search-relevant* parameter values — never its grid coordinates
    /// (reordering or extending the grid cannot change what an existing
    /// cell computes), and never playback-only parameters (queue
    /// capacity and the runtime window shape the playback, not the
    /// search, so cells differing only there share a seed and — via
    /// search memoization in [`run_cells`] — a single search; the
    /// capacity column of a sweep then isolates capacity's effect on a
    /// *fixed* winner instead of confounding it with search variance).
    /// Cells with distinct search parameters get distinct seeds up to a
    /// ~2⁻⁶⁴ SplitMix64 collision — and a collision would only
    /// correlate two searches, never corrupt either.
    fn cell_seed(&self, cell: &SweepCell) -> u64 {
        let mut state = absorb(0x5357_4545_5045_4E47, self.base_seed); // "SWEEPENG"
        state = absorb(state, cell.population as u64);
        state = absorb(state, cell.generations as u64);
        state = absorb(state, cell.mutation_layers as u64);
        state = absorb(state, cell.elite_fraction.to_bits());
        state = absorb(state, cell.platform as u64);
        state = absorb(state, cell.algorithm as u64);
        state = absorb(state, self.zoo as u64);
        for word in cell.task_mix.seed_words() {
            state = absorb(state, word);
        }
        state
    }

    /// The playback window of each cell's runtime simulation.
    fn runtime_window(&self) -> TimeWindow {
        TimeWindow::new(
            Timestamp::ZERO,
            Timestamp::from_millis(self.runtime_window_ms),
        )
    }
}

/// One SplitMix64-style absorb-and-finalize round.
fn absorb(state: u64, word: u64) -> u64 {
    let mut z = state
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(word.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First-occurrence dedup for axis values.
fn dedup<T: Clone + PartialEq>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(values.len());
    for v in values {
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

/// First-occurrence dedup comparing floats by bit pattern.
fn dedup_by_bits(values: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::with_capacity(values.len());
    for &v in values {
        if !out.iter().any(|o| o.to_bits() == v.to_bits()) {
            out.push(v);
        }
    }
    out
}

/// A cell's grid coordinates `(population, generations, mutation,
/// elite, queue-capacity, platform, task-mix, algorithm)` — indices
/// into the deduplicated spec axes, in canonical axis order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CellCoords(
    /// Population-axis index.
    pub usize,
    /// Generations-axis index.
    pub usize,
    /// Mutation-axis index.
    pub usize,
    /// Elite-fraction-axis index.
    pub usize,
    /// Queue-capacity-axis index.
    pub usize,
    /// Platform-axis index.
    pub usize,
    /// Task-mix-axis index.
    pub usize,
    /// Algorithm-axis index.
    pub usize,
);

/// One fully-resolved point of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepCell {
    /// Grid coordinates.
    pub coords: CellCoords,
    /// Population size.
    pub population: usize,
    /// Generation count.
    pub generations: usize,
    /// Layers re-randomized per mutation.
    pub mutation_layers: usize,
    /// Elite survival fraction.
    pub elite_fraction: f64,
    /// Runtime inference-queue capacity.
    pub queue_capacity: usize,
    /// Platform class.
    pub platform: PlatformPreset,
    /// Workload mix.
    pub task_mix: TaskMix,
    /// Search algorithm.
    pub algorithm: SearchAlgorithm,
    /// The derived per-cell PRNG seed.
    pub seed: u64,
}

impl SweepCell {
    /// The cell's search parameters as a replayable [`NmpConfig`] with
    /// the given candidate-evaluation fan-out (`0` = machine
    /// parallelism; results are bitwise identical for any value). This
    /// is what the sweep engine runs, what [`crate::nmp::tune`] emits
    /// and what the serving layer's re-tune runs.
    pub fn nmp_config(&self, workers: usize) -> NmpConfig {
        NmpConfig {
            population: self.population,
            generations: self.generations,
            mutation_layers: self.mutation_layers,
            elite_fraction: self.elite_fraction,
            seed: self.seed,
            fp_only: false,
            seed_baselines: true,
            workers,
        }
    }
}

/// One generation of a cell's convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrajectoryPoint {
    /// Generation index.
    pub generation: usize,
    /// Best score in (or up to, for random search) the generation.
    pub best_score: f64,
    /// Mean score across the generation's population.
    pub mean_score: f64,
}

/// Summary of a cell's search trajectory (Figure 10a shape).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrajectorySummary {
    /// Best score of the first generation.
    pub first_best: f64,
    /// Best score of the final generation.
    pub final_best: f64,
    /// Mean population score of the final generation.
    pub final_mean: f64,
    /// `first_best / final_best` — how much the search improved.
    pub improvement: f64,
    /// First generation whose best is within 1% of the final best (how
    /// fast the search converges).
    pub generations_to_1pct: usize,
    /// The full curve (empty unless [`SweepSpec::keep_history`]).
    pub history: Vec<TrajectoryPoint>,
}

fn summarize_trajectory(history: &[GenerationStat], keep_history: bool) -> TrajectorySummary {
    let first_best = history.first().map(|g| g.best_score).unwrap_or(0.0);
    let final_best = history.last().map(|g| g.best_score).unwrap_or(0.0);
    let final_mean = history.last().map(|g| g.mean_score).unwrap_or(0.0);
    let generations_to_1pct = history
        .iter()
        .position(|g| g.best_score <= final_best * 1.01)
        .unwrap_or(0);
    TrajectorySummary {
        first_best,
        final_best,
        final_mean,
        improvement: if final_best > 0.0 {
            first_best / final_best
        } else {
            1.0
        },
        generations_to_1pct,
        history: if keep_history {
            history
                .iter()
                .map(|g| TrajectoryPoint {
                    generation: g.generation,
                    best_score: g.best_score,
                    mean_score: g.mean_score,
                })
                .collect()
        } else {
            Vec::new()
        },
    }
}

/// Runtime playback of a cell's winning mapping: the workload streamed
/// for the spec's window at near-saturation arrival rates with the
/// cell's bounded inference queues.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RuntimeSummary {
    /// Inferences completed across all tasks.
    pub completed: u64,
    /// Inputs dropped by the bounded queues (§4.2 drop rule).
    pub dropped: u64,
    /// Worst per-task mean input-to-completion latency, ms.
    pub worst_mean_latency_ms: f64,
    /// Mean processing-element utilization over the makespan.
    pub mean_utilization: f64,
}

/// The evaluated outcome of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepCellReport {
    /// The cell that was evaluated.
    pub cell: SweepCell,
    /// Best (lowest) fitness score found.
    pub best_score: f64,
    /// Joint multi-task latency of the winning mapping, ms.
    pub best_latency_ms: f64,
    /// Energy of one joint inference under the winning mapping, mJ.
    pub best_energy_mj: f64,
    /// Whether the winner satisfies every task's ΔA constraint.
    pub feasible: bool,
    /// Fitness evaluations spent (cache misses).
    pub evaluations: usize,
    /// Fitness-cache hits.
    pub cache_hits: usize,
    /// Search-trajectory summary.
    pub trajectory: TrajectorySummary,
    /// Streaming-runtime playback of the winner.
    pub runtime: RuntimeSummary,
}

/// The outcome of a whole sweep.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SweepReport {
    /// The spec that produced the sweep (provenance; a report can be
    /// replayed from its own spec).
    pub spec: SweepSpec,
    /// Per-cell reports, in canonical cell order.
    pub cells: Vec<SweepCellReport>,
    /// Index into `cells` of the winner: the lowest-scoring feasible
    /// cell (lowest-scoring overall if none is feasible), earliest in
    /// canonical order on ties.
    pub best_cell: usize,
    /// Total fitness evaluations actually performed (a search shared by
    /// capacity-only twin cells counts once).
    pub total_evaluations: usize,
    /// Total fitness-cache hits across the distinct searches.
    pub total_cache_hits: usize,
    /// Distinct (platform, task-mix) mapping problems built.
    pub distinct_problems: usize,
    /// Distinct searches run — cells differing only in queue capacity
    /// share one memoized search (see [`same_search`]).
    pub distinct_searches: usize,
}

/// One prepared (platform, task-mix) problem and the arrival periods of
/// its runtime playback.
struct PreparedProblem {
    platform: PlatformPreset,
    task_mix: TaskMix,
    problem: MultiTaskProblem,
    periods: Vec<TimeDelta>,
}

/// Builds the distinct problems the cells need. Arrival periods are ¾
/// of each task's RR-Network critical-path latency: a mapping no better
/// than round-robin is mildly overloaded (queues drop), a good mapping
/// keeps up — so queue capacity and mapping quality both show in the
/// playback.
fn prepare_problems(
    cells: &[SweepCell],
    zoo: &ZooConfig,
) -> Result<Vec<PreparedProblem>, EvEdgeError> {
    let mut prepared: Vec<PreparedProblem> = Vec::new();
    for cell in cells {
        if prepared
            .iter()
            .any(|p| p.platform == cell.platform && p.task_mix == cell.task_mix)
        {
            continue;
        }
        let problem = cell.task_mix.build_problem(cell.platform.build(), zoo)?;
        let mut evaluator = FitnessEvaluator::new(&problem, FitnessConfig::default());
        let rr = evaluator.evaluate(&baseline::rr_network(&problem))?;
        let periods = near_saturation_periods(&rr);
        prepared.push(PreparedProblem {
            platform: cell.platform,
            task_mix: cell.task_mix.clone(),
            problem,
            periods,
        });
    }
    Ok(prepared)
}

/// The near-saturation arrival periods a runtime playback uses: ¾ of
/// each task's critical-path latency under the evaluated baseline
/// (conventionally RR-Network). A mapping no better than round-robin
/// is mildly overloaded (queues drop) while a good mapping keeps up,
/// so queue capacity and mapping quality both show in the playback.
/// Shared by the sweep playback and the Figure 9 `--playback` view so
/// the rule can never silently diverge between them.
pub fn near_saturation_periods(baseline: &crate::nmp::fitness::FitnessReport) -> Vec<TimeDelta> {
    baseline
        .per_task_latency
        .iter()
        .map(|&l| TimeDelta::from_micros((l.as_micros() * 3 / 4).max(1)))
        .collect()
}

/// Whether two cells describe the same *search* — equal in every
/// parameter except the playback-only queue capacity. Such cells share
/// a seed (see [`SweepSpec::cells`]) and are evaluated with a single
/// memoized search.
pub fn same_search(a: &SweepCell, b: &SweepCell) -> bool {
    a.platform == b.platform
        && a.task_mix == b.task_mix
        && a.population == b.population
        && a.generations == b.generations
        && a.mutation_layers == b.mutation_layers
        && a.elite_fraction.to_bits() == b.elite_fraction.to_bits()
        && a.algorithm == b.algorithm
        && a.seed == b.seed
}

/// Runs one cell's search. `inner_workers` is the candidate-evaluation
/// fan-out *within* the search: when the sweep has fewer distinct
/// searches than pool workers, the spare cores go to per-generation
/// fitness evaluation (bitwise identical for any inner worker count —
/// see [`crate::nmp::fitness::FitnessEvaluator::evaluate_all`]);
/// otherwise cells run serially inside so the pool is never
/// oversubscribed.
fn run_cell_search(
    problem: &MultiTaskProblem,
    cell: &SweepCell,
    inner_workers: usize,
) -> Result<crate::nmp::evolution::SearchResult, EvEdgeError> {
    let config = cell.nmp_config(inner_workers);
    match cell.algorithm {
        SearchAlgorithm::Evolutionary => run_nmp(problem, config, FitnessConfig::default()),
        SearchAlgorithm::Random => run_random_search(problem, config, FitnessConfig::default()),
    }
}

/// Plays a cell's winning mapping forward and assembles the report.
fn assemble_report(
    prepared: &PreparedProblem,
    search: &crate::nmp::evolution::SearchResult,
    cell: &SweepCell,
    window: TimeWindow,
    keep_history: bool,
) -> Result<SweepCellReport, EvEdgeError> {
    let runtime_config = MultiTaskRuntimeConfig {
        window,
        queue_capacity: cell.queue_capacity,
    };
    let playback = run_multi_task_runtime(
        &prepared.problem,
        &search.best,
        &prepared.periods,
        runtime_config,
    )?;
    Ok(SweepCellReport {
        cell: cell.clone(),
        best_score: search.report.score,
        best_latency_ms: search.report.max_latency.as_secs_f64() * 1e3,
        best_energy_mj: search.report.energy.as_millijoules(),
        feasible: search.report.feasible,
        evaluations: search.evaluations,
        cache_hits: search.cache_hits,
        trajectory: summarize_trajectory(&search.history, keep_history),
        runtime: RuntimeSummary {
            completed: playback.total_completed(),
            dropped: playback.total_dropped(),
            worst_mean_latency_ms: playback.worst_mean_latency().as_secs_f64() * 1e3,
            mean_utilization: playback.mean_utilization(),
        },
    })
}

/// What one sweep execution computed: the per-cell reports plus the
/// work-accounting facts the executor already knows (single source for
/// [`SweepReport`]'s summary fields).
struct SweepExecution {
    reports: Vec<SweepCellReport>,
    distinct_problems: usize,
    distinct_searches: usize,
    total_evaluations: usize,
    total_cache_hits: usize,
}

/// The shared engine behind [`run_cells`] and [`run_sweep`]: memoizes
/// distinct searches, fans them out first, then fans out the per-cell
/// playbacks.
fn execute_cells(
    spec: &SweepSpec,
    cells: &[SweepCell],
    workers: usize,
) -> Result<SweepExecution, EvEdgeError> {
    let zoo = spec.zoo.config();
    let prepared = prepare_problems(cells, &zoo)?;
    let window = spec.runtime_window();
    let keep_history = spec.keep_history;
    let problem_of = |cell: &SweepCell| {
        prepared
            .iter()
            .position(|p| p.platform == cell.platform && p.task_mix == cell.task_mix)
            .expect("every cell's problem was prepared")
    };
    // Distinct searches, in first-occurrence order; each cell points at
    // its search unit.
    let mut search_cells: Vec<SweepCell> = Vec::new();
    let mut unit_of_cell: Vec<usize> = Vec::with_capacity(cells.len());
    for cell in cells {
        match search_cells.iter().position(|s| same_search(s, cell)) {
            Some(unit) => unit_of_cell.push(unit),
            None => {
                unit_of_cell.push(search_cells.len());
                search_cells.push(cell.clone());
            }
        }
    }
    let workers = crate::exec::parallel::resolve_workers(workers);
    // With fewer distinct searches than pool workers, spare cores go to
    // candidate evaluation *inside* each search (bitwise identical for
    // any split, so this is purely a wall-clock choice).
    let inner_workers = (workers / search_cells.len().max(1)).max(1);
    let prepared = &prepared;
    let search_units: Vec<(usize, SweepCell)> = search_cells
        .into_iter()
        .map(|cell| (problem_of(&cell), cell))
        .collect();
    let searches = parallel_try_map(workers, search_units, move |(problem_idx, cell)| {
        run_cell_search(&prepared[problem_idx].problem, &cell, inner_workers)
    })?;
    let playback_units: Vec<(usize, usize, SweepCell)> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| (problem_of(cell), unit_of_cell[i], cell.clone()))
        .collect();
    let searches_ref = &searches;
    let reports = parallel_try_map(workers, playback_units, move |(problem_idx, unit, cell)| {
        assemble_report(
            &prepared[problem_idx],
            &searches_ref[unit],
            &cell,
            window,
            keep_history,
        )
    })?;
    Ok(SweepExecution {
        reports,
        distinct_problems: prepared.len(),
        distinct_searches: searches.len(),
        total_evaluations: searches.iter().map(|s| s.evaluations).sum(),
        total_cache_hits: searches.iter().map(|s| s.cache_hits).sum(),
    })
}

/// Evaluates an explicit cell list on the worker pool (`0` = machine
/// parallelism, `1` = serial), returning reports in the *given* cell
/// order. Distinct searches run once each (cells differing only in
/// queue capacity share one memoized search) and fan out first; the
/// per-cell playbacks fan out second. Results are bitwise identical for
/// any worker count, and each cell's report is invariant under
/// reorderings of the list — the engine behind [`run_sweep`], exposed
/// for order-sensitivity tests and resumable partial sweeps.
///
/// # Errors
///
/// Propagates the first error in list order; see
/// [`SweepSpec::validate`] for spec errors.
pub fn run_cells(
    spec: &SweepSpec,
    cells: &[SweepCell],
    workers: usize,
) -> Result<Vec<SweepCellReport>, EvEdgeError> {
    spec.validate()?;
    Ok(execute_cells(spec, cells, workers)?.reports)
}

/// Expands a spec and evaluates every cell on the worker pool (`0` =
/// machine parallelism, `1` = serial). The report's cells are in
/// canonical grid order and are bitwise identical for any worker count.
///
/// # Errors
///
/// Returns [`EvEdgeError::InvalidSweepSpec`] for degenerate specs and
/// propagates search/runtime errors from cells (first in canonical
/// order).
pub fn run_sweep(spec: &SweepSpec, workers: usize) -> Result<SweepReport, EvEdgeError> {
    let cells = spec.cells()?;
    let execution = execute_cells(spec, &cells, workers)?;
    let best_cell = execution
        .reports
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            // Feasible cells rank strictly above infeasible ones.
            b.feasible
                .cmp(&a.feasible)
                .then(a.best_score.total_cmp(&b.best_score))
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    Ok(SweepReport {
        spec: spec.clone(),
        best_cell,
        total_evaluations: execution.total_evaluations,
        total_cache_hits: execution.total_cache_hits,
        distinct_problems: execution.distinct_problems,
        distinct_searches: execution.distinct_searches,
        cells: execution.reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            base_seed: 7,
            populations: vec![3, 4],
            generations: vec![2],
            mutation_layers: vec![1],
            elite_fractions: vec![0.25],
            queue_capacities: vec![1, 2],
            platforms: vec![PlatformPreset::XavierAgx],
            task_mixes: vec![TaskMix::AllSnn],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Small,
            runtime_window_ms: 5,
            keep_history: false,
        }
    }

    #[test]
    fn grid_expands_in_canonical_order_with_dedup() {
        let mut spec = tiny_spec();
        spec.populations = vec![3, 4, 3]; // duplicate collapses
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 2 * 2);
        assert_eq!(cells[0].coords, CellCoords(0, 0, 0, 0, 0, 0, 0, 0));
        assert_eq!(cells[1].coords, CellCoords(0, 0, 0, 0, 1, 0, 0, 0));
        assert_eq!(cells[2].population, 4);
    }

    #[test]
    fn cell_seeds_are_value_derived() {
        let spec = tiny_spec();
        let cells = spec.cells().unwrap();
        // Distinct searches get distinct seeds; capacity-only twins
        // share theirs (capacity is playback-only).
        for i in 0..cells.len() {
            for j in (i + 1)..cells.len() {
                if same_search(&cells[i], &cells[j]) {
                    assert_eq!(cells[i].seed, cells[j].seed, "twins {i} and {j}");
                    assert_ne!(
                        cells[i].queue_capacity, cells[j].queue_capacity,
                        "twin cells {i} and {j} must differ in capacity only"
                    );
                } else {
                    assert_ne!(cells[i].seed, cells[j].seed, "cells {i} and {j}");
                }
            }
        }
        // Growing an axis must not disturb existing cells' seeds.
        let mut wider = spec.clone();
        wider.populations.push(9);
        let wider_cells = wider.cells().unwrap();
        for cell in &cells {
            let twin = wider_cells
                .iter()
                .find(|c| {
                    c.population == cell.population && c.queue_capacity == cell.queue_capacity
                })
                .unwrap();
            assert_eq!(twin.seed, cell.seed);
        }
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        for (axis, mutate) in [
            (
                "populations",
                Box::new(|s: &mut SweepSpec| s.populations = vec![1])
                    as Box<dyn Fn(&mut SweepSpec)>,
            ),
            ("generations", Box::new(|s| s.generations = vec![0])),
            (
                "elite_fractions",
                Box::new(|s| s.elite_fractions = vec![1.5]),
            ),
            (
                "queue_capacities",
                Box::new(|s| s.queue_capacities = vec![]),
            ),
            (
                "task_mixes",
                Box::new(|s| {
                    s.task_mixes = vec![TaskMix::Custom {
                        networks: vec![],
                        delta_scale: 1.0,
                    }]
                }),
            ),
            ("runtime_window_ms", Box::new(|s| s.runtime_window_ms = 0)),
            (
                "runtime_window_ms",
                Box::new(|s| s.runtime_window_ms = u64::MAX / 1_000 + 1),
            ),
            // Over the caps: each would otherwise abort on allocation or
            // run for minutes.
            (
                "generations",
                Box::new(|s| s.generations = vec![2, 1_000_000_000_000]),
            ),
            (
                "mutation_layers",
                Box::new(|s| s.mutation_layers = vec![1_000_000_000]),
            ),
            (
                "runtime_window_ms",
                Box::new(|s| s.runtime_window_ms = u64::MAX / 1_000 - 1),
            ),
            (
                "runtime_window_ms",
                Box::new(|s| s.runtime_window_ms = MAX_RUNTIME_WINDOW_MS + 1),
            ),
            (
                "cells",
                Box::new(|s| s.populations = (2..MAX_CELLS + 3).collect()),
            ),
        ] {
            let mut spec = tiny_spec();
            mutate(&mut spec);
            assert!(spec.validate().is_err(), "{axis}");
            match spec.cells() {
                Err(EvEdgeError::InvalidSweepSpec { axis: got }) => {
                    assert_eq!(got, axis);
                }
                other => panic!("{axis}: expected InvalidSweepSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn sweep_runs_and_orders_reports_canonically() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 1).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.distinct_problems, 1);
        assert!(report.total_evaluations > 0);
        for (i, cell_report) in report.cells.iter().enumerate() {
            assert_eq!(
                cell_report.cell.coords,
                spec.cells().unwrap()[i].coords,
                "canonical order at {i}"
            );
            assert!(cell_report.best_score > 0.0);
            assert!(cell_report.trajectory.history.is_empty(), "history off");
        }
        let best = &report.cells[report.best_cell];
        assert!(best.feasible);
        assert!(report
            .cells
            .iter()
            .filter(|c| c.feasible)
            .all(|c| best.best_score <= c.best_score));
    }

    #[test]
    fn parallel_sweep_is_bitwise_identical_to_serial() {
        let spec = tiny_spec();
        let serial = run_sweep(&spec, 1).unwrap();
        let parallel = run_sweep(&spec, 4).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cell_reports_are_order_invariant() {
        let spec = tiny_spec();
        let cells = spec.cells().unwrap();
        let canonical = run_cells(&spec, &cells, 2).unwrap();
        let mut reversed = cells.clone();
        reversed.reverse();
        let mut from_reversed = run_cells(&spec, &reversed, 2).unwrap();
        from_reversed.reverse();
        assert_eq!(canonical, from_reversed);
    }

    #[test]
    fn random_algorithm_cells_run() {
        let mut spec = tiny_spec();
        spec.populations = vec![3];
        spec.queue_capacities = vec![1];
        spec.algorithms = vec![SearchAlgorithm::Evolutionary, SearchAlgorithm::Random];
        spec.keep_history = true;
        let report = run_sweep(&spec, 0).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell_report in &report.cells {
            assert_eq!(cell_report.trajectory.history.len(), 2);
        }
        // Random search's curve is best-so-far, hence monotone.
        let random = &report.cells[1];
        assert_eq!(random.cell.algorithm, SearchAlgorithm::Random);
        for pair in random.trajectory.history.windows(2) {
            assert!(pair[1].best_score <= pair[0].best_score);
        }
    }

    #[test]
    fn capacity_twins_share_one_search_but_not_their_playback() {
        let spec = tiny_spec();
        let report = run_sweep(&spec, 0).unwrap();
        // cells[0] and cells[1] differ only in queue capacity: same
        // seed, bitwise-identical search outcome (capacity is not a
        // search parameter — the memoized search runs once)...
        let (a, b) = (&report.cells[0], &report.cells[1]);
        assert_eq!(a.cell.queue_capacity, 1);
        assert_eq!(b.cell.queue_capacity, 2);
        assert!(same_search(&a.cell, &b.cell));
        assert_eq!(a.cell.seed, b.cell.seed);
        assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.trajectory, b.trajectory);
        // ...while each playback ran with its own capacity.
        assert_ne!(
            (a.runtime.completed, a.runtime.dropped),
            (b.runtime.completed, b.runtime.dropped),
            "capacity 1 vs 2 must change the overloaded playback"
        );
        // The totals count the shared search once: 4 cells, 2 searches.
        assert_eq!(report.distinct_searches, 2);
        let unique: usize = [&report.cells[0], &report.cells[2]]
            .iter()
            .map(|c| c.evaluations)
            .sum();
        assert_eq!(report.total_evaluations, unique);
    }

    #[test]
    fn task_mix_helpers_are_consistent() {
        assert_eq!(TaskMix::AllAnn.networks().len(), 2);
        assert_eq!(TaskMix::MixedSnnAnn.networks().len(), 4);
        let custom = TaskMix::Custom {
            networks: vec![NetworkId::Dotie],
            delta_scale: 0.5,
        };
        assert_eq!(custom.delta_scale(), 0.5);
        assert!(custom.name().contains("DOTIE"));
        assert_ne!(TaskMix::AllAnn.seed_words(), TaskMix::AllSnn.seed_words());
    }

    #[test]
    fn heterogeneous_mixes_parse_and_seed_distinctly() {
        assert_eq!(TaskMix::from_flag("gnn-heavy"), Some(TaskMix::GnnHeavy));
        assert_eq!(
            TaskMix::from_flag("corner-inference"),
            Some(TaskMix::CornerPlusInference)
        );
        assert_eq!(TaskMix::from_flag("mixed"), Some(TaskMix::MixedSnnAnn));
        assert_eq!(TaskMix::from_flag("no-such-mix"), None);
        let mixes = [
            TaskMix::AllAnn,
            TaskMix::AllSnn,
            TaskMix::MixedSnnAnn,
            TaskMix::GnnHeavy,
            TaskMix::CornerPlusInference,
        ];
        for i in 0..mixes.len() {
            for j in (i + 1)..mixes.len() {
                assert_ne!(mixes[i].seed_words(), mixes[j].seed_words());
            }
        }
        assert!(TaskMix::GnnHeavy.networks().contains(&NetworkId::GraphNet));
        let corner = TaskMix::CornerPlusInference.networks();
        assert!(corner.contains(&NetworkId::CornerNet));
        assert!(corner.contains(&NetworkId::GraphNet));
    }

    #[test]
    fn heterogeneous_problems_carry_density_schedules() {
        let zoo = ZooConfig::small();
        let problem = TaskMix::CornerPlusInference
            .build_problem(PlatformPreset::ComposableDataflow.build(), &zoo)
            .unwrap();
        assert_eq!(problem.tasks().len(), 3);
        // GraphNet (task 1) carries its measured schedule; the others
        // profile with domain defaults.
        assert!(problem.tasks()[0].densities.is_none());
        let densities = problem.tasks()[1].densities.as_ref().unwrap();
        assert_eq!(densities.len(), problem.tasks()[1].graph.len());
        assert!(problem.tasks()[2].densities.is_none());
        // Custom mixes built through the shared helper agree.
        let custom = TaskMix::Custom {
            networks: vec![NetworkId::GraphNet],
            delta_scale: 1.0,
        }
        .build_problem(Platform::xavier_agx(), &zoo)
        .unwrap();
        assert_eq!(
            custom.tasks()[0].densities,
            problem.tasks()[1].densities,
            "the same schedule must flow through every construction path"
        );
    }

    #[test]
    fn densities_change_the_recorded_costs() {
        let zoo = ZooConfig::small();
        let platform = Platform::xavier_agx();
        let with = task_spec_for(NetworkId::GraphNet, &zoo, 1.0).unwrap();
        let mut without = with.clone();
        without.densities = None;
        let p_with = MultiTaskProblem::new(platform.clone(), vec![with]).unwrap();
        let p_without = MultiTaskProblem::new(platform, vec![without]).unwrap();
        assert_ne!(
            format!("{:?}", p_with.profile(0)),
            format!("{:?}", p_without.profile(0)),
            "the density schedule must actually reach the cost tables"
        );
    }

    #[test]
    fn gnn_mix_sweeps_on_the_dataflow_preset() {
        let mut spec = tiny_spec();
        spec.populations = vec![3];
        spec.queue_capacities = vec![2];
        spec.task_mixes = vec![TaskMix::GnnHeavy];
        spec.platforms = vec![PlatformPreset::ComposableDataflow];
        let report = run_sweep(&spec, 1).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0].best_score > 0.0);
        assert!(report.cells[0].runtime.completed > 0);
    }
}
