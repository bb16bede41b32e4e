//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§6). Binaries print these; integration tests assert their
//! qualitative shape.

use ev_core::event::SensorGeometry;
use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
use ev_core::stats::{burstiness, temporal_density};
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_datasets::mvsec::SequenceId;
use ev_datasets::representation::representation_for;
use ev_edge::e2sf::FrameRepresentation;
use ev_edge::nmp::baseline;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator};
use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
use ev_edge::nmp::sweep::{
    run_sweep, PlatformPreset, SearchAlgorithm, SweepReport, SweepSpec, TaskMix, ZooPreset,
};
use ev_edge::nmp::tune::{AutoTuner, TuneObjective, TuneReport};
use ev_edge::pipeline::{run_single_task, PipelineOptions, PipelineSetup, PipelineVariant};
use ev_edge::{E2sf, E2sfConfig};
use ev_nn::forward::{Activation, Executor};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::latency::sparsity_work_factor;
use ev_platform::pe::Platform;
use serde::Serialize;
use std::error::Error;

/// The dataset sequence each network is evaluated on (paper §5: optical
/// flow / segmentation / tracking on MVSEC, depth on DENSE Town 10).
pub fn sequence_for(network: NetworkId) -> SequenceId {
    match network {
        NetworkId::SpikeFlowNet
        | NetworkId::FusionFlowNet
        | NetworkId::AdaptiveSpikeNet
        | NetworkId::EvFlowNet => SequenceId::IndoorFlying1,
        NetworkId::Halsie => SequenceId::OutdoorDay1,
        NetworkId::E2Depth => SequenceId::DenseTown10,
        NetworkId::Dotie | NetworkId::GraphNet => SequenceId::IndoorFlying2,
        NetworkId::CornerNet => SequenceId::OutdoorDay1,
    }
}

/// The ΔA threshold per network (the paper's Table 2 deltas).
pub fn delta_a_for(network: NetworkId) -> f64 {
    network.delta_a()
}

fn analysis_window(quick: bool) -> TimeWindow {
    let ms = if quick { 100 } else { 250 };
    TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(ms))
}

/// The hard-coded per-figure NMP search configuration (what a `--tuned`
/// replay substitutes for). Public so conformance tests can drive the
/// figure experiments with explicit configurations.
pub fn default_nmp_config(quick: bool) -> NmpConfig {
    if quick {
        NmpConfig {
            population: 16,
            generations: 10,
            ..NmpConfig::default()
        }
    } else {
        NmpConfig {
            population: 32,
            generations: 30,
            ..NmpConfig::default()
        }
    }
}

fn nmp_config(quick: bool) -> NmpConfig {
    default_nmp_config(quick)
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// One temporal-resolution point of Figure 1.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Row {
    /// Event bins per frame interval (`nB`).
    pub bins: usize,
    /// Mean % of pixels with events per frame.
    pub mean_fill_pct: f64,
    /// Modeled MACs actually needed per inference (sparsity-aware), in
    /// millions.
    pub actual_mmacs: f64,
    /// Dense MACs a fixed-size implementation performs, in millions.
    pub dense_mmacs: f64,
    /// % of dense operations wasted on zeros.
    pub wasted_pct: f64,
}

/// Figure 1 companion: *measured* effectual work from real sparse
/// execution at reduced scale.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Measured {
    /// Real MACs executed by the sparse kernels.
    pub measured_macs: u64,
    /// MACs the dense equivalent performs.
    pub dense_macs: u64,
    /// Measured effectual fraction.
    pub effectual_fraction: f64,
}

/// Figure 1 result: event sparsity vs operations for Adaptive-SpikeNet on
/// `indoor_flying1`.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Result {
    /// Modeled rows over the `nB` sweep (MVSEC scale).
    pub rows: Vec<Fig1Row>,
    /// Ground measurement from real kernels (reduced scale).
    pub measured: Fig1Measured,
}

/// Regenerates Figure 1.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn figure1(quick: bool) -> Result<Fig1Result, Box<dyn Error>> {
    let network = NetworkId::AdaptiveSpikeNet;
    let seq = sequence_for(network).sequence();
    let window = analysis_window(quick);
    let events = seq.generate(window)?;
    let intervals = seq.frame_intervals(window);

    // Modeled sweep at MVSEC scale.
    let graph = network.build(&ZooConfig::mvsec())?;
    let workloads = graph.workloads();
    let dense_macs_total: u64 = workloads.iter().map(|w| w.macs).sum();
    let mut rows = Vec::new();
    for bins in [1usize, 2, 4, 8, 16, 32] {
        let frames = E2sf::new(E2sfConfig::new(bins)).convert_intervals(&events, &intervals)?;
        let mean_fill =
            frames.iter().map(|f| f.spatial_density()).sum::<f64>() / frames.len().max(1) as f64;
        // Sparsity-aware work: input layer scales with frame fill, deeper
        // spiking layers with their spike density (ideal sparse hardware).
        let mut actual = 0.0f64;
        for (i, w) in workloads.iter().enumerate() {
            let density = if i == 0 { mean_fill } else { 0.08 };
            actual += w.macs as f64 * sparsity_work_factor(1.0, density);
        }
        rows.push(Fig1Row {
            bins,
            mean_fill_pct: mean_fill * 100.0,
            actual_mmacs: actual / 1e6,
            dense_mmacs: dense_macs_total as f64 / 1e6,
            wasted_pct: 100.0 * (1.0 - actual / dense_macs_total as f64),
        });
    }

    // Measured at reduced scale: real sparse kernels on real frames.
    let zoo = ZooConfig::small();
    let geometry = SensorGeometry::new(zoo.width as u32, zoo.height as u32);
    let mut generator = StatisticalGenerator::new(
        geometry,
        RateProfile::Constant(80_000.0),
        SpatialModel::Blobs {
            count: 4,
            sigma: 3.0,
            drift: 50.0,
        },
        7,
    );
    let small_window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(40));
    let small_events = generator.generate(small_window)?;
    let frames = E2sf::new(E2sfConfig::new(4)).convert(&small_events, small_window)?;
    let mut executor = Executor::new(network.build(&zoo)?, 11);
    let mut measured = 0u64;
    let mut dense = 0u64;
    for frame in &frames {
        let result = executor.run(&Activation::Sparse(frame.tensor().clone()))?;
        measured += result.total_actual().macs;
        dense += result.total_dense_equivalent().macs;
    }
    Ok(Fig1Result {
        rows,
        measured: Fig1Measured {
            measured_macs: measured,
            dense_macs: dense,
            effectual_fraction: measured as f64 / dense.max(1) as f64,
        },
    })
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// One input-representation scheme of Figure 2.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    /// Scheme name (`full-accumulation`, `counts+timestamps`,
    /// `discretized`, `sequential`).
    pub scheme: String,
    /// Synchronous frames (or timesteps) the interval becomes.
    pub frames: usize,
    /// Channels per frame.
    pub channels: usize,
    /// Total nonzero cells across the frames.
    pub nonzeros: u64,
    /// Mean % of pixels with events per frame.
    pub mean_fill_pct: f64,
}

/// Figure 2 result: the §2 representation schemes applied to one event
/// stream.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Result {
    /// The converted interval, in milliseconds.
    pub interval_ms: f64,
    /// Events in the interval.
    pub events: u64,
    /// One row per representation scheme.
    pub rows: Vec<Fig2Row>,
}

/// Regenerates Figure 2: full accumulation, count+timestamp surfaces,
/// discretized bins, and sequential timestep presentation of the same
/// stream. The workload is interval-bounded and cheap, so the quick and
/// full budgets coincide.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn figure2() -> Result<Fig2Result, Box<dyn Error>> {
    let geometry = SensorGeometry::DAVIS346;
    let mut generator = StatisticalGenerator::new(
        geometry,
        RateProfile::Constant(300_000.0),
        SpatialModel::Blobs {
            count: 8,
            sigma: 10.0,
            drift: 60.0,
        },
        5,
    );
    let interval = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(20));
    let events = generator.generate(interval)?;

    let summarize = |scheme: &str, frames: &[ev_edge::SparseFrame]| Fig2Row {
        scheme: scheme.to_string(),
        frames: frames.len(),
        channels: frames.first().map_or(0, |f| f.tensor().channels()),
        nonzeros: frames.iter().map(|f| f.nnz() as u64).sum(),
        mean_fill_pct: 100.0 * frames.iter().map(|f| f.spatial_density()).sum::<f64>()
            / frames.len().max(1) as f64,
    };

    // (a) Full accumulation between consecutive image frames.
    let full = E2sf::new(E2sfConfig::new(1)).convert(&events, interval)?;
    // (b) Counts + most-recent timestamps (EV-FlowNet-style, ref [4]).
    let surfaces =
        E2sf::new(E2sfConfig::new(1).with_representation(FrameRepresentation::CountsAndTimestamps))
            .convert(&events, interval)?;
    // (c) Discretization into uniformly separated bins (refs [7, 11]).
    let bins = E2sf::new(E2sfConfig::new(8)).convert(&events, interval)?;
    // (d) Sequential presentation: B bins over B/k timesteps of k
    // concatenated frames each (SNN inputs) — same cells, regrouped.
    let k = 2usize;
    let sequential = Fig2Row {
        scheme: "sequential".to_string(),
        frames: bins.len() / k,
        channels: bins.first().map_or(0, |f| f.tensor().channels()) * k,
        nonzeros: bins.iter().map(|f| f.nnz() as u64).sum(),
        mean_fill_pct: 100.0 * bins.iter().map(|f| f.spatial_density()).sum::<f64>()
            / bins.len().max(1) as f64,
    };

    Ok(Fig2Result {
        interval_ms: interval.duration().as_millis_f64(),
        events: events.len() as u64,
        rows: vec![
            summarize("full-accumulation", &full),
            summarize("counts+timestamps", &surfaces),
            summarize("discretized", &bins),
            sequential,
        ],
    })
}

// ---------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------

/// One network's event-frame fill ratio (Figure 3).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Network name.
    pub network: String,
    /// Its input representation (`nB`).
    pub bins_per_interval: usize,
    /// Mean % of pixels with events per event frame.
    pub mean_fill_pct: f64,
}

/// Regenerates Figure 3: average event-frame density per network. The
/// paper reports a 0.15%–28.57% spread.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn figure3(quick: bool) -> Result<Vec<Fig3Row>, Box<dyn Error>> {
    let window = analysis_window(quick);
    let mut rows = Vec::new();
    let mut networks = NetworkId::TABLE1.to_vec();
    networks.push(NetworkId::EvFlowNet);
    for network in networks {
        let seq = sequence_for(network).sequence();
        let events = seq.generate(window)?;
        let rep = representation_for(network);
        // EV-FlowNet-style representations accumulate several grayscale
        // intervals into one input window.
        let intervals: Vec<TimeWindow> = seq
            .frame_intervals(window)
            .chunks(rep.intervals_accumulated)
            .map(|chunk| {
                TimeWindow::new(
                    chunk.first().expect("nonempty chunk").start(),
                    chunk.last().expect("nonempty chunk").end(),
                )
            })
            .collect();
        let frames = E2sf::new(E2sfConfig::new(rep.bins_per_interval))
            .convert_intervals(&events, &intervals)?;
        let mean_fill =
            frames.iter().map(|f| f.spatial_density()).sum::<f64>() / frames.len().max(1) as f64;
        rows.push(Fig3Row {
            network: network.name().to_string(),
            bins_per_interval: rep.bins_per_interval,
            mean_fill_pct: mean_fill * 100.0,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// One temporal-density bin of Figure 5.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Bin {
    /// Bin start, milliseconds.
    pub t_ms: f64,
    /// Event rate over the bin, events/second.
    pub rate: f64,
}

/// Figure 5 result: temporal event density of `indoor_flying2`.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Result {
    /// The density series.
    pub bins: Vec<Fig5Bin>,
    /// Peak-to-mean rate ratio.
    pub burstiness: f64,
}

/// Regenerates Figure 5.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn figure5(quick: bool) -> Result<Fig5Result, Box<dyn Error>> {
    let window = if quick {
        TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(400))
    } else {
        TimeWindow::new(Timestamp::ZERO, Timestamp::from_secs(2))
    };
    let seq = SequenceId::IndoorFlying2.sequence();
    let events = seq.generate(window)?;
    let density = temporal_density(&events, window, TimeDelta::from_millis(10));
    let b = burstiness(&density);
    Ok(Fig5Result {
        bins: density
            .iter()
            .map(|d| Fig5Bin {
                t_ms: d.start.as_millis_f64(),
                rate: d.rate,
            })
            .collect(),
        burstiness: b,
    })
}

// ---------------------------------------------------------------------
// Figure 8 (+ Table 2)
// ---------------------------------------------------------------------

/// One network's single-task results (Figure 8 bar group + Table 2 row).
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    /// Network name.
    pub network: String,
    /// Dense all-GPU makespan, ms.
    pub baseline_ms: f64,
    /// +E2SF makespan, ms.
    pub e2sf_ms: f64,
    /// +E2SF+DSFA makespan, ms.
    pub dsfa_ms: f64,
    /// +E2SF+DSFA+NMP makespan, ms.
    pub nmp_ms: f64,
    /// Speedup after E2SF.
    pub speedup_e2sf: f64,
    /// Cumulative speedup after DSFA.
    pub speedup_dsfa: f64,
    /// Cumulative speedup after NMP (the Figure 8 headline).
    pub speedup_nmp: f64,
    /// Baseline energy / Ev-Edge energy.
    pub energy_ratio: f64,
    /// Metric at full precision (Table 2 "Baseline").
    pub metric_baseline: f64,
    /// Metric under Ev-Edge (Table 2 "Ev-Edge").
    pub metric_evedge: f64,
    /// Metric unit/direction label.
    pub metric_name: String,
}

/// Regenerates Figure 8 (single-task speedups) and the data behind
/// Table 2, using the hard-coded per-figure search configuration.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn figure8(quick: bool) -> Result<Vec<Fig8Row>, Box<dyn Error>> {
    figure8_with(quick, nmp_config(quick))
}

/// Figure 8 with an explicit NMP search configuration — the `--tuned`
/// replay path: the configuration an [`AutoTuner`] selected stands in
/// for the hard-coded one, everything else unchanged.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn figure8_with(quick: bool, nmp: NmpConfig) -> Result<Vec<Fig8Row>, Box<dyn Error>> {
    let mut rows = Vec::new();
    for network in NetworkId::TABLE1 {
        let setup = PipelineSetup {
            platform: Platform::xavier_agx(),
            network,
            zoo: ZooConfig::mvsec(),
            sequence: sequence_for(network).sequence(),
            window: analysis_window(quick),
        };
        let mut reports = Vec::new();
        for variant in PipelineVariant::FIGURE8 {
            let mut options = PipelineOptions::for_variant(variant, network);
            options.nmp = nmp;
            reports.push(run_single_task(&setup, &options)?);
        }
        let baseline = &reports[0];
        let e2sf = &reports[1];
        let dsfa = &reports[2];
        let nmp = &reports[3];
        let ms = |r: &ev_edge::PipelineReport| r.makespan.as_secs_f64() * 1e3;
        let accuracy = network.accuracy_model();
        rows.push(Fig8Row {
            network: network.name().to_string(),
            baseline_ms: ms(baseline),
            e2sf_ms: ms(e2sf),
            dsfa_ms: ms(dsfa),
            nmp_ms: ms(nmp),
            speedup_e2sf: ms(baseline) / ms(e2sf),
            speedup_dsfa: ms(baseline) / ms(dsfa),
            speedup_nmp: ms(baseline) / ms(nmp),
            energy_ratio: baseline.energy.ratio(nmp.energy),
            metric_baseline: accuracy.baseline(),
            metric_evedge: nmp.metric,
            metric_name: accuracy.metric().to_string(),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------

/// The multi-task configurations of §5.
pub fn multitask_configs() -> Vec<(&'static str, Vec<NetworkId>)> {
    vec![
        ("all-ANN", vec![NetworkId::EvFlowNet, NetworkId::E2Depth]),
        (
            "all-SNN",
            vec![NetworkId::Dotie, NetworkId::AdaptiveSpikeNet],
        ),
        (
            "mixed SNN-ANN",
            vec![
                NetworkId::FusionFlowNet,
                NetworkId::Halsie,
                NetworkId::Dotie,
                NetworkId::E2Depth,
            ],
        ),
    ]
}

/// Builds the mapping problem for a multi-task configuration.
///
/// # Errors
///
/// Propagates graph/profile construction errors.
pub fn build_problem(networks: &[NetworkId]) -> Result<MultiTaskProblem, Box<dyn Error>> {
    let zoo = ZooConfig::mvsec();
    // The shared task constructor attaches the measured density schedule
    // of data-dependent networks (GraphNet), so the recorded cost tables
    // price them identically everywhere.
    let tasks = networks
        .iter()
        .map(|&n| ev_edge::nmp::task_spec_for(n, &zoo, 1.0))
        .collect::<Result<Vec<_>, ev_nn::NnError>>()?;
    Ok(MultiTaskProblem::new(Platform::xavier_agx(), tasks)?)
}

/// One multi-task configuration's results (Figure 9 bar group).
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Row {
    /// Configuration name.
    pub config: String,
    /// RR-Network latency, ms.
    pub rr_network_ms: f64,
    /// RR-Layer latency, ms.
    pub rr_layer_ms: f64,
    /// Ev-Edge-NMP latency, ms.
    pub nmp_ms: f64,
    /// Ev-Edge-NMP-FP latency, ms.
    pub nmp_fp_ms: f64,
    /// NMP speedup over RR-Network (paper: 1.43×–1.81×).
    pub speedup_vs_rr_network: f64,
    /// NMP speedup over RR-Layer (paper: 1.24×–1.41×).
    pub speedup_vs_rr_layer: f64,
    /// NMP-FP slowdown vs NMP (paper: 1.05×–1.22×).
    pub fp_slowdown: f64,
}

/// Regenerates Figure 9 (multi-task latency comparisons), using the
/// hard-coded per-figure search configuration.
///
/// # Errors
///
/// Propagates search errors.
pub fn figure9(quick: bool) -> Result<Vec<Fig9Row>, Box<dyn Error>> {
    figure9_with(nmp_config(quick))
}

/// Figure 9 with an explicit NMP search configuration (the `--tuned`
/// replay path); the NMP-FP bar runs the same configuration restricted
/// to full precision. The search budget lives entirely in `config`, so
/// there is no quick/full switch here.
///
/// # Errors
///
/// Propagates search errors.
pub fn figure9_with(config: NmpConfig) -> Result<Vec<Fig9Row>, Box<dyn Error>> {
    Ok(figure9_detail(config, None, None)?.0)
}

/// A Figure 9 result set: the table rows plus the optional runtime
/// playback rows (present when a playback was requested).
pub type Fig9Detail = (Vec<Fig9Row>, Option<Vec<Fig9PlaybackRow>>);

/// Figure 9 in full generality (the `fig9_multi_task` binary): the
/// paper's three configurations, or only `mix` (the `--mix` flag; the
/// heterogeneous mixes `gnn-heavy` and `corner-inference` route their
/// data-dependent density schedules into the cost tables via the shared
/// task constructor). `playback` is `Some(quick)` to also play each
/// configuration's NMP winner forward through the multi-task runtime
/// (the `--playback` flag) over the quick or full window; the searches
/// run once and feed both the table and the playback.
///
/// # Errors
///
/// Propagates search and simulation errors.
pub fn figure9_detail(
    config: NmpConfig,
    playback: Option<bool>,
    mix: Option<&TaskMix>,
) -> Result<Fig9Detail, Box<dyn Error>> {
    use ev_edge::multipipe::{run_multi_task_runtime, MultiTaskRuntimeConfig};

    let configs: Vec<(String, Vec<NetworkId>)> = match mix {
        Some(mix) => vec![(mix.name(), mix.networks())],
        None => multitask_configs()
            .into_iter()
            .map(|(name, networks)| (name.to_string(), networks))
            .collect(),
    };
    let mut rows = Vec::new();
    let mut playback_rows = playback.map(|_| Vec::new());
    for (name, networks) in configs {
        let problem = build_problem(&networks)?;
        let mut evaluator = FitnessEvaluator::new(&problem, FitnessConfig::default());
        let rr_net = evaluator.evaluate(&baseline::rr_network(&problem))?;
        let rr_layer = evaluator.evaluate(&baseline::rr_layer(&problem))?;
        let nmp = run_nmp(&problem, config, FitnessConfig::default())?;
        let fp = run_nmp(
            &problem,
            NmpConfig {
                fp_only: true,
                ..config
            },
            FitnessConfig::default(),
        )?;
        let ms = |d: TimeDelta| d.as_secs_f64() * 1e3;
        if let (Some(out), Some(quick)) = (playback_rows.as_mut(), playback) {
            // Arrival periods: the sweep engine's near-saturation rule
            // over the RR-Network baseline, so mapping quality shows as
            // drops and latency.
            let periods = ev_edge::nmp::sweep::near_saturation_periods(&rr_net);
            let runtime_config = MultiTaskRuntimeConfig {
                window: TimeWindow::new(
                    Timestamp::ZERO,
                    Timestamp::from_millis(if quick { 20 } else { 50 }),
                ),
                queue_capacity: 2,
            };
            let played = run_multi_task_runtime(&problem, &nmp.best, &periods, runtime_config)?;
            let mean_utilization =
                played.utilization.iter().sum::<f64>() / played.utilization.len().max(1) as f64;
            out.push(Fig9PlaybackRow {
                config: name.to_string(),
                completed: played.per_task.iter().map(|t| t.completed).sum(),
                dropped: played.total_dropped(),
                worst_mean_latency_ms: played.worst_mean_latency().as_secs_f64() * 1e3,
                mean_utilization,
            });
        }
        rows.push(Fig9Row {
            config: name.to_string(),
            rr_network_ms: ms(rr_net.max_latency),
            rr_layer_ms: ms(rr_layer.max_latency),
            nmp_ms: ms(nmp.report.max_latency),
            nmp_fp_ms: ms(fp.report.max_latency),
            speedup_vs_rr_network: ms(rr_net.max_latency) / ms(nmp.report.max_latency),
            speedup_vs_rr_layer: ms(rr_layer.max_latency) / ms(nmp.report.max_latency),
            fp_slowdown: ms(fp.report.max_latency) / ms(nmp.report.max_latency),
        });
    }
    Ok((rows, playback_rows))
}

/// One configuration's runtime playback behind the Figure 9 table: the
/// NMP winner played forward in simulated time under periodic
/// near-saturation arrivals (the `fig9_multi_task --playback` view).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig9PlaybackRow {
    /// Configuration name.
    pub config: String,
    /// Inferences completed over the playback window.
    pub completed: u64,
    /// Inputs dropped by the bounded inference queues (§4.2).
    pub dropped: u64,
    /// Worst per-task mean latency, ms.
    pub worst_mean_latency_ms: f64,
    /// Mean processing-element utilization.
    pub mean_utilization: f64,
}

/// Renders Figure 9 playback rows as an aligned text table.
pub fn fig9_playback_table(rows: &[Fig9PlaybackRow]) -> crate::report::TextTable {
    let mut table = crate::report::TextTable::new([
        "config",
        "completed",
        "dropped",
        "worst mean ms",
        "mean util",
    ]);
    for row in rows {
        table.row([
            row.config.clone(),
            row.completed.to_string(),
            row.dropped.to_string(),
            format!("{:.2}", row.worst_mean_latency_ms),
            format!("{:.2}", row.mean_utilization),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------

/// One generation point of a search-convergence curve.
#[derive(Debug, Clone, Serialize)]
pub struct GenPoint {
    /// Generation index.
    pub generation: usize,
    /// Best fitness score in the generation.
    pub best_score: f64,
    /// Mean fitness score across the population.
    pub mean_score: f64,
}

/// Figure 10 result: NMP convergence (a) and NMP vs random search (b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Result {
    /// Evolutionary-search history.
    pub nmp_history: Vec<GenPoint>,
    /// Random-search best-so-far history.
    pub random_history: Vec<GenPoint>,
    /// NMP best mapping latency, ms.
    pub nmp_best_ms: f64,
    /// Random-search best mapping latency, ms.
    pub random_best_ms: f64,
    /// `random / nmp` latency ratio (paper: 1.42×).
    pub improvement_over_random: f64,
}

/// The 1×1-grid sweep behind Figure 10: one evolutionary cell and one
/// random-search cell on the mixed SNN-ANN configuration.
fn figure10_spec(quick: bool) -> SweepSpec {
    let config = nmp_config(quick);
    SweepSpec {
        base_seed: config.seed,
        populations: vec![config.population],
        generations: vec![config.generations],
        mutation_layers: vec![config.mutation_layers],
        elite_fractions: vec![config.elite_fraction],
        queue_capacities: vec![2],
        platforms: vec![PlatformPreset::XavierAgx],
        task_mixes: vec![TaskMix::MixedSnnAnn],
        algorithms: vec![SearchAlgorithm::Evolutionary, SearchAlgorithm::Random],
        zoo: ZooPreset::Mvsec,
        runtime_window_ms: if quick { 20 } else { 50 },
        keep_history: true,
    }
}

/// Regenerates Figure 10 on the mixed SNN-ANN configuration, entirely
/// via the [`ev_edge::nmp::sweep`] engine (a 2-cell sweep over the
/// algorithm axis).
///
/// # Errors
///
/// Propagates search errors.
pub fn figure10(quick: bool) -> Result<Fig10Result, Box<dyn Error>> {
    let report = run_sweep(&figure10_spec(quick), 0)?;
    let by_algorithm = |algorithm: SearchAlgorithm| {
        report
            .cells
            .iter()
            .find(|c| c.cell.algorithm == algorithm)
            .expect("both algorithm cells swept")
    };
    let nmp = by_algorithm(SearchAlgorithm::Evolutionary);
    let random = by_algorithm(SearchAlgorithm::Random);
    let to_points = |history: &[ev_edge::nmp::sweep::TrajectoryPoint]| {
        history
            .iter()
            .map(|g| GenPoint {
                generation: g.generation,
                best_score: g.best_score,
                mean_score: g.mean_score,
            })
            .collect::<Vec<_>>()
    };
    Ok(Fig10Result {
        nmp_history: to_points(&nmp.trajectory.history),
        random_history: to_points(&random.trajectory.history),
        nmp_best_ms: nmp.best_latency_ms,
        random_best_ms: random.best_latency_ms,
        improvement_over_random: random.best_latency_ms / nmp.best_latency_ms,
    })
}

// ---------------------------------------------------------------------
// Configuration-sweep grids (Figure 10 ablation subsystem)
// ---------------------------------------------------------------------

/// The default configuration-sweep grid of `ext_sweep_grid` and the
/// golden-report tests. Quick mode is a 24-cell (3×2×2×2) grid over
/// population × generations × mutation strength × queue capacity on a
/// reduced-scale custom SNN mix; full mode ablates platform class and
/// workload mix at MVSEC scale.
pub fn sweep_grid_spec(quick: bool) -> SweepSpec {
    if quick {
        SweepSpec {
            base_seed: 0xF1610,
            populations: vec![4, 8, 12],
            generations: vec![4, 8],
            mutation_layers: vec![1, 2],
            elite_fractions: vec![0.25],
            queue_capacities: vec![1, 4],
            platforms: vec![PlatformPreset::XavierAgx],
            task_mixes: vec![TaskMix::Custom {
                networks: vec![NetworkId::Dotie, NetworkId::AdaptiveSpikeNet],
                delta_scale: 1.5,
            }],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Small,
            runtime_window_ms: 10,
            keep_history: false,
        }
    } else {
        SweepSpec {
            base_seed: 0xF1610,
            populations: vec![16, 32],
            generations: vec![10, 30],
            mutation_layers: vec![1, 2, 6],
            elite_fractions: vec![0.1, 0.25],
            queue_capacities: vec![2],
            platforms: vec![
                PlatformPreset::XavierAgx,
                PlatformPreset::OrinLike,
                PlatformPreset::NanoLike,
            ],
            task_mixes: vec![TaskMix::AllSnn, TaskMix::MixedSnnAnn],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Mvsec,
            runtime_window_ms: 40,
            keep_history: false,
        }
    }
}

/// Runs the default configuration-sweep grid (`0` workers = machine
/// parallelism).
///
/// # Errors
///
/// Propagates sweep errors.
pub fn sweep_grid(quick: bool, workers: usize) -> Result<SweepReport, Box<dyn Error>> {
    Ok(run_sweep(&sweep_grid_spec(quick), workers)?)
}

/// The heterogeneous configuration-sweep grid (`ext_sweep_grid
/// --hetero`): the GNN-heavy and corner+inference mixes — every cell
/// holds at least one data-dependent GraphNet task and the
/// corner+inference cells add the always-on frontend — crossed with the
/// GPU-class and composable-dataflow platform presets. Quick mode is an
/// 8-cell (2×2×2) grid at reduced scale; full mode widens the search
/// axes at MVSEC scale.
pub fn sweep_grid_hetero_spec(quick: bool) -> SweepSpec {
    if quick {
        SweepSpec {
            base_seed: 0x6E7E60, // "hetero"
            populations: vec![4, 8],
            generations: vec![4],
            mutation_layers: vec![1],
            elite_fractions: vec![0.25],
            queue_capacities: vec![2],
            platforms: vec![
                PlatformPreset::XavierAgx,
                PlatformPreset::ComposableDataflow,
            ],
            task_mixes: vec![TaskMix::GnnHeavy, TaskMix::CornerPlusInference],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Small,
            runtime_window_ms: 8,
            keep_history: false,
        }
    } else {
        SweepSpec {
            base_seed: 0x6E7E60,
            populations: vec![8, 16],
            generations: vec![8, 16],
            mutation_layers: vec![1, 2],
            elite_fractions: vec![0.25],
            queue_capacities: vec![2],
            platforms: vec![
                PlatformPreset::XavierAgx,
                PlatformPreset::ComposableDataflow,
            ],
            task_mixes: vec![TaskMix::GnnHeavy, TaskMix::CornerPlusInference],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Mvsec,
            runtime_window_ms: 40,
            keep_history: false,
        }
    }
}

/// Renders a sweep's per-cell results as an aligned text table (shared
/// by the `fig10_search --grid` and `ext_sweep_grid` binaries).
pub fn sweep_cells_table(report: &SweepReport) -> crate::report::TextTable {
    let mut table = crate::report::TextTable::new([
        "cell", "alg", "platform", "mix", "pop", "gens", "mut", "elite", "cap", "score", "best ms",
        "feas", "evals", "drop", "util",
    ]);
    for (i, c) in report.cells.iter().enumerate() {
        let marker = if i == report.best_cell { "*" } else { "" };
        table.row([
            format!("{i}{marker}"),
            c.cell.algorithm.name().to_string(),
            c.cell.platform.name().to_string(),
            c.cell.task_mix.name(),
            c.cell.population.to_string(),
            c.cell.generations.to_string(),
            c.cell.mutation_layers.to_string(),
            format!("{:.2}", c.cell.elite_fraction),
            c.cell.queue_capacity.to_string(),
            format!("{:.5}", c.best_score),
            format!("{:.2}", c.best_latency_ms),
            if c.feasible { "yes" } else { "NO" }.to_string(),
            c.evaluations.to_string(),
            c.runtime.dropped.to_string(),
            format!("{:.2}", c.runtime.mean_utilization),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Auto-tuning (sweep → tune → Fig. 8/9 replay)
// ---------------------------------------------------------------------

/// The default auto-tuning sweep of `ext_autotune`: the grid the tuner
/// searches before selecting one operating point per (platform,
/// task-mix) pair. Quick mode crosses population × mutation strength ×
/// algorithm on two platform classes at reduced scale (16 cells); full
/// mode ablates budget, mutation and elitism across all three platform
/// classes and the paper's three workload mixes at MVSEC scale.
pub fn autotune_spec(quick: bool) -> SweepSpec {
    if quick {
        SweepSpec {
            base_seed: 0x7E4E, // "TUNE"
            // Straddle the hard-coded quick default (16 × 10) so the
            // tuner can do no worse than the default's own budget.
            populations: vec![8, 16],
            generations: vec![10],
            mutation_layers: vec![1, 2],
            elite_fractions: vec![0.25],
            queue_capacities: vec![2],
            platforms: vec![PlatformPreset::XavierAgx, PlatformPreset::NanoLike],
            task_mixes: vec![TaskMix::AllSnn],
            algorithms: vec![SearchAlgorithm::Evolutionary, SearchAlgorithm::Random],
            zoo: ZooPreset::Small,
            runtime_window_ms: 8,
            keep_history: false,
        }
    } else {
        SweepSpec {
            base_seed: 0x7E4E,
            populations: vec![16, 32],
            generations: vec![10, 30],
            mutation_layers: vec![1, 2],
            elite_fractions: vec![0.25],
            queue_capacities: vec![2],
            platforms: vec![
                PlatformPreset::XavierAgx,
                PlatformPreset::OrinLike,
                PlatformPreset::NanoLike,
            ],
            task_mixes: vec![
                TaskMix::AllAnn,
                TaskMix::AllSnn,
                TaskMix::MixedSnnAnn,
                TaskMix::GnnHeavy,
                TaskMix::CornerPlusInference,
            ],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: ZooPreset::Mvsec,
            runtime_window_ms: 40,
            keep_history: false,
        }
    }
}

/// Runs the default auto-tuning sweep and selects operating points
/// under `objective` (`0` workers = machine parallelism). The report is
/// bitwise identical for any worker count.
///
/// # Errors
///
/// Propagates sweep/tuning errors.
pub fn autotune(
    quick: bool,
    workers: usize,
    objective: TuneObjective,
) -> Result<TuneReport, Box<dyn Error>> {
    Ok(AutoTuner::new(objective).tune_spec(&autotune_spec(quick), workers)?)
}

/// Reads a JSON artifact, naming the path in I/O and parse errors.
fn load_json<T: serde::de::DeserializeOwned>(path: &std::path::Path) -> Result<T, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

/// Reads a [`TuneReport`] JSON artifact (as written by `ext_autotune
/// --json`).
///
/// # Errors
///
/// Returns I/O and parse errors naming the path.
pub fn load_tune_report(path: &std::path::Path) -> Result<TuneReport, Box<dyn Error>> {
    load_json(path)
}

/// Reads a [`SweepSpec`] JSON file (a sweep report's `"spec"` field
/// works) — the shared `--spec` loader of `ext_sweep_grid` and
/// `ext_autotune`.
///
/// # Errors
///
/// Returns I/O and parse errors naming the path.
pub fn load_sweep_spec(path: &std::path::Path) -> Result<SweepSpec, Box<dyn Error>> {
    load_json(path)
}

/// The search configuration a tune report selected for a platform —
/// what the `--tuned` figure replays run in place of their hard-coded
/// [`NmpConfig`]. Restricted to *evolutionary* winners (the figure
/// binaries always run the evolutionary NMP search, so a Random-search
/// winner must never be replayed under a different algorithm than the
/// one that earned its numbers), and preferring the selection tuned on
/// the paper's mixed SNN-ANN workload when the sweep covered several
/// mixes — objective scores are not comparable across mixes.
///
/// # Errors
///
/// Fails when the report has no evolutionary selection for the
/// platform.
pub fn tuned_config(
    report: &TuneReport,
    platform: PlatformPreset,
) -> Result<NmpConfig, Box<dyn Error>> {
    // Objective scores are only comparable *within* a task mix (a
    // 2-network mix's joint latency is intrinsically smaller than a
    // 4-network mix's), so prefer the selection tuned on the paper's
    // mixed SNN-ANN workload — the figures' hardest configuration and
    // the one Fig. 10 searches on — and only fall back to the tuner's
    // cross-mix order when the sweep didn't cover it.
    report
        .selections
        .iter()
        .find(|s| {
            s.platform == platform
                && s.algorithm == SearchAlgorithm::Evolutionary
                && s.task_mix == TaskMix::MixedSnnAnn
        })
        .or_else(|| report.selection_for_algorithm(platform, SearchAlgorithm::Evolutionary))
        .map(|s| s.config)
        .ok_or_else(|| {
            format!(
                "tune report has no evolutionary-search selection for platform `{}` — \
                 the figure replay runs the evolutionary NMP search, so the tuning \
                 sweep must include `Evolutionary` winners for it (available \
                 selections: {})",
                platform.name(),
                report
                    .selections
                    .iter()
                    .map(|s| format!("{}/{}", s.platform.name(), s.algorithm.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .into()
        })
}

/// Parses the figure binaries' `--tuned <path>` flag: loads the tune
/// report, extracts the Xavier AGX evolutionary selection the replay
/// runs (the figures' platform), and announces it on stderr. Returns
/// `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Fails on a missing flag value, unreadable/invalid report, or a
/// report without a Xavier evolutionary selection.
pub fn tuned_replay_config(
    args: &crate::report::CommonArgs,
) -> Result<Option<NmpConfig>, Box<dyn Error>> {
    let Some(path) = args.flag_value("--tuned") else {
        if args.has_flag("--tuned") {
            return Err("--tuned needs a path to a tune-report JSON".into());
        }
        return Ok(None);
    };
    let tune = load_tune_report(std::path::Path::new(path))?;
    let config = tuned_config(&tune, PlatformPreset::XavierAgx)?;
    eprintln!(
        "replaying tuned NMP config from {path} (objective: {}, pop {} × gen {} × mut {}, seed {:#x})",
        tune.objective.name(),
        config.population,
        config.generations,
        config.mutation_layers,
        config.seed,
    );
    Ok(Some(config))
}

/// Parses the figure binaries' `--mix <name>` flag into a [`TaskMix`]
/// (`all-ann`, `all-snn`, `mixed`, `gnn-heavy`, `corner-inference`).
/// Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Fails loudly on a missing value or an unknown task-mix name.
pub fn mix_flag(args: &crate::report::CommonArgs) -> Result<Option<TaskMix>, Box<dyn Error>> {
    let Some(name) = args.flag_value("--mix") else {
        if args.has_flag("--mix") {
            return Err(
                "--mix needs a value: all-ann | all-snn | mixed | gnn-heavy | corner-inference"
                    .into(),
            );
        }
        return Ok(None);
    };
    TaskMix::from_flag(name).map(Some).ok_or_else(|| {
        format!(
            "unknown task mix `{name}` (all-ann | all-snn | mixed | gnn-heavy | corner-inference)"
        )
        .into()
    })
}

/// One (platform, task-mix) pair's tuned-vs-default comparison.
#[derive(Debug, Clone, Serialize)]
pub struct TunedVsDefaultRow {
    /// Platform name.
    pub platform: String,
    /// Workload-mix name.
    pub task_mix: String,
    /// Latency under the hard-coded default configuration, ms.
    pub default_ms: f64,
    /// Latency under the tuned selection, ms.
    pub tuned_ms: f64,
    /// Latency improvement of tuned over default, % (positive = tuned
    /// is faster).
    pub latency_delta_pct: f64,
    /// Energy under the default configuration, mJ.
    pub default_mj: f64,
    /// Energy under the tuned selection, mJ.
    pub tuned_mj: f64,
    /// Energy improvement of tuned over default, %.
    pub energy_delta_pct: f64,
}

/// Compares every tuned selection against the hard-coded default
/// search configuration on the same mapping problem (same platform,
/// mix and zoo scale as the tuning sweep): the closed-loop delta the
/// auto-tuner buys per platform.
///
/// # Errors
///
/// Propagates search errors.
pub fn tuned_vs_default(
    report: &TuneReport,
    quick: bool,
) -> Result<Vec<TunedVsDefaultRow>, Box<dyn Error>> {
    let zoo = report.zoo().config();
    let default_config = nmp_config(quick);
    let mut rows = Vec::new();
    // One row per (platform, task-mix) pair: the pair's best selection
    // across algorithms, so an algorithm-ablating sweep doesn't repeat
    // the same default search once per algorithm.
    let mut seen: Vec<(PlatformPreset, TaskMix)> = Vec::new();
    for candidate in &report.selections {
        if seen
            .iter()
            .any(|(p, m)| *p == candidate.platform && *m == candidate.task_mix)
        {
            continue;
        }
        seen.push((candidate.platform, candidate.task_mix.clone()));
        let selection = report
            .selection_for_mix(candidate.platform, &candidate.task_mix)
            .expect("the pair came from the selections list");
        let problem = selection
            .task_mix
            .build_problem(selection.platform.build(), &zoo)?;
        let default = run_nmp(&problem, default_config, FitnessConfig::default())?;
        let default_ms = default.report.max_latency.as_secs_f64() * 1e3;
        let default_mj = default.report.energy.as_millijoules();
        rows.push(TunedVsDefaultRow {
            platform: selection.platform.name().to_string(),
            task_mix: selection.task_mix.name(),
            default_ms,
            tuned_ms: selection.best_latency_ms,
            latency_delta_pct: 100.0 * (default_ms - selection.best_latency_ms) / default_ms,
            default_mj,
            tuned_mj: selection.best_energy_mj,
            energy_delta_pct: 100.0 * (default_mj - selection.best_energy_mj) / default_mj,
        });
    }
    Ok(rows)
}

/// Renders a tune report's selections as an aligned text table.
pub fn tune_selections_table(report: &TuneReport) -> crate::report::TextTable {
    let mut table = crate::report::TextTable::new([
        "platform", "mix", "alg", "pop", "gens", "mut", "elite", "cap", "seed", "score", "best ms",
        "best mJ", "feas", "cells",
    ]);
    for s in &report.selections {
        table.row([
            s.platform.name().to_string(),
            s.task_mix.name(),
            s.algorithm.name().to_string(),
            s.config.population.to_string(),
            s.config.generations.to_string(),
            s.config.mutation_layers.to_string(),
            format!("{:.2}", s.config.elite_fraction),
            s.queue_capacity.to_string(),
            format!("{:#018x}", s.config.seed),
            format!("{:.5}", s.score),
            format!("{:.2}", s.best_latency_ms),
            format!("{:.2}", s.best_energy_mj),
            if s.feasible { "yes" } else { "NO" }.to_string(),
            s.candidates.to_string(),
        ]);
    }
    table
}

/// Renders a tuned-vs-default comparison as an aligned text table.
pub fn tuned_vs_default_table(rows: &[TunedVsDefaultRow]) -> crate::report::TextTable {
    let mut table = crate::report::TextTable::new([
        "platform",
        "mix",
        "default ms",
        "tuned ms",
        "Δ latency",
        "default mJ",
        "tuned mJ",
        "Δ energy",
    ]);
    for row in rows {
        table.row([
            row.platform.clone(),
            row.task_mix.clone(),
            format!("{:.2}", row.default_ms),
            format!("{:.2}", row.tuned_ms),
            format!("{:+.1}%", row.latency_delta_pct),
            format!("{:.2}", row.default_mj),
            format!("{:.2}", row.tuned_mj),
            format!("{:+.1}%", row.energy_delta_pct),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Ablations of the framework's design choices
// ---------------------------------------------------------------------

/// One DSFA configuration's outcome in the threshold ablation.
#[derive(Debug, Clone, Serialize)]
pub struct DsfaAblationRow {
    /// Merge mode.
    pub cmode: String,
    /// Merge-bucket capacity.
    pub mb_size: usize,
    /// Time threshold, ms.
    pub mt_th_ms: f64,
    /// Density threshold.
    pub md_th: f64,
    /// Pipeline makespan, ms.
    pub makespan_ms: f64,
    /// Speedup over the dense all-GPU baseline.
    pub speedup: f64,
    /// Mean frames merged per output frame.
    pub merge_factor: f64,
    /// Resulting metric degradation.
    pub degradation: f64,
}

/// DSFA threshold/mode ablation on SpikeFlowNet (paper §4.2: `MtTh` and
/// `MdTh` need per-task tuning; `MBsize` trades accuracy for performance).
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn dsfa_ablation(quick: bool) -> Result<Vec<DsfaAblationRow>, Box<dyn Error>> {
    use ev_edge::dsfa::{CMode, DsfaConfig};
    let network = NetworkId::SpikeFlowNet;
    let setup = PipelineSetup {
        platform: Platform::xavier_agx(),
        network,
        zoo: ZooConfig::mvsec(),
        sequence: sequence_for(network).sequence(),
        window: analysis_window(quick),
    };
    let baseline = run_single_task(
        &setup,
        &PipelineOptions::for_variant(PipelineVariant::DenseAllGpu, network),
    )?;
    let baseline_ms = baseline.makespan.as_secs_f64() * 1e3;

    let mut rows = Vec::new();
    let sweeps: Vec<DsfaConfig> = vec![
        // MBsize sweep at fixed thresholds.
        DsfaConfig {
            mb_size: 1,
            ebuf_size: 8,
            ..DsfaConfig::default()
        },
        DsfaConfig {
            mb_size: 2,
            ebuf_size: 8,
            ..DsfaConfig::default()
        },
        DsfaConfig {
            mb_size: 4,
            ebuf_size: 8,
            ..DsfaConfig::default()
        },
        DsfaConfig {
            mb_size: 8,
            ebuf_size: 8,
            ..DsfaConfig::default()
        },
        // MtTh sweep.
        DsfaConfig {
            mt_th: TimeDelta::from_millis(2),
            ..DsfaConfig::default()
        },
        DsfaConfig {
            mt_th: TimeDelta::from_millis(100),
            ..DsfaConfig::default()
        },
        // MdTh sweep.
        DsfaConfig {
            md_th: 0.05,
            ..DsfaConfig::default()
        },
        DsfaConfig {
            md_th: 5.0,
            ..DsfaConfig::default()
        },
        // Merge modes.
        DsfaConfig {
            cmode: CMode::CAverage,
            ..DsfaConfig::default()
        },
        DsfaConfig {
            cmode: CMode::CBatch,
            ..DsfaConfig::default()
        },
    ];
    for dsfa in sweeps {
        let options = PipelineOptions {
            dsfa,
            ..PipelineOptions::for_variant(PipelineVariant::E2sfDsfa, network)
        };
        let report = run_single_task(&setup, &options)?;
        let ms = report.makespan.as_secs_f64() * 1e3;
        let merge_factor = if report.inferences == 0 {
            0.0
        } else {
            report.frames as f64 / report.inferences as f64
        };
        rows.push(DsfaAblationRow {
            cmode: format!("{}", dsfa.cmode),
            mb_size: dsfa.mb_size,
            mt_th_ms: dsfa.mt_th.as_millis_f64(),
            md_th: dsfa.md_th,
            makespan_ms: ms,
            speedup: baseline_ms / ms,
            merge_factor,
            degradation: report.degradation,
        });
    }
    Ok(rows)
}

/// One GA-hyperparameter point of the search ablation.
#[derive(Debug, Clone, Serialize)]
pub struct GaAblationRow {
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: usize,
    /// Mutated layers per child.
    pub mutation_layers: usize,
    /// Elite fraction.
    pub elite_fraction: f64,
    /// Best mapping latency found, ms.
    pub best_ms: f64,
    /// Fitness evaluations spent (cache misses).
    pub evaluations: usize,
    /// Cache hits.
    pub cache_hits: usize,
}

/// GA hyper-parameter ablation on the mixed SNN-ANN configuration.
///
/// # Errors
///
/// Propagates search errors.
pub fn ga_ablation(quick: bool) -> Result<Vec<GaAblationRow>, Box<dyn Error>> {
    let networks = vec![
        NetworkId::FusionFlowNet,
        NetworkId::Halsie,
        NetworkId::Dotie,
        NetworkId::E2Depth,
    ];
    let problem = build_problem(&networks)?;
    let base = nmp_config(quick);
    let mut variants = vec![
        NmpConfig {
            population: base.population / 2,
            ..base
        },
        base,
        NmpConfig {
            population: base.population * 2,
            generations: base.generations / 2,
            ..base
        },
        NmpConfig {
            mutation_layers: 1,
            ..base
        },
        NmpConfig {
            mutation_layers: 6,
            ..base
        },
        NmpConfig {
            elite_fraction: 0.1,
            ..base
        },
        NmpConfig {
            elite_fraction: 0.5,
            ..base
        },
    ];
    // Without baseline seeding: measures pure-search quality.
    variants.push(NmpConfig {
        seed_baselines: false,
        ..base
    });
    let mut rows = Vec::new();
    for config in variants {
        let result = run_nmp(&problem, config, FitnessConfig::default())?;
        rows.push(GaAblationRow {
            population: config.population,
            generations: config.generations,
            mutation_layers: config.mutation_layers,
            elite_fraction: config.elite_fraction,
            best_ms: result.report.max_latency.as_secs_f64() * 1e3,
            evaluations: result.evaluations,
            cache_hits: result.cache_hits,
        });
    }
    Ok(rows)
}

/// One mapping policy's runtime behaviour (extension experiment).
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeRow {
    /// Policy name.
    pub policy: String,
    /// Worst per-task mean latency, ms.
    pub worst_mean_latency_ms: f64,
    /// Total inputs dropped by bounded inference queues.
    pub dropped: u64,
    /// Total inferences completed.
    pub completed: u64,
    /// Mean processing-element utilization.
    pub mean_utilization: f64,
}

/// Extension: plays the Figure 9 mixed configuration forward in simulated
/// time with periodic concurrent inputs and bounded inference queues (the
/// §4.2 drop rule), comparing mapping policies at runtime.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn multitask_runtime(quick: bool) -> Result<Vec<RuntimeRow>, Box<dyn Error>> {
    use ev_edge::multipipe::{run_multi_task_runtime, MultiTaskRuntimeConfig};
    use ev_edge::nmp::candidate::Candidate;

    let networks = vec![
        NetworkId::FusionFlowNet,
        NetworkId::Halsie,
        NetworkId::Dotie,
        NetworkId::E2Depth,
    ];
    let problem = build_problem(&networks)?;
    // Input periods: one inference per network timestep, slowed 3× so the
    // platform sits *near* saturation — good mappings keep up, bad ones
    // drop (pure overload would make every policy drop alike).
    let periods: Vec<TimeDelta> = networks
        .iter()
        .map(|&n| {
            let seq = sequence_for(n).sequence();
            let rep = representation_for(n);
            TimeDelta::from_micros(
                3 * seq.gray_frame_interval.as_micros() / rep.timesteps().max(1) as i64,
            )
        })
        .collect();
    let config = MultiTaskRuntimeConfig::new(analysis_window(quick));
    let nmp = run_nmp(&problem, nmp_config(quick), FitnessConfig::default())?;
    // Extension: the same search minimizing schedulability load (per-task
    // latency/period and per-PE utilization) — the right objective under
    // periodic streaming arrivals. The problem is rebuilt with periods.
    let zoo = ZooConfig::mvsec();
    let streaming_tasks = networks
        .iter()
        .zip(&periods)
        .map(|(&n, &p)| {
            Ok(TaskSpec::new(n.build(&zoo)?, n.accuracy_model(), delta_a_for(n)).with_period(p))
        })
        .collect::<Result<Vec<_>, ev_nn::NnError>>()?;
    let streaming_problem = MultiTaskProblem::new(Platform::xavier_agx(), streaming_tasks)?;
    let nmp_streaming = run_nmp(
        &streaming_problem,
        nmp_config(quick),
        FitnessConfig {
            objective: ev_edge::nmp::fitness::Objective::Streaming,
            ..FitnessConfig::default()
        },
    )?;
    let policies: Vec<(&str, Candidate)> = vec![
        ("RR-Network", baseline::rr_network(&problem)),
        ("RR-Layer", baseline::rr_layer(&problem)),
        ("NMP (latency obj.)", nmp.best),
        ("NMP (streaming obj.)", nmp_streaming.best),
    ];
    let mut rows = Vec::new();
    for (name, candidate) in policies {
        let report = run_multi_task_runtime(&problem, &candidate, &periods, config)?;
        let mean_util =
            report.utilization.iter().sum::<f64>() / report.utilization.len().max(1) as f64;
        rows.push(RuntimeRow {
            policy: name.to_string(),
            worst_mean_latency_ms: report.worst_mean_latency().as_secs_f64() * 1e3,
            dropped: report.total_dropped(),
            completed: report.per_task.iter().map(|t| t.completed).sum(),
            mean_utilization: mean_util,
        });
    }
    Ok(rows)
}

/// One platform's mapping outcome in the cross-platform extension.
#[derive(Debug, Clone, Serialize)]
pub struct CrossPlatformRow {
    /// Platform name.
    pub platform: String,
    /// All-GPU FP32 joint latency, ms.
    pub all_gpu_ms: f64,
    /// NMP-searched joint latency, ms.
    pub nmp_ms: f64,
    /// NMP speedup over all-GPU.
    pub speedup: f64,
    /// Fraction of layers the search kept on the GPU.
    pub gpu_share: f64,
    /// Fraction of layers at reduced (non-FP32) precision.
    pub reduced_precision_share: f64,
}

/// Extension: the same mixed workload mapped onto three platform classes
/// (Nano-like, Xavier AGX, Orin-like), showing how NMP's choices adapt to
/// the hardware.
///
/// # Errors
///
/// Propagates search errors.
pub fn cross_platform(quick: bool) -> Result<Vec<CrossPlatformRow>, Box<dyn Error>> {
    use ev_edge::nmp::fitness::FitnessEvaluator;
    let zoo = ZooConfig::mvsec();
    let networks = [NetworkId::SpikeFlowNet, NetworkId::Dotie];
    let platforms = vec![
        Platform::nano_like(),
        Platform::xavier_agx(),
        Platform::orin_like(),
    ];
    let mut rows = Vec::new();
    for platform in platforms {
        let tasks = networks
            .iter()
            .map(|&n| {
                Ok(TaskSpec::new(
                    n.build(&zoo)?,
                    n.accuracy_model(),
                    delta_a_for(n),
                ))
            })
            .collect::<Result<Vec<_>, ev_nn::NnError>>()?;
        let name = platform.name().to_string();
        let problem = MultiTaskProblem::new(platform, tasks)?;
        let mut evaluator = FitnessEvaluator::new(&problem, FitnessConfig::default());
        let all_gpu = evaluator.evaluate(&baseline::all_gpu(&problem)?)?;
        let result = run_nmp(&problem, nmp_config(quick), FitnessConfig::default())?;
        let gpu_id = problem.platform().id_by_name("gpu").expect("gpu exists");
        let assignments = result.best.assignments();
        let gpu_share =
            assignments.iter().filter(|a| a.pe == gpu_id).count() as f64 / assignments.len() as f64;
        let reduced = assignments
            .iter()
            .filter(|a| a.precision != ev_nn::Precision::Fp32)
            .count() as f64
            / assignments.len() as f64;
        let ms = |d: TimeDelta| d.as_secs_f64() * 1e3;
        rows.push(CrossPlatformRow {
            platform: name,
            all_gpu_ms: ms(all_gpu.max_latency),
            nmp_ms: ms(result.report.max_latency),
            speedup: ms(all_gpu.max_latency) / ms(result.report.max_latency),
            gpu_share,
            reduced_precision_share: reduced,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One network summary row (Table 1).
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Network name.
    pub network: String,
    /// Task.
    pub task: String,
    /// Network type: SNN / ANN / SNN-ANN.
    pub kind: String,
    /// Total parametered layers.
    pub layers: usize,
    /// Spiking layers.
    pub snn_layers: usize,
    /// Analog layers.
    pub ann_layers: usize,
}

/// Regenerates Table 1 from the zoo registry.
///
/// # Errors
///
/// Propagates graph construction errors.
pub fn table1() -> Result<Vec<Table1Row>, Box<dyn Error>> {
    let zoo = ZooConfig::small();
    let mut rows = Vec::new();
    for network in NetworkId::TABLE1 {
        let graph = network.build(&zoo)?;
        let (snn, ann) = ev_nn::zoo::counted_layers(&graph);
        let kind = match (snn, ann) {
            (0, _) => "ANN",
            (_, 0) => "SNN",
            _ => "SNN-ANN",
        };
        rows.push(Table1Row {
            network: network.name().to_string(),
            task: graph.task().to_string(),
            kind: kind.to_string(),
            layers: snn + ann,
            snn_layers: snn,
            ann_layers: ann,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_reproduces_density_spread() {
        let rows = figure3(true).unwrap();
        let min = rows
            .iter()
            .map(|r| r.mean_fill_pct)
            .fold(f64::INFINITY, f64::min);
        let max = rows.iter().map(|r| r.mean_fill_pct).fold(0.0f64, f64::max);
        // Paper: 0.15%–28.57% — we target the same order of spread.
        assert!(min < 2.0, "sparsest network {min}% should be <2%");
        assert!(max > 8.0, "densest network {max}% should be >8%");
        assert!(max / min > 10.0, "spread {min}–{max} too narrow");
    }

    #[test]
    fn figure5_is_bursty() {
        let result = figure5(true).unwrap();
        assert!(result.burstiness > 2.0);
        assert!(!result.bins.is_empty());
    }

    #[test]
    fn figure1_shows_wasted_work() {
        let result = figure1(true).unwrap();
        assert!(result.rows.len() == 6);
        // Finer binning → sparser frames.
        assert!(result.rows[0].mean_fill_pct > result.rows[5].mean_fill_pct);
        // Dense work wastes most operations at any resolution.
        for row in &result.rows {
            assert!(row.wasted_pct > 50.0, "row {row:?}");
        }
        // Real kernels confirm: well under half the dense MACs needed.
        assert!(result.measured.effectual_fraction < 0.5);
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1().unwrap();
        assert_eq!(rows.len(), 6);
        let by_name = |n: &str| rows.iter().find(|r| r.network == n).unwrap();
        assert_eq!(by_name("SpikeFlowNet").layers, 12);
        assert_eq!(by_name("Fusion-FlowNet").layers, 29);
        assert_eq!(by_name("Adaptive-SpikeNet").layers, 8);
        assert_eq!(by_name("HALSIE").layers, 16);
        assert_eq!(by_name("E2Depth").layers, 15);
        assert_eq!(by_name("DOTIE").layers, 1);
        assert_eq!(by_name("HALSIE").kind, "SNN-ANN");
        assert_eq!(by_name("DOTIE").kind, "SNN");
        assert_eq!(by_name("E2Depth").kind, "ANN");
    }
}
