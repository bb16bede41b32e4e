//! The integrated single-task runtime pipeline (paper Figure 4).
//!
//! Simulates a camera stream being processed end-to-end — E2SF binning,
//! optional DSFA aggregation, inference on the modeled platform — in
//! simulated time, with FIFO job execution and hardware-availability-
//! driven early dispatch. Variants peel the optimizations apart exactly as
//! the paper's Figure 8 does: dense all-GPU baseline, +E2SF, +DSFA, +NMP.
//!
//! Execution runs on the streaming driver of the multi-task runtime
//! with one task: E2SF frames flow through a [`DsfaStage`] (or straight
//! through, one job per frame) into the [`ExecEngine`], whose
//! [`BatchCostModel`] treats the whole platform as one FIFO resource
//! occupied by each job's scheduled critical-path duration (candidate
//! mappings may spread layers over several elements); energy counts
//! busy energy plus always-on static power. The inference-queue drop
//! rule of §4.2 affects which frames contribute to accuracy, not the
//! latency results, and is reflected through the DSFA aggregation term
//! of the accuracy model.

use crate::dsfa::DsfaConfig;
use crate::e2sf::{E2sf, E2sfConfig};
use crate::exec::engine::ExecEngine;
use crate::exec::job::{BatchCostModel, SchedGraphBuilder};
use crate::exec::stage::DsfaStage;
use crate::multipipe::drive_frames;
use crate::nmp::candidate::{Assignment, Candidate};
use crate::nmp::evolution::{run_nmp, NmpConfig};
use crate::nmp::fitness::FitnessConfig;
use crate::nmp::multitask::{MultiTaskProblem, TaskSpec};
use crate::EvEdgeError;
use ev_core::{TimeDelta, TimeWindow};
use ev_datasets::mvsec::Sequence;
use ev_datasets::representation::representation_for;
use ev_nn::graph::{LayerWorkload, NetworkGraph};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_nn::{Domain, Precision};
use ev_platform::energy::Energy;
use ev_platform::latency::{default_domain_density, layer_cost, LayerContext};
use ev_platform::pe::Platform;
use ev_platform::timeline::DeviceTimeline;

pub use crate::exec::job::JobRecord;

/// Which optimizations are active (cumulative, as in Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PipelineVariant {
    /// Dense event frames on the GPU at FP32 — the paper's baseline.
    DenseAllGpu,
    /// E2SF sparse frames, FIFO dispatch, all-GPU FP32.
    E2sf,
    /// E2SF + DSFA aggregation, all-GPU FP32.
    E2sfDsfa,
    /// E2SF + DSFA + NMP mapping and precision.
    E2sfDsfaNmp,
}

impl PipelineVariant {
    /// The cumulative variants of Figure 8, in presentation order.
    pub const FIGURE8: [PipelineVariant; 4] = [
        PipelineVariant::DenseAllGpu,
        PipelineVariant::E2sf,
        PipelineVariant::E2sfDsfa,
        PipelineVariant::E2sfDsfaNmp,
    ];

    /// Whether DSFA is active.
    pub fn uses_dsfa(self) -> bool {
        matches!(
            self,
            PipelineVariant::E2sfDsfa | PipelineVariant::E2sfDsfaNmp
        )
    }

    /// Whether inference consumes sparse frames.
    pub fn sparse_execution(self) -> bool {
        !matches!(self, PipelineVariant::DenseAllGpu)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PipelineVariant::DenseAllGpu => "all-GPU (dense)",
            PipelineVariant::E2sf => "+E2SF",
            PipelineVariant::E2sfDsfa => "+E2SF+DSFA",
            PipelineVariant::E2sfDsfaNmp => "+E2SF+DSFA+NMP",
        }
    }
}

/// The fixed scenario a pipeline run simulates.
#[derive(Debug, Clone)]
pub struct PipelineSetup {
    /// The platform model.
    pub platform: Platform,
    /// The network under test.
    pub network: NetworkId,
    /// Network scale.
    pub zoo: ZooConfig,
    /// The input sequence.
    pub sequence: Sequence,
    /// Simulated capture window.
    pub window: TimeWindow,
}

/// Per-run options.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// The optimization level.
    pub variant: PipelineVariant,
    /// DSFA configuration (used by DSFA variants).
    pub dsfa: DsfaConfig,
    /// NMP search configuration (used by the NMP variant; its ΔA
    /// threshold is the network's own, [`NetworkId::delta_a`]).
    pub nmp: NmpConfig,
}

impl PipelineOptions {
    /// Options for a variant with defaults tuned per task (cBatch for
    /// tracking, conservative merging for segmentation, per paper §4.2/§6).
    pub fn for_variant(variant: PipelineVariant, network: NetworkId) -> Self {
        use crate::dsfa::CMode;
        let dsfa = match network {
            NetworkId::Dotie => DsfaConfig {
                cmode: CMode::CBatch,
                ebuf_size: 8,
                mb_size: 1,
                ..DsfaConfig::default()
            },
            NetworkId::Halsie => DsfaConfig {
                // Pixel-accuracy-sensitive: merge conservatively.
                ebuf_size: 4,
                mb_size: 2,
                md_th: 0.2,
                ..DsfaConfig::default()
            },
            _ => DsfaConfig::default(),
        };
        PipelineOptions {
            variant,
            dsfa,
            nmp: NmpConfig {
                population: 24,
                generations: 16,
                ..NmpConfig::default()
            },
        }
    }
}

/// The outcome of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// The variant that ran.
    pub variant: PipelineVariant,
    /// Frames produced by the converter.
    pub frames: usize,
    /// Inference jobs executed.
    pub inferences: usize,
    /// Raw events processed.
    pub events: usize,
    /// Time from window start until the last job completed.
    pub makespan: TimeDelta,
    /// Total device busy time.
    pub busy_time: TimeDelta,
    /// Busy energy over the run.
    pub energy: Energy,
    /// Mean event-to-prediction latency over jobs.
    pub mean_latency: TimeDelta,
    /// Estimated metric degradation (quantization + aggregation).
    pub degradation: f64,
    /// The resulting metric value (Table 2 style).
    pub metric: f64,
    /// Executed jobs (for distribution analysis).
    pub jobs: Vec<JobRecord>,
}

/// Runs the single-task pipeline on the unified execution engine.
///
/// # Errors
///
/// Propagates conversion, aggregation, search and scheduling errors.
pub fn run_single_task(
    setup: &PipelineSetup,
    options: &PipelineOptions,
) -> Result<PipelineReport, EvEdgeError> {
    let graph = setup.network.build(&setup.zoo)?;
    let workloads = graph.workloads();
    let accuracy = setup.network.accuracy_model();

    // 1. Capture and E2SF conversion.
    let events = setup.sequence.generate(setup.window)?;
    let intervals = setup.sequence.frame_intervals(setup.window);
    let bins = representation_for(setup.network).bins_per_interval;
    let frames = E2sf::new(E2sfConfig::new(bins)).convert_intervals(&events, &intervals)?;
    let (event_count, frame_count) = (events.len(), frames.len());

    // 2. Choose the mapping.
    let candidate = match options.variant {
        PipelineVariant::E2sfDsfaNmp => {
            // Reserve accuracy budget for DSFA: the search assumes the
            // worst-case aggregation (buckets always merged to capacity),
            // so quantization + whatever DSFA actually does stays within
            // ΔA (Equation 2 holds end to end).
            let worst_case_aggregation = if options.dsfa.mb_size > 1 { 1.0 } else { 0.0 };
            let problem = MultiTaskProblem::new(
                setup.platform.clone(),
                vec![
                    TaskSpec::new(graph.clone(), accuracy, setup.network.delta_a())
                        .with_aggregation(worst_case_aggregation),
                ],
            )?;
            run_nmp(&problem, options.nmp, FitnessConfig::default())?.best
        }
        _ => {
            let gpu = setup
                .platform
                .id_by_name("gpu")
                .ok_or(EvEdgeError::MissingPe { name: "gpu" })?;
            Candidate::from_assignments(
                (0..graph.len())
                    .map(|_| Assignment {
                        pe: gpu,
                        precision: Precision::Fp32,
                    })
                    .collect(),
            )
        }
    };

    // 3. Execute jobs over simulated time on the streaming driver with
    // one task. The whole platform is one FIFO resource to the job model;
    // DSFA's early-dispatch rule consumes the engine's idleness signal.
    // The queue holds every frame, so nothing is dropped (§4.2's drops
    // apply to the multi-task runtime's bounded queues).
    let mut model = BatchCostModel::new(0, |density, batch| {
        inference_cost(
            &setup.platform,
            &graph,
            &workloads,
            &candidate,
            density,
            batch,
            options.variant,
        )
    });
    let mut engine = ExecEngine::new(
        setup.window.start(),
        DeviceTimeline::new(1),
        1,
        frame_count.max(1),
    )?
    .with_job_records();
    let mut frontends = [if options.variant.uses_dsfa() {
        Some(DsfaStage::new(options.dsfa)?)
    } else {
        None
    }];
    drive_frames(
        &mut engine,
        &mut model,
        vec![frames],
        &mut frontends,
        setup.window,
    )?;
    let aggregation = frontends[0]
        .as_ref()
        .map_or(0.0, DsfaStage::aggregation_aggressiveness);
    let report = engine.finish(setup.platform.static_power_w);

    // 4. Accuracy estimate.
    let shares =
        ev_nn::accuracy::shares_from_macs(&workloads.iter().map(|w| w.macs).collect::<Vec<_>>());
    let precisions: Vec<Precision> = candidate
        .assignments()
        .iter()
        .map(|a| a.precision)
        .collect();
    let degradation = accuracy.degradation(&shares, &precisions, aggregation);
    let metric = accuracy.degraded_metric(degradation);

    let stats = &report.per_task[0];
    Ok(PipelineReport {
        variant: options.variant,
        frames: frame_count,
        inferences: stats.completed as usize,
        events: event_count,
        makespan: report.makespan,
        busy_time: report.busy_time,
        energy: report.energy,
        mean_latency: stats.mean_latency,
        degradation,
        metric,
        jobs: report.jobs,
    })
}

/// Models one inference job under a mapping: per-layer roofline costs,
/// cross-PE transfer nodes (via the shared [`SchedGraphBuilder`]),
/// Equation 3 scheduling → critical-path duration plus total energy.
fn inference_cost(
    platform: &Platform,
    graph: &NetworkGraph,
    workloads: &[LayerWorkload],
    candidate: &Candidate,
    input_density: f64,
    batch: usize,
    variant: PipelineVariant,
) -> Result<(TimeDelta, Energy), EvEdgeError> {
    let mut builder = SchedGraphBuilder::new(platform);
    builder.add_network(
        graph,
        |l| candidate.assignment(l),
        |l, a| {
            let density = if !variant.sparse_execution() {
                1.0
            } else if graph.predecessors(ev_nn::LayerId(l)).is_empty() {
                input_density.clamp(0.0, 1.0)
            } else {
                match workloads[l].domain {
                    Domain::Snn => default_domain_density(Domain::Snn),
                    Domain::Ann => 1.0,
                }
            };
            let ctx = LayerContext::default()
                .with_precision(a.precision)
                .with_density(density)
                .with_batch(batch.max(1));
            Ok(layer_cost(platform, a.pe, &workloads[l], ctx)?)
        },
        |l| workloads[l].output_bytes * batch.max(1) as u64,
    )?;
    let schedule = builder.schedule()?;
    Ok((schedule.makespan, builder.energy()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::Timestamp;
    use ev_datasets::mvsec::SequenceId;

    fn setup(network: NetworkId) -> PipelineSetup {
        PipelineSetup {
            platform: Platform::xavier_agx(),
            network,
            zoo: ZooConfig::mvsec(),
            sequence: SequenceId::IndoorFlying1.sequence(),
            window: TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(200)),
        }
    }

    fn run(network: NetworkId, variant: PipelineVariant) -> PipelineReport {
        let mut options = PipelineOptions::for_variant(variant, network);
        // Keep the NMP search quick in unit tests.
        options.nmp = NmpConfig {
            population: 12,
            generations: 8,
            seed: 5,
            ..NmpConfig::default()
        };
        run_single_task(&setup(network), &options).unwrap()
    }

    #[test]
    fn pipeline_executes_jobs() {
        let report = run(NetworkId::SpikeFlowNet, PipelineVariant::DenseAllGpu);
        assert!(report.frames > 0);
        assert!(report.inferences > 0);
        assert!(report.makespan > TimeDelta::ZERO);
        assert!(report.energy > Energy::ZERO);
        assert_eq!(report.jobs.len(), report.inferences);
    }

    #[test]
    fn e2sf_beats_dense_baseline() {
        let dense = run(NetworkId::SpikeFlowNet, PipelineVariant::DenseAllGpu);
        let sparse = run(NetworkId::SpikeFlowNet, PipelineVariant::E2sf);
        assert!(
            sparse.makespan < dense.makespan,
            "E2SF {:?} should beat dense {:?}",
            sparse.makespan,
            dense.makespan
        );
        assert!(sparse.energy < dense.energy);
    }

    #[test]
    fn dsfa_batches_jobs() {
        let plain = run(NetworkId::SpikeFlowNet, PipelineVariant::E2sf);
        let dsfa = run(NetworkId::SpikeFlowNet, PipelineVariant::E2sfDsfa);
        assert!(
            dsfa.inferences <= plain.inferences,
            "DSFA merges frames into fewer jobs"
        );
        assert!(dsfa.makespan <= plain.makespan);
    }

    #[test]
    fn nmp_improves_over_dsfa_alone() {
        let dsfa = run(NetworkId::SpikeFlowNet, PipelineVariant::E2sfDsfa);
        let nmp = run(NetworkId::SpikeFlowNet, PipelineVariant::E2sfDsfaNmp);
        assert!(
            nmp.makespan <= dsfa.makespan,
            "NMP {:?} vs DSFA {:?}",
            nmp.makespan,
            dsfa.makespan
        );
        // NMP may trade precision for speed within ΔA.
        assert!(nmp.degradation <= 0.03 + 1e-9);
    }

    #[test]
    fn accuracy_degradation_stays_anchored() {
        let report = run(NetworkId::SpikeFlowNet, PipelineVariant::E2sfDsfaNmp);
        // The metric moved from the baseline but by a bounded amount.
        assert!(report.metric >= 0.93);
        assert!(report.metric < 1.1);
    }

    #[test]
    fn report_throughput_and_job_accounting() {
        let report = run(NetworkId::Dotie, PipelineVariant::E2sf);
        assert!(report.events > 0 && report.makespan > TimeDelta::ZERO);
        // Jobs never start before their input is ready and never overlap.
        let mut prev_end = Timestamp::ZERO;
        for job in &report.jobs {
            assert!(job.start >= job.ready);
            assert!(job.start >= prev_end);
            assert!(job.end > job.start);
            prev_end = job.end;
        }
        // All frames were executed (no DSFA → one job per frame).
        assert_eq!(report.inferences, report.frames);
        let job_events: usize = report.jobs.iter().map(|j| j.events).sum();
        assert_eq!(job_events, report.events);
    }
}
