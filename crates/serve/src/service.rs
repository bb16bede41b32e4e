//! The service driver: epochs between churn boundaries.
//!
//! `run_service` slices the service window at every tenant join/leave
//! into **epochs**. Each epoch runs the live mix through one
//! `ExecEngine` over a `DeviceTimeline`, with arrivals generated by
//! the multipipe phase-preserving scheduler (each tenant keeps the
//! cadence anchor it joined with, so slicing the window at churn
//! boundaries never perturbs the arrival sequence). Arrivals pass the
//! [`AdmissionController`] watermark, then a bounded per-tenant ingress
//! queue (reject-newest on both), then the engine's dispatch loop.
//!
//! Everything is simulated time on the caller's thread. `workers` only
//! fans out the auto-tuner's sweep — byte-identical at any worker
//! count by the tuner's contract — so the returned [`ServeReport`] is
//! bitwise reproducible for a given scenario, config, and seed.

use crate::admission::AdmissionController;
use crate::remap::{carry_over_mapping, MappingCache, MappingSource, MixEntry};
use crate::tenant::{TenantId, TenantRegistry, TenantSpec};
use crate::ServeError;
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::exec::{ExecEngine, JobInput, LoadProbe, MappedJobModel};
use ev_edge::multipipe::for_each_phased_arrival;
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::evolution::NmpConfig;
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::{
    AutoTuner, PlatformPreset, SearchAlgorithm, SweepSpec, TaskMix, TuneObjective, ZooPreset,
};
use ev_nn::zoo::NetworkId;
use ev_platform::DeviceTimeline;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// One tenant lifecycle change.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// Admit a new tenant.
    Join(TenantSpec),
    /// Retire the live tenant with this name.
    Leave(String),
}

/// A lifecycle change at an instant strictly inside the service window.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// When the change takes effect (an epoch boundary).
    pub at: Timestamp,
    /// What changes.
    pub action: ChurnAction,
}

/// A full service run: who starts, and who joins/leaves when.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeScenario {
    /// Tenants admitted at the window start.
    pub initial: Vec<TenantSpec>,
    /// Mid-run joins and leaves (any order; stably sorted by time).
    pub churn: Vec<ChurnEvent>,
}

/// Engine-side bounded inference-queue capacity (§4.2 drop-oldest). It
/// never binds: the ingress queue releases a job only to an idle task and
/// the drain enqueues one job at a time, so the engine queue holds at most
/// one input. It also sets the tune sweep's `queue_capacities` axis.
const ENGINE_QUEUE_CAPACITY: usize = 2;

/// Service-layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The service window driven in simulated time.
    pub window: TimeWindow,
    /// Platform class every epoch maps onto.
    pub platform: PlatformPreset,
    /// Zoo scale for tenant task graphs.
    pub zoo: ZooPreset,
    /// Per-tenant ingress queue capacity (reject-newest).
    pub ingress_capacity: usize,
    /// Registry admission limit.
    pub max_tenants: usize,
    /// Admission watermark on mean per-queue PE utilization.
    pub watermark: f64,
    /// Mix drift (multiset Jaccard distance from the last tuned mix)
    /// above which churn triggers a fresh auto-tune instead of carrying
    /// the previous mapping over.
    pub drift_threshold: f64,
    /// Auto-tune selection objective.
    pub objective: TuneObjective,
    /// Population grid for the churn-triggered tune sweep.
    pub tune_populations: Vec<usize>,
    /// Generation grid for the churn-triggered tune sweep.
    pub tune_generations: Vec<usize>,
    /// Simulated playback window of each tune cell, ms.
    pub tune_window_ms: u64,
    /// Base PRNG seed for tune sweeps.
    pub base_seed: u64,
    /// Worker threads for tune sweeps (0 = serial). Reports are
    /// byte-identical at any value.
    pub workers: usize,
}

impl ServeConfig {
    /// Defaults tuned for tests and the `serve_sim` bin: Xavier-class
    /// platform, small zoo, 0.75 watermark, 0.1 drift threshold.
    pub fn new(window: TimeWindow) -> Self {
        ServeConfig {
            window,
            platform: PlatformPreset::XavierAgx,
            zoo: ZooPreset::Small,
            ingress_capacity: 4,
            max_tenants: 64,
            watermark: 0.75,
            drift_threshold: 0.1,
            objective: TuneObjective::Latency,
            tune_populations: vec![4],
            tune_generations: vec![3],
            tune_window_ms: 4,
            base_seed: 0x5345_5256, // "SERV"
            workers: 0,
        }
    }

    /// Checks field ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let invalid = |what: String| Err(ServeError::InvalidConfig { what });
        if self.window.start() >= self.window.end() {
            return invalid(format!(
                "window must be non-empty, got [{}, {})",
                self.window.start(),
                self.window.end()
            ));
        }
        if self.ingress_capacity == 0 {
            return invalid("ingress_capacity must be positive".to_string());
        }
        if self.max_tenants == 0 {
            return invalid("max_tenants must be positive".to_string());
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold < 0.0 {
            return invalid(format!(
                "drift_threshold must be finite and non-negative, got {}",
                self.drift_threshold
            ));
        }
        if self.tune_populations.is_empty() || self.tune_generations.is_empty() {
            return invalid("tune grids must be non-empty".to_string());
        }
        if self.tune_window_ms == 0 {
            return invalid("tune_window_ms must be positive".to_string());
        }
        AdmissionController::new(self.watermark).map(|_| ())
    }

    /// The single-mix sweep spec a churn-triggered tune runs over.
    pub fn tune_spec_for(&self, mix: TaskMix) -> SweepSpec {
        SweepSpec {
            base_seed: self.base_seed,
            populations: self.tune_populations.clone(),
            generations: self.tune_generations.clone(),
            mutation_layers: vec![1],
            elite_fractions: vec![0.25],
            queue_capacities: vec![ENGINE_QUEUE_CAPACITY],
            platforms: vec![self.platform],
            task_mixes: vec![mix],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: self.zoo,
            runtime_window_ms: self.tune_window_ms,
            keep_history: false,
        }
    }
}

/// One epoch (a churn-free slice of the window) in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch start, µs.
    pub start_us: u64,
    /// Epoch end (exclusive), µs.
    pub end_us: u64,
    /// Live tenant names, in admission order.
    pub tenants: Vec<String>,
    /// How the epoch's mapping was obtained.
    pub mapping: MappingSource,
    /// Mix drift from the last tuned mix (`None` before any tune).
    pub drift: Option<f64>,
    /// The replayable search config behind the mapping (tuned/cached
    /// epochs only).
    pub nmp: Option<NmpConfig>,
    /// Bit pattern of the mapping search's fitness score (tuned/cached
    /// epochs only) — the determinism receipt.
    pub score_bits: Option<u64>,
    /// Mean per-queue PE utilization over the epoch (booked busy time;
    /// may exceed 1.0 under overload).
    pub utilization: f64,
    /// Arrivals shed this epoch (watermark + ingress-full).
    pub shed: u64,
    /// Inferences completed this epoch.
    pub completed: u64,
    /// Modeled energy this epoch, mJ.
    pub energy_mj: f64,
}

/// Per-tenant service outcome over the whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Network the tenant runs.
    pub network: String,
    /// When the tenant joined, µs.
    pub joined_at_us: u64,
    /// When the tenant left, µs (`None` = still live at window end).
    pub left_at_us: Option<u64>,
    /// Event-batch arrivals offered.
    pub arrivals: u64,
    /// Arrivals admitted past the front door.
    pub admitted: u64,
    /// Arrivals shed at the utilization watermark.
    pub shed_saturated: u64,
    /// Arrivals shed by the full ingress queue.
    pub shed_ingress_full: u64,
    /// Inferences completed.
    pub completed: u64,
    /// Admitted inputs dropped by the engine's bounded queue.
    pub dropped: u64,
    /// Mean input-to-completion latency over completed inferences, µs.
    pub mean_latency_us: i64,
    /// Worst input-to-completion latency, µs.
    pub max_latency_us: i64,
    /// Energy attributed by device-occupancy share, mJ.
    pub energy_mj: f64,
}

impl TenantReport {
    /// Total arrivals shed for this tenant.
    pub fn shed(&self) -> u64 {
        self.shed_saturated + self.shed_ingress_full
    }
}

/// Run-wide totals.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServeTotals {
    /// Arrivals offered across tenants.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals shed at the utilization watermark.
    pub shed_saturated: u64,
    /// Arrivals shed by full ingress queues.
    pub shed_ingress_full: u64,
    /// Inferences completed.
    pub completed: u64,
    /// Admitted inputs dropped by engine queues.
    pub dropped: u64,
    /// Auto-tune searches run (including the initial one).
    pub tunes: u64,
    /// Churn-triggered tunes after the first epoch.
    pub retunes: u64,
    /// Epochs served from the mapping cache.
    pub cache_replays: u64,
    /// Epochs served by carrying the previous mapping over.
    pub carried: u64,
    /// Total modeled energy, mJ.
    pub energy_mj: f64,
}

impl ServeTotals {
    /// Total arrivals shed (watermark + ingress-full).
    pub fn shed(&self) -> u64 {
        self.shed_saturated + self.shed_ingress_full
    }
}

/// The serde-round-trippable service report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Platform preset name.
    pub platform: String,
    /// Window start, µs.
    pub start_us: u64,
    /// Window end, µs.
    pub end_us: u64,
    /// The admission watermark in force.
    pub watermark: f64,
    /// The remap drift threshold in force.
    pub drift_threshold: f64,
    /// Per-tenant outcomes, in admission order (retired tenants stay).
    pub tenants: Vec<TenantReport>,
    /// Per-epoch records, in time order.
    pub epochs: Vec<EpochRecord>,
    /// Run-wide totals.
    pub totals: ServeTotals,
}

/// What `run_service` hands back: the report plus the mapping cache,
/// so callers can replay every tuning bit for bit
/// ([`MappingCache::verify_replays`]).
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The service report.
    pub report: ServeReport,
    /// Every (platform × mix) tuning the run produced.
    pub mappings: MappingCache,
}

/// Per-tenant accumulator across epochs.
struct TenantAcc {
    name: String,
    network: NetworkId,
    joined_at: Timestamp,
    left_at: Option<Timestamp>,
    arrivals: u64,
    admitted: u64,
    shed_saturated: u64,
    shed_ingress_full: u64,
    completed: u64,
    dropped: u64,
    latency_sum_us: i64,
    max_latency_us: i64,
    energy_mj: f64,
}

impl TenantAcc {
    fn new(spec: &TenantSpec, joined_at: Timestamp) -> Self {
        TenantAcc {
            name: spec.name.clone(),
            network: spec.network,
            joined_at,
            left_at: None,
            arrivals: 0,
            admitted: 0,
            shed_saturated: 0,
            shed_ingress_full: 0,
            completed: 0,
            dropped: 0,
            latency_sum_us: 0,
            max_latency_us: 0,
            energy_mj: 0.0,
        }
    }

    fn into_report(self) -> TenantReport {
        let mean = if self.completed > 0 {
            self.latency_sum_us / self.completed as i64
        } else {
            0
        };
        TenantReport {
            name: self.name,
            network: self.network.name().to_string(),
            joined_at_us: self.joined_at.as_micros(),
            left_at_us: self.left_at.map(Timestamp::as_micros),
            arrivals: self.arrivals,
            admitted: self.admitted,
            shed_saturated: self.shed_saturated,
            shed_ingress_full: self.shed_ingress_full,
            completed: self.completed,
            dropped: self.dropped,
            mean_latency_us: mean,
            max_latency_us: self.max_latency_us,
            energy_mj: self.energy_mj,
        }
    }
}

/// The previous epoch's mapping, kept for carry-over.
struct PrevMapping {
    problem: MultiTaskProblem,
    candidate: Candidate,
    networks: Vec<NetworkId>,
}

#[derive(Debug)]
struct EpochStats {
    utilization: f64,
    shed: u64,
    completed: u64,
    energy_mj: f64,
}

/// Resolves a tenant's slot in the accounting table.
///
/// Tenant ids happen to be assigned in the same order accumulators are
/// pushed today, but that is bookkeeping coincidence, not contract —
/// indexing `accs` by the raw id value would panic (or silently charge
/// the wrong tenant) in release builds the moment the two drift. The
/// explicit map makes the association total and checkable.
fn acc_slot(
    acc_of: &HashMap<TenantId, usize>,
    id: TenantId,
    name: &str,
) -> Result<usize, ServeError> {
    acc_of
        .get(&id)
        .copied()
        .ok_or_else(|| ServeError::MissingAccumulator {
            name: name.to_string(),
            id: id.0,
        })
}

/// Runs a scenario through the service layer.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for out-of-range config or
/// churn outside the window, tenant-lifecycle errors from the registry,
/// [`ServeError::NoSelection`] if a tune sweep fails to cover its own
/// mix, and propagates exec/tuner errors.
pub fn run_service(
    scenario: &ServeScenario,
    config: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    config.validate()?;
    let admission = AdmissionController::new(config.watermark)?;
    let start = config.window.start();
    let end = config.window.end();

    let mut registry = TenantRegistry::new(config.max_tenants);
    let mut accs: Vec<TenantAcc> = Vec::new();
    let mut acc_of: HashMap<TenantId, usize> = HashMap::new();
    for spec in &scenario.initial {
        let id = registry.admit(spec.clone(), start)?;
        acc_of.insert(id, accs.len());
        accs.push(TenantAcc::new(spec, start));
    }

    // Stable sort: simultaneous events keep scenario order, so a
    // leave+join at the same instant is applied the way it was written.
    let mut churn = scenario.churn.clone();
    churn.sort_by_key(|e| e.at);
    for event in &churn {
        if event.at <= start || event.at >= end {
            return Err(ServeError::InvalidConfig {
                what: format!(
                    "churn at {} must fall strictly inside the window [{start}, {end})",
                    event.at
                ),
            });
        }
    }
    let mut boundaries = vec![start];
    for event in &churn {
        if *boundaries.last().expect("non-empty") != event.at {
            boundaries.push(event.at);
        }
    }
    boundaries.push(end);

    let mut cache = MappingCache::new();
    let mut prev: Option<PrevMapping> = None;
    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut totals = ServeTotals::default();
    let mut next_churn = 0usize;

    for pair in boundaries.windows(2) {
        let (epoch_start, epoch_end) = (pair[0], pair[1]);
        while next_churn < churn.len() && churn[next_churn].at == epoch_start {
            match &churn[next_churn].action {
                ChurnAction::Join(spec) => {
                    let id = registry.admit(spec.clone(), epoch_start)?;
                    acc_of.insert(id, accs.len());
                    accs.push(TenantAcc::new(spec, epoch_start));
                }
                ChurnAction::Leave(name) => {
                    let entry = registry.retire(name)?;
                    let slot = acc_slot(&acc_of, entry.id, &entry.spec.name)?;
                    accs[slot].left_at = Some(epoch_start);
                }
            }
            next_churn += 1;
        }

        if registry.is_empty() {
            // Nothing to map: an idle epoch, and the previous mapping
            // goes stale (a later rejoin re-resolves from the cache or
            // a fresh tune rather than carrying from a dead mix).
            prev = None;
            epochs.push(EpochRecord {
                start_us: epoch_start.as_micros(),
                end_us: epoch_end.as_micros(),
                tenants: Vec::new(),
                mapping: MappingSource::Idle,
                drift: None,
                nmp: None,
                score_bits: None,
                utilization: 0.0,
                shed: 0,
                completed: 0,
                energy_mj: 0.0,
            });
            continue;
        }

        let mix = registry.mix();
        let networks = registry.networks();
        let problem = mix.build_problem(config.platform.build(), &config.zoo.config())?;
        let drift = cache.drift_from_last_tuned(&networks);

        let (candidate, source, nmp, score_bits) = if let Some(entry) =
            cache.lookup(config.platform, &mix)
        {
            totals.cache_replays += 1;
            (
                entry.candidate.clone(),
                MappingSource::Cached,
                Some(entry.selection.config),
                Some(entry.score_bits),
            )
        } else if let (Some(p), Some(d)) = (&prev, drift) {
            if d <= config.drift_threshold {
                totals.carried += 1;
                let carried =
                    carry_over_mapping(&p.problem, &p.candidate, &p.networks, &problem, &networks);
                (carried, MappingSource::Carried, None, None)
            } else {
                let (c, n, s) = tune_mix(config, &mix, &problem, &mut cache)?;
                totals.tunes += 1;
                if !epochs.is_empty() {
                    totals.retunes += 1;
                }
                (c, MappingSource::Tuned, Some(n), Some(s))
            }
        } else {
            let (c, n, s) = tune_mix(config, &mix, &problem, &mut cache)?;
            totals.tunes += 1;
            if !epochs.is_empty() {
                totals.retunes += 1;
            }
            (c, MappingSource::Tuned, Some(n), Some(s))
        };

        let stats = run_epoch(
            config,
            &admission,
            TimeWindow::new(epoch_start, epoch_end),
            &registry,
            &problem,
            &candidate,
            &acc_of,
            &mut accs,
        )?;

        epochs.push(EpochRecord {
            start_us: epoch_start.as_micros(),
            end_us: epoch_end.as_micros(),
            tenants: registry
                .live()
                .iter()
                .map(|t| t.spec.name.clone())
                .collect(),
            mapping: source,
            drift,
            nmp,
            score_bits,
            utilization: stats.utilization,
            shed: stats.shed,
            completed: stats.completed,
            energy_mj: stats.energy_mj,
        });
        prev = Some(PrevMapping {
            problem,
            candidate,
            networks,
        });
    }

    for acc in &accs {
        totals.arrivals += acc.arrivals;
        totals.admitted += acc.admitted;
        totals.shed_saturated += acc.shed_saturated;
        totals.shed_ingress_full += acc.shed_ingress_full;
        totals.completed += acc.completed;
        totals.dropped += acc.dropped;
        totals.energy_mj += acc.energy_mj;
    }

    let report = ServeReport {
        platform: config.platform.name().to_string(),
        start_us: start.as_micros(),
        end_us: end.as_micros(),
        watermark: config.watermark,
        drift_threshold: config.drift_threshold,
        tenants: accs.into_iter().map(TenantAcc::into_report).collect(),
        epochs,
        totals,
    };
    Ok(ServeOutcome {
        report,
        mappings: cache,
    })
}

/// Runs the auto-tuner over the single-mix spec, replays the winning
/// `NmpConfig` to get the mapping, and caches the result.
fn tune_mix(
    config: &ServeConfig,
    mix: &TaskMix,
    problem: &MultiTaskProblem,
    cache: &mut MappingCache,
) -> Result<(Candidate, NmpConfig, u64), ServeError> {
    let tuner = AutoTuner::new(config.objective);
    let report = tuner.tune_spec(&config.tune_spec_for(mix.clone()), config.workers)?;
    let selection = report
        .selection_for_mix(config.platform, mix)
        .ok_or_else(|| ServeError::NoSelection { mix: mix.name() })?
        .clone();
    // The mapping is not stored in the selection — it is *replayed*
    // from the NmpConfig, which is the whole determinism story: the
    // same bits come back on any machine, any worker count.
    let search = selection.replay_search(problem)?;
    let score_bits = search.report.score.to_bits();
    let candidate = search.best.clone();
    let nmp = selection.config;
    cache.insert(MixEntry {
        mix: mix.clone(),
        platform: config.platform,
        zoo: config.zoo,
        selection,
        candidate: candidate.clone(),
        score_bits,
    });
    Ok((candidate, nmp, score_bits))
}

/// One churn-free epoch: phased arrivals through admission + ingress
/// into the engine, then a drain and per-tenant accounting.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    config: &ServeConfig,
    admission: &AdmissionController,
    window: TimeWindow,
    registry: &TenantRegistry,
    problem: &MultiTaskProblem,
    candidate: &Candidate,
    acc_of: &HashMap<TenantId, usize>,
    accs: &mut [TenantAcc],
) -> Result<EpochStats, ServeError> {
    let live = registry.live();
    let tasks = live.len();
    let timeline = DeviceTimeline::new(problem.platform().queue_count());
    let mut engine =
        ExecEngine::new(window.start(), timeline, tasks, ENGINE_QUEUE_CAPACITY)?.with_job_records();
    let mut model = MappedJobModel::new(problem, candidate);

    // task index (admission order) → run-wide accumulator index, through
    // the checked id → slot map (a live tenant without a slot is an
    // error, not a release-mode index panic).
    let acc_idx: Vec<usize> = live
        .iter()
        .map(|t| {
            let slot = acc_slot(acc_of, t.id, &t.spec.name)?;
            if slot >= accs.len() {
                return Err(ServeError::MissingAccumulator {
                    name: t.spec.name.clone(),
                    id: t.id.0,
                });
            }
            Ok(slot)
        })
        .collect::<Result<_, _>>()?;
    let phases: Vec<Timestamp> = live.iter().map(|t| t.joined_at).collect();
    let periods: Vec<TimeDelta> = live.iter().map(|t| t.spec.period).collect();

    let mut ingress: Vec<VecDeque<JobInput>> = (0..tasks).map(|_| VecDeque::new()).collect();
    let mut epoch_shed = 0u64;
    let mut failure: Option<ev_edge::EvEdgeError> = None;

    for_each_phased_arrival(window, &phases, &periods, |arrival, task| {
        let acc = &mut accs[acc_idx[task]];
        acc.arrivals += 1;
        engine.note_arrival(task);
        // Front door first (reject-newest): the watermark, then the
        // bounded ingress queue. A shed arrival never displaces
        // admitted work.
        match admission.check(&engine, arrival - window.start()) {
            Err(_) => {
                acc.shed_saturated += 1;
                epoch_shed += 1;
            }
            Ok(_) => {
                if ingress[task].len() >= config.ingress_capacity {
                    acc.shed_ingress_full += 1;
                    epoch_shed += 1;
                } else {
                    ingress[task].push_back(JobInput::arrival(arrival));
                    acc.admitted += 1;
                }
            }
        }
        // Pump: feed each idle task its next ingress input and serve,
        // until no task can make progress at this instant.
        loop {
            let mut progressed = false;
            for (t, queue) in ingress.iter_mut().enumerate() {
                if engine.task_idle_at(t, arrival) {
                    if let Some(job) = queue.pop_front() {
                        engine.enqueue(t, job);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
            if let Err(e) = engine.service_all(arrival, &mut model) {
                failure = Some(e);
                return false;
            }
        }
        true
    });
    if let Some(e) = failure {
        return Err(e.into());
    }

    // Sample the admission signal before the drain books tail work.
    let utilization = engine.device_utilization(window.end() - window.start());

    // Drain: everything admitted runs, one ingress input at a time so
    // the engine's bounded queue never drops admitted work.
    for (t, queue) in ingress.iter_mut().enumerate() {
        while let Some(job) = queue.pop_front() {
            engine.enqueue(t, job);
            engine.drain(t, &mut model)?;
        }
    }
    engine.drain_all(&mut model)?;

    let report = engine.finish(problem.platform().static_power_w);

    // Attribute energy by device-occupancy share (job records), falling
    // back to completed counts when no occupancy was booked.
    let mut occupancy = vec![0i64; tasks];
    for job in &report.jobs {
        occupancy[job.task] += (job.end - job.start).as_micros();
    }
    let total_occupancy: i64 = occupancy.iter().sum();
    let total_completed: u64 = report.per_task.iter().map(|t| t.completed).sum();
    let energy_mj = report.energy.as_millijoules();

    for (task, stats) in report.per_task.iter().enumerate() {
        let acc = &mut accs[acc_idx[task]];
        acc.completed += stats.completed;
        acc.dropped += stats.dropped;
        acc.latency_sum_us += stats.mean_latency.as_micros() * stats.completed as i64;
        acc.max_latency_us = acc.max_latency_us.max(stats.max_latency.as_micros());
        let share = if total_occupancy > 0 {
            occupancy[task] as f64 / total_occupancy as f64
        } else if total_completed > 0 {
            stats.completed as f64 / total_completed as f64
        } else if tasks > 0 {
            1.0 / tasks as f64
        } else {
            0.0
        };
        acc.energy_mj += share * energy_mj;
    }

    Ok(EpochStats {
        utilization,
        shed: epoch_shed,
        completed: total_completed,
        energy_mj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, network: NetworkId, period_us: i64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            network,
            period: TimeDelta::from_micros(period_us),
        }
    }

    fn quick_config(window_ms: u64) -> ServeConfig {
        let mut config = ServeConfig::new(TimeWindow::new(
            Timestamp::ZERO,
            Timestamp::from_millis(window_ms),
        ));
        config.tune_populations = vec![3];
        config.tune_generations = vec![2];
        config
    }

    #[test]
    fn config_validation_names_the_field() {
        let mut config = quick_config(4);
        config.ingress_capacity = 0;
        let err = config.validate().unwrap_err();
        assert!(err.to_string().contains("ingress_capacity"));
        let mut config = quick_config(4);
        config.window = TimeWindow::new(Timestamp::from_millis(1), Timestamp::from_millis(1));
        assert!(config.validate().is_err());
    }

    #[test]
    fn churn_outside_the_window_is_rejected() {
        let config = quick_config(4);
        let scenario = ServeScenario {
            initial: vec![spec("a", NetworkId::Dotie, 500)],
            churn: vec![ChurnEvent {
                at: Timestamp::from_millis(4),
                action: ChurnAction::Leave("a".to_string()),
            }],
        };
        assert!(matches!(
            run_service(&scenario, &config),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn single_tenant_run_is_accounted_and_idle_epochs_are_free() {
        let config = quick_config(4);
        let scenario = ServeScenario {
            initial: vec![spec("solo", NetworkId::Dotie, 800)],
            churn: vec![ChurnEvent {
                at: Timestamp::from_millis(2),
                action: ChurnAction::Leave("solo".to_string()),
            }],
        };
        let outcome = run_service(&scenario, &config).unwrap();
        let report = &outcome.report;
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].mapping, MappingSource::Tuned);
        assert_eq!(report.epochs[1].mapping, MappingSource::Idle);
        assert_eq!(report.epochs[1].completed, 0);
        assert_eq!(report.tenants.len(), 1);
        let solo = &report.tenants[0];
        assert_eq!(solo.left_at_us, Some(2_000));
        assert!(solo.arrivals > 0);
        assert_eq!(
            solo.arrivals,
            solo.admitted + solo.shed_saturated + solo.shed_ingress_full
        );
        assert!(solo.completed > 0);
        assert_eq!(report.totals.tunes, 1);
        assert_eq!(report.totals.retunes, 0);
        // All run energy lands on the only tenant.
        let epoch_energy: f64 = report.epochs.iter().map(|e| e.energy_mj).sum();
        assert!((solo.energy_mj - epoch_energy).abs() < 1e-9);
    }

    #[test]
    fn rejoining_the_same_mix_replays_the_cache() {
        let config = quick_config(6);
        let scenario = ServeScenario {
            initial: vec![spec("a", NetworkId::Dotie, 700)],
            churn: vec![
                ChurnEvent {
                    at: Timestamp::from_millis(2),
                    action: ChurnAction::Leave("a".to_string()),
                },
                ChurnEvent {
                    at: Timestamp::from_millis(4),
                    action: ChurnAction::Join(spec("a2", NetworkId::Dotie, 700)),
                },
            ],
        };
        let outcome = run_service(&scenario, &config).unwrap();
        let report = &outcome.report;
        assert_eq!(
            report.epochs.iter().map(|e| e.mapping).collect::<Vec<_>>(),
            vec![
                MappingSource::Tuned,
                MappingSource::Idle,
                MappingSource::Cached
            ]
        );
        assert_eq!(report.totals.tunes, 1);
        assert_eq!(report.totals.cache_replays, 1);
        // The cached epoch replays the same search bits.
        assert_eq!(report.epochs[0].score_bits, report.epochs[2].score_bits);
        assert!(outcome.mappings.verify_replays().unwrap());
    }

    #[test]
    fn small_drift_carries_the_mapping_instead_of_retuning() {
        // 9 tenants of the same network; a 10th joining drifts by
        // 1/10 = 0.1 ≤ threshold 0.1 → carried, not retuned. A leave
        // back to 9 then hits the cache? No — mix of 9 was tuned, so
        // the leave returns to the cached 9-mix.
        let mut config = quick_config(6);
        config.drift_threshold = 0.1;
        let initial: Vec<TenantSpec> = (0..9)
            .map(|i| spec(&format!("t{i}"), NetworkId::Dotie, 900))
            .collect();
        let scenario = ServeScenario {
            initial,
            churn: vec![ChurnEvent {
                at: Timestamp::from_millis(3),
                action: ChurnAction::Join(spec("late", NetworkId::Dotie, 900)),
            }],
        };
        let outcome = run_service(&scenario, &config).unwrap();
        let report = &outcome.report;
        assert_eq!(report.epochs[0].mapping, MappingSource::Tuned);
        assert_eq!(report.epochs[1].mapping, MappingSource::Carried);
        assert!((report.epochs[1].drift.unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(report.totals.tunes, 1);
        assert_eq!(report.totals.retunes, 0);
        assert_eq!(report.totals.carried, 1);
    }

    #[test]
    fn run_epoch_resolves_accumulators_through_the_map_not_raw_ids() {
        // Admit two tenants, retire the first: the surviving tenant has
        // id 1, but the accounting table we hand to the epoch holds its
        // accumulator at slot 0. Raw-id indexing (the old
        // `accs[t.id.0 as usize]`) would step past the one-element
        // slice; the explicit map resolves — and is checked.
        let config = quick_config(4);
        let admission = AdmissionController::new(config.watermark).unwrap();
        let stays = spec("stays", NetworkId::Dotie, 500);
        let mut registry = TenantRegistry::new(8);
        registry
            .admit(spec("gone", NetworkId::Dotie, 500), Timestamp::ZERO)
            .unwrap();
        let id = registry.admit(stays.clone(), Timestamp::ZERO).unwrap();
        registry.retire("gone").unwrap();
        assert_eq!(id.0, 1, "the live tenant's id must not equal its slot");

        let mix = registry.mix();
        let problem = mix
            .build_problem(config.platform.build(), &config.zoo.config())
            .unwrap();
        let candidate = ev_edge::nmp::baseline::rr_network(&problem);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(2));

        let mut accs = vec![TenantAcc::new(&stays, Timestamp::ZERO)];
        let mut acc_of = HashMap::new();
        acc_of.insert(id, 0usize);
        let stats = run_epoch(
            &config, &admission, window, &registry, &problem, &candidate, &acc_of, &mut accs,
        )
        .unwrap();
        assert!(accs[0].arrivals > 0);
        assert_eq!(stats.completed, accs[0].completed);

        // A live tenant with no slot fails loudly, naming the tenant,
        // instead of charging whatever lives at a stale index.
        let err = run_epoch(
            &config,
            &admission,
            window,
            &registry,
            &problem,
            &candidate,
            &HashMap::new(),
            &mut accs,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::MissingAccumulator { .. }));
        assert!(err.to_string().contains("stays"));

        // Likewise a slot pointing past the accounting table.
        let mut desynced = HashMap::new();
        desynced.insert(id, 7usize);
        let err = run_epoch(
            &config, &admission, window, &registry, &problem, &candidate, &desynced, &mut accs,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::MissingAccumulator { .. }));
    }

    #[test]
    fn interleaved_churn_attributes_to_the_right_tenants() {
        // Leave/join interleaving drives the full admit→retire→admit
        // lifecycle through the id→slot map: retired tenants keep their
        // history, late joiners get fresh slots, and every retirement
        // lands on the accumulator with the matching name.
        let config = quick_config(5);
        let scenario = ServeScenario {
            initial: vec![
                spec("a", NetworkId::Dotie, 600),
                spec("b", NetworkId::Dotie, 700),
            ],
            churn: vec![
                ChurnEvent {
                    at: Timestamp::from_millis(1),
                    action: ChurnAction::Leave("a".to_string()),
                },
                ChurnEvent {
                    at: Timestamp::from_millis(2),
                    action: ChurnAction::Join(spec("c", NetworkId::Dotie, 600)),
                },
                ChurnEvent {
                    at: Timestamp::from_millis(3),
                    action: ChurnAction::Leave("b".to_string()),
                },
            ],
        };
        let report = run_service(&scenario, &config).unwrap().report;
        let names: Vec<&str> = report.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        let by_name = |n: &str| report.tenants.iter().find(|t| t.name == n).unwrap();
        assert_eq!(by_name("a").left_at_us, Some(1_000));
        assert_eq!(by_name("b").left_at_us, Some(3_000));
        assert_eq!(by_name("c").left_at_us, None);
        assert_eq!(by_name("c").joined_at_us, 2_000);
        // Arrivals only while live: "a" saw 1 ms of window, "c" 3 ms.
        assert!(by_name("a").arrivals > 0);
        assert!(by_name("c").arrivals > by_name("a").arrivals);
        let tenant_arrivals: u64 = report.tenants.iter().map(|t| t.arrivals).sum();
        assert_eq!(tenant_arrivals, report.totals.arrivals);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let config = quick_config(4);
        let scenario = ServeScenario {
            initial: vec![
                spec("a", NetworkId::Dotie, 600),
                spec("b", NetworkId::E2Depth, 900),
            ],
            churn: vec![ChurnEvent {
                at: Timestamp::from_millis(2),
                action: ChurnAction::Join(spec("c", NetworkId::Halsie, 700)),
            }],
        };
        let report = run_service(&scenario, &config).unwrap().report;
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
