//! The service driver: epochs between churn boundaries.
//!
//! `run_service` slices the service window at every tenant join/leave
//! into **epochs**. Each epoch runs the live mix through one
//! `ExecEngine` over a `DeviceTimeline`, with arrivals generated by
//! the multipipe phase-preserving scheduler (each tenant keeps the
//! cadence anchor it joined with, so slicing the window at churn
//! boundaries never perturbs the arrival sequence). Each arrival goes
//! straight into its tenant's engine queue, the paper's §4.2 bounded
//! inference queue, unless it is shed, newest first: as saturated when
//! mean PE utilization is at the watermark, or as ingress-full when the
//! queue already holds `INGRESS_CAPACITY` inputs, so the queue's own
//! drop-oldest rule never fires.
//!
//! The epoch loop pays per state change, not per arrival. After each
//! arrival it offers, it finds the horizon of the next possible state
//! change: the window end, the first instant the engine could start a
//! job, or the next arrival of a tenant whose queue has room. Until
//! then only tenants with full queues arrive, nothing is booked and
//! utilization only falls, so unless the first of those arrivals is
//! saturated they are all ingress-full sheds, counted in one step per
//! tenant. The counters and the report are bit for bit those of
//! offering every arrival one at a time.
//!
//! Everything is simulated time on the caller's thread. `workers` only
//! fans out a tuned epoch's one NMP search (§4.3), whose result is
//! bitwise identical at any worker count, so the returned
//! [`ServeReport`] is bitwise reproducible for a given scenario,
//! config, and seed.

use crate::remap::{carry_over_mapping, MappingCache, MappingSource, MixEntry};
use crate::tenant::{TenantEntry, TenantRegistry, TenantSpec};
use crate::ServeError;
use ev_core::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::exec::{ExecEngine, JobInput, MappedJobModel};
use ev_edge::multipipe::PhasedArrivals;
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::FitnessConfig;
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::{PlatformPreset, SearchAlgorithm, SweepSpec, TaskMix, TuneObjective, ZooPreset};
use ev_edge::EvEdgeError;
use ev_nn::zoo::NetworkId;
use ev_platform::DeviceTimeline;
use serde::{Deserialize, Serialize};

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

/// Inputs a tenant's engine queue holds; an arrival that finds it full
/// is shed as ingress-full.
const INGRESS_CAPACITY: usize = 4;

/// Live tenants the registry admits.
pub(crate) const MAX_TENANTS: usize = 64;

/// Mean per-queue PE utilization at which arrivals are shed as
/// saturated.
const WATERMARK: f64 = 0.75;

/// Mix drift (multiset Jaccard distance from the last tuned mix) above
/// which churn triggers a fresh tune instead of carrying the
/// previous mapping over.
const DRIFT_THRESHOLD: f64 = 0.1;

/// Playback window of a sweep of [`ServeConfig::tune_spec_for`], ms.
const TUNE_WINDOW_MS: u64 = 4;

/// Service-layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The service window driven in simulated time.
    pub window: TimeWindow,
    /// Platform class every epoch maps onto.
    pub platform: PlatformPreset,
    /// Zoo scale for tenant task graphs.
    pub zoo: ZooPreset,
    /// The objective `ev_edge::nmp::tune` would rank
    /// [`ServeConfig::tune_spec_for`]'s cells by. That spec has one
    /// cell, so the objective decides nothing, and serve never reads it.
    pub objective: TuneObjective,
    /// Population of the churn-triggered NMP search.
    pub tune_population: usize,
    /// Generations of the churn-triggered NMP search.
    pub tune_generations: usize,
    /// Base PRNG seed the search's value-derived seed folds in.
    pub base_seed: u64,
    /// Worker threads for the churn-triggered search's candidate
    /// evaluation (`0` = machine parallelism, `1` = serial). Only the
    /// search fans out, and reports are byte-identical at any value.
    pub workers: usize,
}

impl ServeConfig {
    /// Defaults tuned for tests and the `serve_sim` bin: Xavier-class
    /// platform, small zoo, latency objective.
    pub fn new(window: TimeWindow) -> Self {
        ServeConfig {
            window,
            platform: PlatformPreset::XavierAgx,
            zoo: ZooPreset::Small,
            objective: TuneObjective::Latency,
            tune_population: 4,
            tune_generations: 3,
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
        let search = NmpConfig {
            population: self.tune_population,
            generations: self.tune_generations,
            ..NmpConfig::default()
        };
        if let Err(EvEdgeError::InvalidSearchConfig { field }) = search.validate() {
            return invalid(format!("tune_{field} is out of the NMP search's range"));
        }
        Ok(())
    }

    /// The one-cell sweep spec of `mix`, whose cell's search (seed
    /// included) a churn-triggered tune runs.
    pub fn tune_spec_for(&self, mix: TaskMix) -> SweepSpec {
        SweepSpec {
            base_seed: self.base_seed,
            populations: vec![self.tune_population],
            generations: vec![self.tune_generations],
            mutation_layers: vec![1],
            elite_fractions: vec![0.25],
            // Shapes only a sweep's playback, which serve does not run.
            queue_capacities: vec![2],
            platforms: vec![self.platform],
            task_mixes: vec![mix],
            algorithms: vec![SearchAlgorithm::Evolutionary],
            zoo: self.zoo,
            runtime_window_ms: TUNE_WINDOW_MS,
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
    /// epochs only), with `workers: 0` whatever the search ran at.
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
    /// Arrivals admitted into the tenant's engine queue.
    pub admitted: u64,
    /// Arrivals shed at the utilization watermark.
    pub shed_saturated: u64,
    /// Arrivals shed because the engine queue was full.
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
    /// Arrivals shed because an engine queue was full.
    pub shed_ingress_full: u64,
    /// Inferences completed.
    pub completed: u64,
    /// Admitted inputs dropped by engine queues.
    pub dropped: u64,
    /// NMP searches run for tuned epochs (including the initial one).
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

/// A tenant's report: its counters, with the latency sum turned into a
/// mean over completed inferences.
fn tenant_report(entry: TenantEntry) -> TenantReport {
    let c = entry.counters;
    let mean = if c.completed > 0 {
        c.latency_sum_us / c.completed as i64
    } else {
        0
    };
    TenantReport {
        name: entry.spec.name,
        network: entry.spec.network.name().to_string(),
        joined_at_us: entry.joined_at.as_micros(),
        left_at_us: entry.left_at.map(Timestamp::as_micros),
        arrivals: c.arrivals,
        admitted: c.admitted,
        shed_saturated: c.shed_saturated,
        shed_ingress_full: c.shed_ingress_full,
        completed: c.completed,
        dropped: c.dropped,
        mean_latency_us: mean,
        max_latency_us: c.max_latency_us,
        energy_mj: c.energy_mj,
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

/// Runs a scenario through the service layer.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for out-of-range config or
/// churn outside the window, tenant-lifecycle errors from the registry,
/// and propagates exec/search errors.
pub fn run_service(
    scenario: &ServeScenario,
    config: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    config.validate()?;
    let start = config.window.start();
    let end = config.window.end();

    let mut registry = TenantRegistry::new(MAX_TENANTS);
    for spec in &scenario.initial {
        registry.admit(spec.clone(), start)?;
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
                    registry.admit(spec.clone(), epoch_start)?;
                }
                ChurnAction::Leave(name) => registry.retire(name, epoch_start)?,
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

        let carry = prev
            .as_ref()
            .filter(|_| drift.is_some_and(|d| d <= DRIFT_THRESHOLD));
        let (candidate, source, nmp, score_bits) =
            if let Some(entry) = cache.lookup(config.platform, &mix) {
                totals.cache_replays += 1;
                (
                    entry.candidate.clone(),
                    MappingSource::Cached,
                    Some(entry.nmp),
                    Some(entry.score_bits),
                )
            } else if let Some(p) = carry {
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
            };

        let stats = run_epoch(
            TimeWindow::new(epoch_start, epoch_end),
            &mut registry,
            &problem,
            &candidate,
        )?;

        epochs.push(EpochRecord {
            start_us: epoch_start.as_micros(),
            end_us: epoch_end.as_micros(),
            tenants: registry.live().map(|t| t.spec.name.clone()).collect(),
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

    let tenants: Vec<TenantReport> = registry
        .into_tenants()
        .into_iter()
        .map(tenant_report)
        .collect();
    for t in &tenants {
        totals.arrivals += t.arrivals;
        totals.admitted += t.admitted;
        totals.shed_saturated += t.shed_saturated;
        totals.shed_ingress_full += t.shed_ingress_full;
        totals.completed += t.completed;
        totals.dropped += t.dropped;
        totals.energy_mj += t.energy_mj;
    }

    let report = ServeReport {
        platform: config.platform.name().to_string(),
        start_us: start.as_micros(),
        end_us: end.as_micros(),
        watermark: WATERMARK,
        drift_threshold: DRIFT_THRESHOLD,
        tenants,
        epochs,
        totals,
    };
    Ok(ServeOutcome {
        report,
        mappings: cache,
    })
}

/// Runs the search of `tune_spec_for(mix)`'s one cell on the epoch's
/// problem at `config.workers`, and caches the mapping with the cell's
/// `NmpConfig` (`workers: 0`), which replays it bit for bit anywhere.
fn tune_mix(
    config: &ServeConfig,
    mix: &TaskMix,
    problem: &MultiTaskProblem,
    cache: &mut MappingCache,
) -> Result<(Candidate, NmpConfig, u64), ServeError> {
    // Every axis of the spec holds one value, so it has exactly one cell.
    let nmp = config.tune_spec_for(mix.clone()).cells()?[0].nmp_config(0);
    let run = NmpConfig {
        workers: config.workers,
        ..nmp
    };
    let search = run_nmp(problem, run, FitnessConfig::default())?;
    let score_bits = search.report.score.to_bits();
    cache.insert(MixEntry {
        mix: mix.clone(),
        platform: config.platform,
        zoo: config.zoo,
        nmp,
        candidate: search.best.clone(),
        score_bits,
    });
    Ok((search.best, nmp, score_bits))
}

/// Whether an arrival `elapsed` into the epoch is shed as saturated:
/// mean per-queue PE utilization at or above the watermark.
fn saturated(engine: &ExecEngine<DeviceTimeline>, elapsed: TimeDelta) -> bool {
    engine.device_utilization(elapsed) >= WATERMARK
}

/// One churn-free epoch: the arrivals are offered one at a time after
/// each state change and shed in bulk while only full queues receive
/// any, then the queues drain and each live tenant's counters take its
/// share.
fn run_epoch(
    window: TimeWindow,
    registry: &mut TenantRegistry,
    problem: &MultiTaskProblem,
    candidate: &Candidate,
) -> Result<EpochStats, ServeError> {
    let mut epoch = Epoch::new(window, registry, problem, candidate)?;
    let (phases, periods) = epoch.cadences();
    let mut arrivals = PhasedArrivals::new(window, &phases, &periods);
    while let Some((arrival, task)) = arrivals.next() {
        epoch.offer(arrival, task)?;
        epoch.shed_while_full(&mut arrivals);
    }
    epoch.close(problem)
}

/// What [`Epoch::shed_while_full`] did after one offered arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BulkShed {
    /// No full queue's tenant arrives before the next state change.
    Nothing,
    /// This many arrivals were shed as ingress-full in one step.
    Shed(u64),
    /// The first of them is shed as saturated, so the arrivals go one
    /// at a time.
    Saturated,
}

/// One churn-free epoch in flight: the live tenants' entries in task
/// order (admission order among the live), their engine queues and the
/// mapped job model.
struct Epoch<'r> {
    window: TimeWindow,
    live: Vec<&'r mut TenantEntry>,
    engine: ExecEngine<DeviceTimeline>,
    model: MappedJobModel,
    shed: u64,
}

impl<'r> Epoch<'r> {
    fn new(
        window: TimeWindow,
        registry: &'r mut TenantRegistry,
        problem: &MultiTaskProblem,
        candidate: &Candidate,
    ) -> Result<Self, ServeError> {
        let live: Vec<&mut TenantEntry> = registry.live_mut().collect();
        let timeline = DeviceTimeline::new(problem.platform().queue_count());
        let engine = ExecEngine::new(window.start(), timeline, live.len(), INGRESS_CAPACITY)?;
        Ok(Epoch {
            window,
            live,
            engine,
            model: MappedJobModel::new(problem, candidate),
            shed: 0,
        })
    }

    /// Each live tenant's arrival phase (its join time) and period.
    fn cadences(&self) -> (Vec<Timestamp>, Vec<TimeDelta>) {
        self.live
            .iter()
            .map(|t| (t.joined_at, t.spec.period))
            .unzip()
    }

    /// Offers one arrival: shed newest first (a shed arrival never
    /// displaces queued work) or queued, then every task that can start
    /// by `arrival` is served.
    fn offer(&mut self, arrival: Timestamp, task: usize) -> Result<(), ServeError> {
        let counters = &mut self.live[task].counters;
        counters.arrivals += 1;
        if saturated(&self.engine, arrival - self.window.start()) {
            counters.shed_saturated += 1;
            self.shed += 1;
        } else if self.engine.pending(task) >= INGRESS_CAPACITY {
            counters.shed_ingress_full += 1;
            self.shed += 1;
        } else {
            self.engine.enqueue(task, JobInput::arrival(arrival));
            counters.admitted += 1;
        }
        self.engine.service_all(arrival, &mut self.model)?;
        Ok(())
    }

    /// Sheds, in one step, every arrival that offering them one at a
    /// time would shed as ingress-full before the next state change.
    ///
    /// The horizon `H` is the earliest of the window end, the first
    /// instant the engine could start a job, and the next arrival of
    /// each tenant whose queue has room. Before `H` nothing starts, so
    /// no full queue drains, and no arrival can be admitted, so nothing
    /// is booked: utilization, booked busy time over elapsed time, only
    /// falls. So if the earliest arrival of a full queue's tenant before
    /// `H` is not saturated, none of them is, and every one is shed as
    /// ingress-full; otherwise they are left to [`Epoch::offer`]. That
    /// earliest arrival comes after the four the queue admitted, so the
    /// elapsed time it reads is positive.
    fn shed_while_full(&mut self, arrivals: &mut PhasedArrivals) -> BulkShed {
        let mut horizon = self.window.end();
        if let Some(start) = self.engine.next_start() {
            horizon = horizon.min(start);
        }
        let mut first_full: Option<Timestamp> = None;
        for task in 0..self.live.len() {
            let Some(next) = arrivals.peek(task) else {
                continue;
            };
            if self.engine.pending(task) < INGRESS_CAPACITY {
                horizon = horizon.min(next);
            } else if first_full.is_none_or(|first| next < first) {
                first_full = Some(next);
            }
        }
        let Some(first) = first_full.filter(|&first| first < horizon) else {
            return BulkShed::Nothing;
        };
        if saturated(&self.engine, first - self.window.start()) {
            return BulkShed::Saturated;
        }
        let mut shed = 0;
        for (task, tenant) in self.live.iter_mut().enumerate() {
            if self.engine.pending(task) >= INGRESS_CAPACITY {
                let skipped = arrivals.skip_before(task, horizon);
                tenant.counters.arrivals += skipped;
                tenant.counters.shed_ingress_full += skipped;
                shed += skipped;
            }
        }
        self.shed += shed;
        BulkShed::Shed(shed)
    }

    /// Drains the queues and gives each live tenant its share of the
    /// epoch's outcome.
    fn close(mut self, problem: &MultiTaskProblem) -> Result<EpochStats, ServeError> {
        // Sample utilization before the drain books tail work.
        let utilization = self
            .engine
            .device_utilization(self.window.end() - self.window.start());
        self.engine.drain_all(&mut self.model)?;
        let report = self.engine.finish(problem.platform().static_power_w);

        // Attribute energy by booked device-occupancy share, falling
        // back to completed counts when no occupancy was booked.
        let tasks = self.live.len();
        let total_booked: i64 = report.per_task.iter().map(|t| t.booked).sum();
        let total_completed: u64 = report.per_task.iter().map(|t| t.completed).sum();
        let energy_mj = report.energy.as_millijoules();

        for (task, stats) in report.per_task.iter().enumerate() {
            let counters = &mut self.live[task].counters;
            counters.completed += stats.completed;
            counters.dropped += stats.dropped;
            counters.latency_sum_us += stats.mean_latency.as_micros() * stats.completed as i64;
            counters.max_latency_us = counters.max_latency_us.max(stats.max_latency.as_micros());
            let share = if total_booked > 0 {
                stats.booked as f64 / total_booked as f64
            } else if total_completed > 0 {
                stats.completed as f64 / total_completed as f64
            } else {
                1.0 / tasks as f64
            };
            counters.energy_mj += share * energy_mj;
        }

        Ok(EpochStats {
            utilization,
            shed: self.shed,
            completed: total_completed,
            energy_mj,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_edge::exec::BatchCostModel;
    use ev_edge::nmp::baseline;
    use ev_edge::nmp::evolution::{MAX_GENERATIONS, MAX_POPULATION};
    use ev_platform::energy::Energy;
    use proptest::prelude::*;
    use proptest::{ProptestConfig, TestRunner};

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
        config.tune_population = 3;
        config.tune_generations = 2;
        config
    }

    #[test]
    fn config_validation_names_the_field() {
        // 0, below the lower bound and past the cap fail before any
        // epoch runs; the caps pass.
        for (population, generations, field) in [
            (0, 2, "tune_population"),
            (1, 2, "tune_population"),
            (MAX_POPULATION + 1, 2, "tune_population"),
            (3, 0, "tune_generations"),
            (3, MAX_GENERATIONS + 1, "tune_generations"),
        ] {
            let mut config = quick_config(4);
            (config.tune_population, config.tune_generations) = (population, generations);
            let err = run_service(&ServeScenario::default(), &config).unwrap_err();
            assert!(err.to_string().contains(field), "{err}");
        }
        let mut config = quick_config(4);
        (config.tune_population, config.tune_generations) = (MAX_POPULATION, MAX_GENERATIONS);
        assert!(config.validate().is_ok());
        let mut config = quick_config(4);
        config.window = TimeWindow::new(Timestamp::from_millis(1), Timestamp::from_millis(1));
        let err = config.validate().unwrap_err();
        assert!(err.to_string().contains("window"), "{err}");
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
    fn one_tenant_queue_rejects_the_newest_at_capacity() {
        // DOTIE alone runs 13 µs per inference on the quick-tuned
        // mapping. Arrivals come every 5 µs over 100 µs: 20 offered at
        // 0, 5, …, 95. Every job ends with inputs waiting, so the jobs
        // run back to back over [13j, 13j + 13). An arrival is queued
        // unless 4 inputs already wait. By hand:
        //   t   0  5 10 15 20 25 30 35 40 45 50 55 60 65 70 75 80 85 90 95
        //   q   0  0  1  2  2  3  4  3  4  3  4  4  3  4  3  4  4  3  4  4
        //       (inputs waiting when the arrival lands)
        //   →   A  A  A  A  A  A  S  A  S  A  S  S  A  S  A  S  S  A  S  S
        // 11 admitted, 9 shed as ingress-full. Utilization peaks at
        // 13 µs booked over 5 PE queues × 5 µs = 0.52, under the
        // watermark, so nothing sheds as saturated. The drain runs the
        // three inputs still waiting: all 11 complete and the engine
        // queue drops none. The longest wait is the input queued at 70,
        // which ends at 130: 60 µs, which also pins the 13 µs job.
        let mut config = quick_config(4);
        config.window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(100));
        let scenario = ServeScenario {
            initial: vec![spec("solo", NetworkId::Dotie, 5)],
            churn: Vec::new(),
        };
        let report = run_service(&scenario, &config).unwrap().report;
        let solo = &report.tenants[0];
        assert_eq!(solo.arrivals, 20);
        assert_eq!(solo.admitted, 11);
        assert_eq!(solo.shed_ingress_full, 9);
        assert_eq!(solo.shed_saturated, 0);
        assert_eq!(solo.completed, 11);
        assert_eq!(solo.dropped, 0);
        assert_eq!(solo.max_latency_us, 60);
    }

    #[test]
    fn sheds_at_and_above_the_watermark() {
        // One PE queue with 3 s booked; at these values utilization is
        // exact in binary.
        let mut engine =
            ExecEngine::new(Timestamp::ZERO, DeviceTimeline::new(1), 1, INGRESS_CAPACITY).unwrap();
        let mut model = BatchCostModel::new(0, |_, _| Ok((TimeDelta::from_secs(3), Energy::ZERO)));
        engine.enqueue(0, JobInput::arrival(Timestamp::ZERO));
        engine.drain_all(&mut model).unwrap();
        // 3 s over 4 s is exactly the watermark: shed (>=).
        assert_eq!(
            engine.device_utilization(TimeDelta::from_secs(4)),
            WATERMARK
        );
        assert!(saturated(&engine, TimeDelta::from_secs(4)));
        // 3 s over 2 s is 1.5, above it: shed.
        assert!(saturated(&engine, TimeDelta::from_secs(2)));
        // 3 s over 5 s is 0.6, below it: admit.
        assert!(!saturated(&engine, TimeDelta::from_secs(5)));
        // Before any time elapses utilization reads zero: admit.
        assert!(!saturated(&engine, TimeDelta::ZERO));
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
        assert!(outcome.mappings.verify_replays(config.workers).unwrap());
    }

    #[test]
    fn small_drift_carries_the_mapping_instead_of_retuning() {
        // 9 tenants of the same network; a 10th joining drifts by
        // 1/10 = 0.1 ≤ threshold 0.1 → carried, not retuned. A leave
        // back to 9 then hits the cache? No — mix of 9 was tuned, so
        // the leave returns to the cached 9-mix.
        let config = quick_config(6);
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
    fn interleaved_churn_attributes_to_the_right_tenants() {
        // Leave/join interleaving drives the full admit→retire→admit
        // lifecycle through the tenant table: retired tenants keep their
        // history, late joiners get fresh slots, and every retirement
        // lands on the entry with the matching name.
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

    /// The epoch loop without the bulk step: every arrival offered one
    /// at a time. The reference `run_epoch` must match bit for bit.
    fn run_epoch_one_at_a_time(
        window: TimeWindow,
        registry: &mut TenantRegistry,
        problem: &MultiTaskProblem,
        candidate: &Candidate,
    ) -> Result<EpochStats, ServeError> {
        let mut epoch = Epoch::new(window, registry, problem, candidate)?;
        let (phases, periods) = epoch.cadences();
        for (arrival, task) in PhasedArrivals::new(window, &phases, &periods) {
            epoch.offer(arrival, task)?;
        }
        epoch.close(problem)
    }

    /// How often each bulk outcome came up: offers with nothing to
    /// shed in bulk, bulk steps that shed, and saturated fallbacks.
    #[derive(Debug, Default)]
    struct Tally {
        nothing: u64,
        shed: u64,
        saturated: u64,
    }

    /// `run_epoch`'s loop, tallying what each bulk step did.
    fn tally_epoch(
        window: TimeWindow,
        registry: &mut TenantRegistry,
        problem: &MultiTaskProblem,
        candidate: &Candidate,
        tally: &mut Tally,
    ) -> Result<(), ServeError> {
        let mut epoch = Epoch::new(window, registry, problem, candidate)?;
        let (phases, periods) = epoch.cadences();
        let mut arrivals = PhasedArrivals::new(window, &phases, &periods);
        while let Some((arrival, task)) = arrivals.next() {
            epoch.offer(arrival, task)?;
            match epoch.shed_while_full(&mut arrivals) {
                BulkShed::Nothing => tally.nothing += 1,
                BulkShed::Shed(n) => {
                    assert!(n > 0, "a bulk step sheds at least the first arrival");
                    tally.shed += 1;
                }
                BulkShed::Saturated => tally.saturated += 1,
            }
        }
        Ok(())
    }

    /// Every bit of an epoch's outcome.
    fn stats_bits(stats: &EpochStats) -> [u64; 4] {
        [
            stats.utilization.to_bits(),
            stats.shed,
            stats.completed,
            stats.energy_mj.to_bits(),
        ]
    }

    const NETWORKS: [NetworkId; 9] = [
        NetworkId::Dotie,
        NetworkId::EvFlowNet,
        NetworkId::AdaptiveSpikeNet,
        NetworkId::E2Depth,
        NetworkId::Halsie,
        NetworkId::SpikeFlowNet,
        NetworkId::FusionFlowNet,
        NetworkId::GraphNet,
        NetworkId::CornerNet,
    ];

    /// Periods on a coarse, commensurate ladder (so arrivals of tenants
    /// sharing a phase tie), each nudged by up to 2 µs.
    const PERIODS_US: [i64; 13] = [1, 2, 3, 5, 8, 13, 20, 40, 75, 150, 300, 600, 1200];

    /// `run_epoch` sheds in bulk exactly what offering every arrival one
    /// at a time sheds: 1–8 zoo tenants with periods from 1 µs, phases on
    /// a 100 µs grid before and inside the window (many ties), windows
    /// of 0.1–8 ms that end wherever a bulk step would, under both
    /// round-robin mappings. Every bit of the epoch's stats and every
    /// tenant's counters match, and the corpus reaches both bulk sheds
    /// and saturated fallbacks.
    #[test]
    fn bulk_shedding_matches_one_arrival_at_a_time() {
        let strategy = (
            prop::collection::vec(
                (0..NETWORKS.len(), 0..PERIODS_US.len(), 0i64..3, 0u64..130),
                1..9,
            ),
            100u64..8_000,
            any::<bool>(),
        );
        let mut runner = TestRunner::new(ProptestConfig::with_cases(256), "bulk_shedding");
        let mut tally = Tally::default();
        for case in 0..runner.cases() {
            let (tenants, length, rr_layer) = strategy.generate(&mut runner.next_rng());
            let start = Timestamp::from_micros(5_000);
            let window = TimeWindow::new(start, start + TimeDelta::from_micros(length as i64));
            let mut registry = TenantRegistry::new(MAX_TENANTS);
            for (i, &(network, period, nudge, phase)) in tenants.iter().enumerate() {
                let period = PERIODS_US[period] + nudge;
                let spec = spec(&format!("t{i}"), NETWORKS[network], period);
                registry
                    .admit(spec, Timestamp::from_micros(phase * 100))
                    .unwrap();
            }
            let networks = registry.networks();
            let mix = TaskMix::Custom {
                networks,
                delta_scale: 1.0,
            };
            let problem = mix
                .build_problem(
                    PlatformPreset::XavierAgx.build(),
                    &ZooPreset::Small.config(),
                )
                .unwrap();
            let candidate = if rr_layer {
                baseline::rr_layer(&problem)
            } else {
                baseline::rr_network(&problem)
            };
            let mut bulk = registry.clone();
            let mut reference = registry.clone();
            let got = run_epoch(window, &mut bulk, &problem, &candidate).unwrap();
            let want =
                run_epoch_one_at_a_time(window, &mut reference, &problem, &candidate).unwrap();
            assert_eq!(
                stats_bits(&got),
                stats_bits(&want),
                "case {case}: {got:?} != {want:?}"
            );
            for (b, r) in bulk.live().zip(reference.live()) {
                assert_eq!(
                    format!("{:?}", b.counters),
                    format!("{:?}", r.counters),
                    "case {case}, tenant {}",
                    b.spec.name
                );
            }
            tally_epoch(window, &mut registry, &problem, &candidate, &mut tally).unwrap();
        }
        assert!(tally.shed > 0, "no bulk shed in the corpus: {tally:?}");
        assert!(
            tally.saturated > 0,
            "no saturated fallback in the corpus: {tally:?}"
        );
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
