//! The five workloads: set-up, the untraced entry-point iteration, the
//! traced reconstruction, and the checks on what each one outputs.
//!
//! Every workload is single-threaded on the host (`ExecMode::Serial`,
//! `NmpConfig.workers = 1`, `ServeConfig.workers = 1`) and derives every
//! generated input from the benchmark seed, XORed into the seed the
//! repository's own scenario uses. The program only receives the
//! generated inputs.

use crate::trace::{self, count, span, IterationTrace, TimedModel, TimedTimeline};
use ev_core::generator::{RateProfile, SpatialModel, StatisticalGenerator};
use ev_core::{SensorGeometry, TimeDelta, TimeWindow, Timestamp};
use ev_datasets::mvsec::SequenceId;
use ev_edge::dsfa::{CMode, DsfaConfig};
use ev_edge::e2sf::{E2sf, E2sfConfig};
use ev_edge::exec::{DsfaStage, EventClock, ExecEngine, JobInput, MappedJobModel, Stage};
use ev_edge::multipipe::{
    for_each_phased_arrival, run_multi_task_runtime, run_multi_task_streams,
    MultiTaskRuntimeConfig, MultiTaskRuntimeReport, StreamTask, TaskRuntimeReport,
};
use ev_edge::nmp::baseline;
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig, SearchResult};
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator, FitnessReport};
use ev_edge::nmp::multitask::{MultiTaskProblem, TaskSpec};
use ev_edge::nmp::sweep::near_saturation_periods;
use ev_edge::nmp::{AutoTuner, TaskMix};
use ev_edge::EvEdgeError;
use ev_nn::forward::{Activation, Executor, ForwardResult};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use ev_platform::timeline::DeviceTimeline;
use ev_platform::ReservationTimeline;
use ev_serve::{run_service, synthetic_scenario, MappingSource, ServeConfig, ServeOutcome};
use ev_serve::{ServeReport, ServeScenario};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Events → E2SF → DSFA → engine on three concurrent streams.
    Streams,
    /// The Fig. 9 mapping loop: baselines, NMP searches, playback.
    Mapping,
    /// The multi-tenant service at twice saturation with churn.
    Serve,
    /// Real `ev_sparse` forward passes at input density ≈0.01.
    KernelsSparse,
    /// Real `ev_sparse` forward passes at input density ≈0.3.
    KernelsDense,
}

impl WorkloadId {
    /// Every workload, in the default round order.
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::Streams,
        WorkloadId::Mapping,
        WorkloadId::Serve,
        WorkloadId::KernelsSparse,
        WorkloadId::KernelsDense,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Streams => "streams",
            WorkloadId::Mapping => "mapping",
            WorkloadId::Serve => "serve",
            WorkloadId::KernelsSparse => "kernels_sparse",
            WorkloadId::KernelsDense => "kernels_dense",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's inputs for `seed`.
    ///
    /// # Errors
    ///
    /// Returns the message of any set-up failure.
    pub fn setup(self, seed: u64) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            WorkloadId::Streams => Box::new(Streams::new(seed)?),
            WorkloadId::Mapping => Box::new(Mapping::new(seed)?),
            WorkloadId::Serve => Box::new(Serve::new(seed)?),
            WorkloadId::KernelsSparse => Box::new(Kernels::new(seed, SPARSE_RATE)?),
            WorkloadId::KernelsDense => Box::new(Kernels::new(seed, DENSE_RATE)?),
        })
    }
}

/// What one iteration returned, before it is checked.
#[derive(Debug, Clone)]
pub enum Raw {
    /// The streaming runtime report.
    Streams(MultiTaskRuntimeReport),
    /// One outcome per §5 mix.
    Mapping(Vec<MixOutcome>),
    /// The service report.
    Serve(Box<ServeReport>),
    /// Every forward pass, network by network.
    Kernels(Vec<ForwardResult>),
}

/// The Fig. 9 results of one mix.
#[derive(Debug, Clone)]
// The baselines are read only through `Debug`, into the digest.
#[allow(dead_code)]
pub struct MixOutcome {
    rr_network: FitnessReport,
    rr_layer: FitnessReport,
    nmp: SearchResult,
    nmp_fp: SearchResult,
    playback: MultiTaskRuntimeReport,
}

/// The modeled (simulated-time) outputs of an iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    /// Worst per-task/tenant mean latency, simulated ms (mapping: the
    /// mean over mixes of the NMP winner's Eq. 2 latency).
    pub latency_ms: f64,
    /// Worst single job, simulated ms.
    pub max_latency_ms: f64,
    /// Modeled energy over the run or playbacks, mJ.
    pub energy_mj: f64,
    /// (engine drops + serve sheds) / offered inputs.
    pub loss_frac: f64,
    /// Busy share of each platform queue, by queue name (empty where
    /// the report does not expose it).
    pub pe_util: Vec<(String, f64)>,
}

/// A checked iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Hash of the full report, bit for bit.
    pub digest: u64,
    /// Modeled outputs (`None` for the kernel workloads).
    pub modeled: Option<Modeled>,
    /// Broken invariants.
    pub violations: Vec<String>,
}

/// A set-up workload.
pub trait Workload {
    /// One iteration through the repository's public entry point.
    ///
    /// # Errors
    ///
    /// Returns the entry point's error message.
    fn run(&mut self) -> Result<Raw, String>;

    /// One traced iteration that rebuilds the same work from public
    /// calls wrapped in spans; its output must equal [`Workload::run`]'s.
    ///
    /// # Errors
    ///
    /// Returns the first failing call's message.
    fn run_traced(&mut self) -> Result<(Raw, IterationTrace), String>;

    /// Digest, modeled outputs and invariant checks of an iteration.
    fn summarize(&self, raw: &Raw) -> Output;

    /// Work units one iteration performs (known after one iteration).
    fn work_per_iteration(&self) -> f64;
}

/// Rejects an iteration that broke an invariant or whose output differs
/// from the warm-up iteration's.
///
/// # Errors
///
/// Describes the first problem found.
pub fn check(reference_digest: u64, out: &Output) -> Result<(), String> {
    if let Some(v) = out.violations.first() {
        return Err(format!("invariant broken: {v}"));
    }
    if out.digest != reference_digest {
        return Err(format!(
            "output digest {:016x} differs from the warm-up's {reference_digest:016x}",
            out.digest
        ));
    }
    Ok(())
}

/// FNV-1a over bytes.
fn fnv(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a value's `Debug` text, which prints every `f64` in its
/// shortest round-trip form and so pins each bit.
fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{value:?}").as_bytes(), FNV_OFFSET)
}

fn ms(d: TimeDelta) -> f64 {
    d.as_secs_f64() * 1e3
}

fn queue_names(platform: &Platform) -> Vec<String> {
    (0..platform.queue_count())
        .map(|q| {
            if q == platform.memory_queue() {
                "memory".to_string()
            } else {
                platform.elements()[q].name.clone()
            }
        })
        .collect()
}

fn runtime_report(
    problem: &MultiTaskProblem,
    report: ev_edge::exec::EngineReport,
) -> MultiTaskRuntimeReport {
    MultiTaskRuntimeReport {
        per_task: problem
            .tasks()
            .iter()
            .zip(report.per_task)
            .map(|(task, stats)| TaskRuntimeReport {
                name: task.name.clone(),
                arrivals: stats.arrivals,
                completed: stats.completed,
                dropped: stats.dropped,
                mean_latency: stats.mean_latency,
                max_latency: stats.max_latency,
            })
            .collect(),
        makespan: report.makespan,
        energy: report.energy,
        utilization: report.utilization,
    }
}

/// Hands DSFA's batches to the engine.
fn enqueue<T: ReservationTimeline>(engine: &mut ExecEngine<T>, task: usize, jobs: Vec<JobInput>) {
    count("dsfa.batches_out", jobs.len() as f64);
    let _s = span("exec.engine");
    for job in jobs {
        engine.enqueue(task, job);
    }
}

fn engine_counts(report: &MultiTaskRuntimeReport) {
    count(
        "exec.engine.jobs",
        report.per_task.iter().map(|t| t.completed).sum::<u64>() as f64,
    );
    count("exec.engine.dropped", report.total_dropped() as f64);
}

// ---------------------------------------------------------------------
// streams
// ---------------------------------------------------------------------

/// The `exec_modes/streams_serial` scenario of `benches/exec_engine.rs`.
struct Streams {
    problem: MultiTaskProblem,
    candidate: Candidate,
    streams: Vec<StreamTask>,
    config: MultiTaskRuntimeConfig,
    events: u64,
}

impl Streams {
    fn new(seed: u64) -> Result<Self, String> {
        let zoo = ZooConfig::mvsec();
        let task = |n: NetworkId, max_degradation: f64| -> Result<TaskSpec, String> {
            Ok(TaskSpec::new(
                n.build(&zoo).map_err(|e| e.to_string())?,
                n.accuracy_model(),
                max_degradation,
            ))
        };
        let problem = MultiTaskProblem::new(
            Platform::xavier_agx(),
            vec![
                task(NetworkId::FusionFlowNet, 0.07)?,
                task(NetworkId::E2Depth, 0.02)?,
                task(NetworkId::Dotie, 0.04)?,
            ],
        )
        .map_err(|e| e.to_string())?;
        let candidate = baseline::rr_network(&problem);
        let stream = |id: SequenceId, bins: usize, dsfa: DsfaConfig| {
            let mut sequence = id.sequence();
            sequence.seed ^= seed;
            StreamTask {
                sequence,
                bins_per_interval: bins,
                dsfa,
            }
        };
        let streams = vec![
            stream(SequenceId::IndoorFlying1, 8, DsfaConfig::default()),
            stream(
                SequenceId::OutdoorDay1,
                6,
                DsfaConfig {
                    cmode: CMode::CBatch,
                    mb_size: 1,
                    ..DsfaConfig::default()
                },
            ),
            stream(SequenceId::DenseTown10, 8, DsfaConfig::default()),
        ];
        let config = MultiTaskRuntimeConfig::new(TimeWindow::new(
            Timestamp::ZERO,
            Timestamp::from_millis(120),
        ));
        Ok(Streams {
            problem,
            candidate,
            streams,
            config,
            events: 0,
        })
    }

    /// The serial path of `multipipe::run_streams`, rebuilt from public
    /// calls with a span around each.
    fn reconstruct(&self) -> Result<(MultiTaskRuntimeReport, u64), EvEdgeError> {
        let window = self.config.window;
        let mut events_total = 0u64;
        let mut frame_streams = Vec::with_capacity(self.streams.len());
        for stream in &self.streams {
            let events = {
                let _s = span("events");
                stream.sequence.generate(window)?
            };
            events_total += events.len() as u64;
            let _s = span("e2sf");
            let intervals = stream.sequence.frame_intervals(window);
            let frames = E2sf::new(E2sfConfig::new(stream.bins_per_interval))
                .convert_intervals(&events, &intervals)?;
            count("e2sf.frames", frames.len() as f64);
            // Nonzero fraction: O(1) per frame, unlike the spatial fill
            // ratio, so the traced iteration does no extra work.
            count(
                "e2sf.density_sum",
                frames.iter().map(|f| f.tensor().density()).sum(),
            );
            frame_streams.push(frames);
        }
        count("events.count", events_total as f64);

        let mut frontends = {
            let _s = span("dsfa");
            self.streams
                .iter()
                .map(|s| DsfaStage::new(s.dsfa))
                .collect::<Result<Vec<_>, _>>()?
        };
        let queues = self.problem.platform().queue_count();
        let tasks = self.problem.tasks().len();
        let mut model = TimedModel::new(MappedJobModel::new(&self.problem, &self.candidate));
        let (mut engine, mut clock, mut pending) = {
            let _s = span("exec.engine");
            let engine = ExecEngine::new(
                window.start(),
                TimedTimeline::new(DeviceTimeline::new(queues)),
                tasks,
                self.config.queue_capacity,
            )?;
            let mut clock: EventClock<(usize, usize)> = EventClock::new(window.start());
            for (t, frames) in frame_streams.iter().enumerate() {
                for (i, frame) in frames.iter().enumerate() {
                    clock.schedule(frame.ready_at(), (t, i));
                }
            }
            let pending: Vec<Vec<_>> = frame_streams
                .into_iter()
                .map(|frames| frames.into_iter().map(Some).collect())
                .collect();
            (engine, clock, pending)
        };

        loop {
            let next = {
                let _s = span("exec.engine");
                clock.next_event()
            };
            let Some((ready, (t, i))) = next else {
                break;
            };
            let frame = pending[t][i].take().expect("each frame arrives once");
            let idle = {
                let _s = span("exec.engine");
                engine.note_arrival(t);
                engine.task_idle_at(t, ready)
            };
            // DSFA hardware-availability rule: task idle → flush early.
            if idle {
                let jobs = {
                    let _s = span("dsfa");
                    frontends[t].flush(ready)?
                };
                if !jobs.is_empty() {
                    count("dsfa.idle_flushes", 1.0);
                }
                enqueue(&mut engine, t, jobs);
            }
            count("dsfa.frames_in", 1.0);
            let jobs = {
                let _s = span("dsfa");
                frontends[t].push(frame)?
            };
            enqueue(&mut engine, t, jobs);
            let _s = span("exec.engine");
            engine.service_all(ready, &mut model)?;
        }
        for (t, frontend) in frontends.iter_mut().enumerate() {
            let tail = engine.task_free_at(t).max(window.end());
            let jobs = {
                let _s = span("dsfa");
                frontend.flush(tail)?
            };
            enqueue(&mut engine, t, jobs);
            let _s = span("exec.engine");
            engine.drain(t, &mut model)?;
        }
        let report = {
            let _s = span("exec.engine");
            engine.finish(self.problem.platform().static_power_w)
        };
        let report = runtime_report(&self.problem, report);
        engine_counts(&report);
        Ok((report, events_total))
    }
}

impl Workload for Streams {
    fn run(&mut self) -> Result<Raw, String> {
        run_multi_task_streams(&self.problem, &self.candidate, &self.streams, self.config)
            .map(Raw::Streams)
            .map_err(|e| e.to_string())
    }

    fn run_traced(&mut self) -> Result<(Raw, IterationTrace), String> {
        trace::begin_iteration();
        let result = self.reconstruct();
        let it = trace::end_iteration();
        let (report, events) = result.map_err(|e| e.to_string())?;
        self.events = events;
        Ok((Raw::Streams(report), it))
    }

    fn summarize(&self, raw: &Raw) -> Output {
        let Raw::Streams(report) = raw else {
            unreachable!("each workload summarizes its own report")
        };
        let mut violations = Vec::new();
        for t in &report.per_task {
            if t.completed + t.dropped > t.arrivals {
                violations.push(format!(
                    "{}: completed {} + dropped {} > arrivals {}",
                    t.name, t.completed, t.dropped, t.arrivals
                ));
            }
        }
        let arrivals: u64 = report.per_task.iter().map(|t| t.arrivals).sum();
        Output {
            digest: debug_digest(report),
            modeled: Some(Modeled {
                latency_ms: ms(report.worst_mean_latency()),
                max_latency_ms: report
                    .per_task
                    .iter()
                    .map(|t| ms(t.max_latency))
                    .fold(0.0, f64::max),
                energy_mj: report.energy.as_millijoules(),
                loss_frac: report.total_dropped() as f64 / arrivals.max(1) as f64,
                pe_util: queue_names(self.problem.platform())
                    .into_iter()
                    .zip(report.utilization.iter().copied())
                    .collect(),
            }),
            violations,
        }
    }

    fn work_per_iteration(&self) -> f64 {
        self.events as f64
    }
}

// ---------------------------------------------------------------------
// mapping
// ---------------------------------------------------------------------

const MAPPING_POPULATION: usize = 32;
const MAPPING_GENERATIONS: usize = 30;

/// The Fig. 9 loop of `figure9_detail` over the three §5 mixes.
struct Mapping {
    problems: Vec<MultiTaskProblem>,
    nmp: NmpConfig,
    playback: MultiTaskRuntimeConfig,
}

impl Mapping {
    fn new(seed: u64) -> Result<Self, String> {
        let problems = [TaskMix::AllAnn, TaskMix::AllSnn, TaskMix::MixedSnnAnn]
            .iter()
            .map(|mix| mix.build_problem(Platform::xavier_agx(), &ZooConfig::mvsec()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let nmp = NmpConfig {
            population: MAPPING_POPULATION,
            generations: MAPPING_GENERATIONS,
            seed: NmpConfig::default().seed ^ seed,
            workers: 1,
            ..NmpConfig::default()
        };
        let playback = MultiTaskRuntimeConfig::new(TimeWindow::new(
            Timestamp::ZERO,
            Timestamp::from_millis(50),
        ));
        Ok(Mapping {
            problems,
            nmp,
            playback,
        })
    }

    fn mix(&self, problem: &MultiTaskProblem, traced: bool) -> Result<MixOutcome, EvEdgeError> {
        let (rr_network, rr_layer) = {
            let _s = span("nmp.baseline");
            let mut evaluator = FitnessEvaluator::new(problem, FitnessConfig::default());
            (
                evaluator.evaluate(&baseline::rr_network(problem))?,
                evaluator.evaluate(&baseline::rr_layer(problem))?,
            )
        };
        let (nmp, nmp_fp) = {
            let _s = span("nmp.search");
            (
                run_nmp(problem, self.nmp, FitnessConfig::default())?,
                run_nmp(
                    problem,
                    NmpConfig {
                        fp_only: true,
                        ..self.nmp
                    },
                    FitnessConfig::default(),
                )?,
            )
        };
        for search in [&nmp, &nmp_fp] {
            count("nmp.search.evaluations", search.evaluations as f64);
            count("nmp.search.cache_hits", search.cache_hits as f64);
        }
        let periods = near_saturation_periods(&rr_network);
        let playback = if traced {
            self.playback_traced(problem, &nmp.best, &periods)?
        } else {
            run_multi_task_runtime(problem, &nmp.best, &periods, self.playback)?
        };
        Ok(MixOutcome {
            rr_network,
            rr_layer,
            nmp,
            nmp_fp,
            playback,
        })
    }

    /// The serial path of `multipipe::run_periodic`, rebuilt from
    /// `for_each_phased_arrival` and the engine with the timed wrappers.
    fn playback_traced(
        &self,
        problem: &MultiTaskProblem,
        candidate: &Candidate,
        periods: &[TimeDelta],
    ) -> Result<MultiTaskRuntimeReport, EvEdgeError> {
        let window = self.playback.window;
        let mut model = TimedModel::new(MappedJobModel::new(problem, candidate));
        let mut engine = {
            let _s = span("exec.engine");
            ExecEngine::new(
                window.start(),
                TimedTimeline::new(DeviceTimeline::new(problem.platform().queue_count())),
                problem.tasks().len(),
                self.playback.queue_capacity,
            )?
        };
        let phases = vec![window.start(); periods.len()];
        let mut outcome = Ok(());
        for_each_phased_arrival(window, &phases, periods, |arrival, task| {
            let _s = span("exec.engine");
            engine.submit(task, JobInput::arrival(arrival));
            outcome = engine.service_all(arrival, &mut model);
            outcome.is_ok()
        });
        outcome?;
        let report = {
            let _s = span("exec.engine");
            engine.drain_all(&mut model)?;
            engine.finish(problem.platform().static_power_w)
        };
        let report = runtime_report(problem, report);
        engine_counts(&report);
        Ok(report)
    }

    fn all(&self, traced: bool) -> Result<Vec<MixOutcome>, String> {
        self.problems
            .iter()
            .map(|p| self.mix(p, traced))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())
    }
}

impl Workload for Mapping {
    fn run(&mut self) -> Result<Raw, String> {
        self.all(false).map(Raw::Mapping)
    }

    fn run_traced(&mut self) -> Result<(Raw, IterationTrace), String> {
        trace::begin_iteration();
        let result = self.all(true);
        let it = trace::end_iteration();
        Ok((Raw::Mapping(result?), it))
    }

    fn summarize(&self, raw: &Raw) -> Output {
        let Raw::Mapping(mixes) = raw else {
            unreachable!("each workload summarizes its own report")
        };
        let mut violations = Vec::new();
        let searched = (MAPPING_POPULATION * MAPPING_GENERATIONS) as u64;
        for (i, mix) in mixes.iter().enumerate() {
            for search in [&mix.nmp, &mix.nmp_fp] {
                let seen = (search.evaluations + search.cache_hits) as u64;
                if seen != searched {
                    violations.push(format!("mix {i}: {seen} candidates scored, not {searched}"));
                }
            }
            for t in &mix.playback.per_task {
                if t.completed + t.dropped != t.arrivals {
                    violations.push(format!(
                        "mix {i} {}: completed {} + dropped {} != arrivals {}",
                        t.name, t.completed, t.dropped, t.arrivals
                    ));
                }
            }
        }
        let n = mixes.len().max(1) as f64;
        let playbacks = || mixes.iter().map(|m| &m.playback);
        let arrivals: u64 = playbacks()
            .flat_map(|p| p.per_task.iter().map(|t| t.arrivals))
            .sum();
        let names = queue_names(self.problems[0].platform());
        let pe_util = names
            .into_iter()
            .enumerate()
            .map(|(q, name)| {
                let sum: f64 = playbacks()
                    .map(|p| p.utilization.get(q).copied().unwrap_or(0.0))
                    .sum();
                (name, sum / n)
            })
            .collect();
        Output {
            digest: debug_digest(mixes),
            modeled: Some(Modeled {
                latency_ms: mixes
                    .iter()
                    .map(|m| ms(m.nmp.report.max_latency))
                    .sum::<f64>()
                    / n,
                max_latency_ms: playbacks()
                    .flat_map(|p| p.per_task.iter().map(|t| ms(t.max_latency)))
                    .fold(0.0, f64::max),
                energy_mj: playbacks().map(|p| p.energy.as_millijoules()).sum(),
                loss_frac: playbacks().map(|p| p.total_dropped()).sum::<u64>() as f64
                    / arrivals.max(1) as f64,
                pe_util,
            }),
            violations,
        }
    }

    fn work_per_iteration(&self) -> f64 {
        // Candidates searched: two searches (NMP, NMP-FP) per mix.
        (MAPPING_POPULATION * MAPPING_GENERATIONS * 2 * self.problems.len()) as f64
    }
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

const SERVE_TENANTS: usize = 6;
const SERVE_PRESSURE: f64 = 0.5;

/// `run_service(synthetic_scenario(cfg, 6, 0.5))` over a 10 s window.
struct Serve {
    config: ServeConfig,
    scenario: ServeScenario,
    arrivals: u64,
}

impl Serve {
    fn new(seed: u64) -> Result<Self, String> {
        let mut config =
            ServeConfig::new(TimeWindow::new(Timestamp::ZERO, Timestamp::from_secs(10)));
        config.base_seed ^= seed;
        config.workers = 1;
        let scenario = synthetic_scenario(&config, SERVE_TENANTS, SERVE_PRESSURE)
            .map_err(|e| e.to_string())?;
        Ok(Serve {
            config,
            scenario,
            arrivals: 0,
        })
    }

    fn network_of(&self, tenant: &str) -> Option<NetworkId> {
        let joiners = self.scenario.churn.iter().filter_map(|e| match &e.action {
            ev_serve::ChurnAction::Join(spec) => Some(spec),
            ev_serve::ChurnAction::Leave(_) => None,
        });
        self.scenario
            .initial
            .iter()
            .chain(joiners)
            .find(|spec| spec.name == tenant)
            .map(|spec| spec.network)
    }

    /// Replays each tuned epoch's `AutoTuner::tune_spec` and
    /// `replay_search` outside the service run; returns the time they
    /// took and checks each replay's score bits against the epoch's.
    fn replay_tunes(&self, outcome: &ServeOutcome) -> Result<u64, String> {
        let mut tune_ns = 0u64;
        for epoch in &outcome.report.epochs {
            if epoch.mapping != MappingSource::Tuned {
                continue;
            }
            let networks = epoch
                .tenants
                .iter()
                .map(|t| self.network_of(t).ok_or(format!("unknown tenant {t}")))
                .collect::<Result<Vec<_>, _>>()?;
            let mix = TaskMix::Custom {
                networks,
                delta_scale: 1.0,
            };
            let problem = mix
                .build_problem(self.config.platform.build(), &self.config.zoo.config())
                .map_err(|e| e.to_string())?;
            let start = Instant::now();
            let report = AutoTuner::new(self.config.objective)
                .tune_spec(&self.config.tune_spec_for(mix.clone()), self.config.workers)
                .map_err(|e| e.to_string())?;
            let selection = report
                .selection_for_mix(self.config.platform, &mix)
                .ok_or("tune replay selected nothing")?;
            let search = selection
                .replay_search(&problem)
                .map_err(|e| e.to_string())?;
            tune_ns += start.elapsed().as_nanos() as u64;
            if Some(search.report.score.to_bits()) != epoch.score_bits {
                return Err(format!(
                    "epoch at {} µs: tune replay scored {:?}, the service {:?}",
                    epoch.start_us,
                    search.report.score.to_bits(),
                    epoch.score_bits
                ));
            }
        }
        Ok(tune_ns)
    }
}

/// The admission and epoch counters of a service report.
fn serve_counts(report: &ServeReport) {
    let t = &report.totals;
    count("serve.admitted", t.admitted as f64);
    count("serve.arrivals", t.arrivals as f64);
    count("serve.shed_saturated", t.shed_saturated as f64);
    count("serve.shed_ingress_full", t.shed_ingress_full as f64);
    let live: Vec<_> = report
        .epochs
        .iter()
        .filter(|e| e.mapping != MappingSource::Idle)
        .collect();
    for (name, source) in [
        ("serve.epochs_tuned", MappingSource::Tuned),
        ("serve.epochs_carried", MappingSource::Carried),
        ("serve.epochs_cached", MappingSource::Cached),
    ] {
        count(
            name,
            live.iter().filter(|e| e.mapping == source).count() as f64,
        );
    }
    count(
        "serve.utilization_mean",
        live.iter().map(|e| e.utilization).sum::<f64>() / live.len().max(1) as f64,
    );
}

impl Workload for Serve {
    fn run(&mut self) -> Result<Raw, String> {
        let outcome = run_service(&self.scenario, &self.config).map_err(|e| e.to_string())?;
        self.arrivals = outcome.report.totals.arrivals;
        Ok(Raw::Serve(Box::new(outcome.report)))
    }

    fn run_traced(&mut self) -> Result<(Raw, IterationTrace), String> {
        trace::begin_iteration();
        let result = {
            let _s = span("serve.epochs");
            run_service(&self.scenario, &self.config)
        };
        if let Ok(outcome) = &result {
            serve_counts(&outcome.report);
        }
        let mut it = trace::end_iteration();
        let outcome = result.map_err(|e| e.to_string())?;
        // The tuner runs inside `run_service`; its replay stands in for
        // it, and the rest of the service run is the epochs' time.
        let tune_ns = self.replay_tunes(&outcome)?;
        let epochs = it.self_ns.entry("serve.epochs").or_default();
        *epochs = epochs.saturating_sub(tune_ns);
        it.self_ns.insert("serve.tune", tune_ns);
        self.arrivals = outcome.report.totals.arrivals;
        Ok((Raw::Serve(Box::new(outcome.report)), it))
    }

    fn summarize(&self, raw: &Raw) -> Output {
        let Raw::Serve(report) = raw else {
            unreachable!("each workload summarizes its own report")
        };
        let mut violations = Vec::new();
        let t = &report.totals;
        if t.arrivals != t.admitted + t.shed() {
            violations.push(format!(
                "arrivals {} != admitted {} + shed {}",
                t.arrivals,
                t.admitted,
                t.shed()
            ));
        }
        if t.admitted != t.completed + t.dropped {
            violations.push(format!(
                "admitted {} != completed {} + dropped {}",
                t.admitted, t.completed, t.dropped
            ));
        }
        let tenants = || report.tenants.iter();
        let digest = match serde_json::to_string(report.as_ref()) {
            Ok(text) => fnv(text.as_bytes(), FNV_OFFSET),
            Err(e) => {
                violations.push(format!("report does not serialize: {e}"));
                0
            }
        };
        Output {
            digest,
            modeled: Some(Modeled {
                latency_ms: tenants().map(|t| t.mean_latency_us).max().unwrap_or(0) as f64 / 1e3,
                max_latency_ms: tenants().map(|t| t.max_latency_us).max().unwrap_or(0) as f64 / 1e3,
                energy_mj: t.energy_mj,
                loss_frac: (t.dropped + t.shed()) as f64 / t.arrivals.max(1) as f64,
                pe_util: Vec::new(),
            }),
            violations,
        }
    }

    fn work_per_iteration(&self) -> f64 {
        self.arrivals as f64
    }
}

// ---------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------

/// Mean event rates giving input densities of ≈0.01 and ≈0.3 over
/// 10 ms bins of a 64×64 two-polarity frame.
const SPARSE_RATE: f64 = 10_000.0;
const DENSE_RATE: f64 = 300_000.0;
const KERNEL_EVENT_SEED: u64 = 0x4B45_524E; // "KERN"
const KERNEL_WEIGHT_SEED: u64 = 11;

const KERNEL_NETWORKS: [(NetworkId, &str); 4] = [
    (NetworkId::FusionFlowNet, "nn.forward.fusion_flownet"),
    (NetworkId::AdaptiveSpikeNet, "nn.forward.adaptive_spikenet"),
    (NetworkId::EvFlowNet, "nn.forward.ev_flownet"),
    (NetworkId::Dotie, "nn.forward.dotie"),
];

/// `Executor::run` of four zoo networks at 64×64 over four E2SF frames.
struct Kernels {
    executors: Vec<(Executor, &'static str)>,
    frames: Vec<Activation>,
    input_density: f64,
}

impl Kernels {
    fn new(seed: u64, rate: f64) -> Result<Self, String> {
        let zoo = ZooConfig {
            height: 64,
            width: 64,
            ..ZooConfig::small()
        };
        let geometry = SensorGeometry::new(zoo.width as u32, zoo.height as u32);
        let mut generator = StatisticalGenerator::new(
            geometry,
            RateProfile::Constant(rate),
            SpatialModel::Uniform,
            KERNEL_EVENT_SEED ^ seed,
        );
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_millis(40));
        let events = generator.generate(window).map_err(|e| e.to_string())?;
        let frames: Vec<Activation> = E2sf::new(E2sfConfig::new(4))
            .convert(&events, window)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|f| Activation::Sparse(f.tensor().clone()))
            .collect();
        let input_density =
            frames.iter().map(Activation::density).sum::<f64>() / frames.len().max(1) as f64;
        let executors = KERNEL_NETWORKS
            .iter()
            .map(|&(n, span_name)| {
                let graph = n.build(&zoo).map_err(|e| e.to_string())?;
                Ok((Executor::new(graph, KERNEL_WEIGHT_SEED ^ seed), span_name))
            })
            .collect::<Result<_, String>>()?;
        Ok(Kernels {
            executors,
            frames,
            input_density,
        })
    }

    fn all(&mut self) -> Result<Vec<ForwardResult>, String> {
        let mut results = Vec::with_capacity(self.executors.len() * self.frames.len());
        for (executor, span_name) in &mut self.executors {
            let _s = span(span_name);
            executor.reset_state();
            for frame in &self.frames {
                let result = executor.run(frame).map_err(|e| e.to_string())?;
                count("nn.forward.macs_actual", result.total_actual().macs as f64);
                count(
                    "nn.forward.macs_dense",
                    result.total_dense_equivalent().macs as f64,
                );
                results.push(result);
            }
        }
        Ok(results)
    }
}

impl Workload for Kernels {
    fn run(&mut self) -> Result<Raw, String> {
        self.all().map(Raw::Kernels)
    }

    fn run_traced(&mut self) -> Result<(Raw, IterationTrace), String> {
        trace::begin_iteration();
        let result = self.all();
        count("nn.forward.input_density", self.input_density);
        let it = trace::end_iteration();
        Ok((Raw::Kernels(result?), it))
    }

    fn summarize(&self, raw: &Raw) -> Output {
        let Raw::Kernels(results) = raw else {
            unreachable!("each workload summarizes its own report")
        };
        // MACs and every output value, bit for bit.
        let mut hash = FNV_OFFSET;
        for result in results {
            hash = fnv(&result.total_actual().macs.to_le_bytes(), hash);
            for (layer, activation) in &result.outputs {
                hash = fnv(&(layer.0 as u64).to_le_bytes(), hash);
                for x in activation.to_flat() {
                    hash = fnv(&x.to_bits().to_le_bytes(), hash);
                }
            }
        }
        Output {
            digest: hash,
            modeled: None,
            violations: Vec::new(),
        }
    }

    fn work_per_iteration(&self) -> f64 {
        (self.executors.len() * self.frames.len()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_matches_entry_point(id: WorkloadId) {
        let mut w = id.setup(1).expect("set-up");
        let entry = w.run().expect("entry point");
        let reference = w.summarize(&entry);
        assert!(
            reference.violations.is_empty(),
            "{:?}",
            reference.violations
        );
        let (traced, it) = w.run_traced().expect("reconstruction");
        assert_eq!(check(reference.digest, &w.summarize(&traced)), Ok(()));
        assert!(it.total_ns > 0);
        assert!(w.work_per_iteration() > 0.0);
    }

    #[test]
    fn streams_reconstruction_equals_the_entry_point() {
        traced_matches_entry_point(WorkloadId::Streams);
    }

    #[test]
    fn mapping_reconstruction_equals_the_entry_point() {
        traced_matches_entry_point(WorkloadId::Mapping);
    }

    #[test]
    fn serve_traced_run_equals_the_entry_point() {
        traced_matches_entry_point(WorkloadId::Serve);
    }

    #[test]
    fn checker_rejects_doctored_reports() {
        let mut w = WorkloadId::Serve.setup(1).expect("set-up");
        let raw = w.run().expect("entry point");
        let reference = w.summarize(&raw).digest;
        let Raw::Serve(report) = raw else {
            unreachable!("serve returns a serve report")
        };
        let mut tally = crate::Tally::default();
        tally.record(check(reference, &w.summarize(&Raw::Serve(report.clone()))));

        // One energy bit flipped: same invariants, different output.
        let mut flipped = report.clone();
        flipped.totals.energy_mj = f64::from_bits(flipped.totals.energy_mj.to_bits() ^ 1);
        let out = w.summarize(&Raw::Serve(flipped));
        assert!(out.violations.is_empty());
        let err = check(reference, &out).expect_err("bit flip caught");
        assert!(err.contains("digest"), "{err}");
        tally.record(Err(err));

        // One job dropped from the completions: the admission
        // invariant breaks.
        let mut dropped = report;
        dropped.totals.completed -= 1;
        let err = check(reference, &w.summarize(&Raw::Serve(dropped))).expect_err("caught");
        assert!(err.contains("admitted"), "{err}");
        tally.record(Err(err));

        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_inputs_straddle_the_density_range() {
        let sparse = Kernels::new(1, SPARSE_RATE).expect("set-up");
        let dense = Kernels::new(1, DENSE_RATE).expect("set-up");
        assert!(
            (0.005..0.02).contains(&sparse.input_density),
            "{}",
            sparse.input_density
        );
        assert!(
            (0.2..0.4).contains(&dense.input_density),
            "{}",
            dense.input_density
        );
    }
}
