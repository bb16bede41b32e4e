//! The unified inference-job model.
//!
//! Every execution path in Ev-Edge ultimately runs *jobs*: one batched
//! inference whose input became ready at some instant. This module owns
//! the job types shared by all drivers, the construction of scheduler
//! DAGs with cross-PE transfer nodes (paper Figure 7a), and the
//! [`JobModel`] implementations that map a job onto the platform:
//!
//! * [`MappedJobModel`] — per-layer reservations on the shared
//!   processing-element queues under an NMP candidate mapping (the
//!   multi-task runtime's contention model);
//! * [`BatchCostModel`] — whole-job critical-path durations on a single
//!   platform-wide queue, memoized by `(density, batch)` (the
//!   single-task pipeline's model).

use crate::nmp::candidate::{Assignment, Candidate};
use crate::nmp::multitask::MultiTaskProblem;
use crate::EvEdgeError;
use ev_core::{TimeDelta, Timestamp};
use ev_nn::graph::NetworkGraph;
use ev_platform::energy::Energy;
use ev_platform::latency::{transfer_cost, CostEstimate};
use ev_platform::pe::Platform;
use ev_platform::schedule::SchedGraph;
use ev_platform::ReservationTimeline;
use std::collections::HashMap;
use std::ops::Range;

/// One pending inference input: what a task's bounded queue holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobInput {
    /// When the input became ready (frame ready time or batch emit time).
    pub ready: Timestamp,
    /// Frames batched into the job.
    pub batch: usize,
    /// Mean input spatial density.
    pub density: f64,
    /// Raw events covered by the input.
    pub events: usize,
}

impl JobInput {
    /// A single-frame input with unknown density/event payload (periodic
    /// arrival drivers that only track timing).
    pub fn arrival(ready: Timestamp) -> Self {
        JobInput {
            ready,
            batch: 1,
            density: 1.0,
            events: 0,
        }
    }
}

/// One executed inference job, with full timing provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// The owning task.
    pub task: usize,
    /// When the job's input was ready.
    pub ready: Timestamp,
    /// Execution start.
    pub start: Timestamp,
    /// Completion.
    pub end: Timestamp,
    /// Batched frames in the job.
    pub batch: usize,
    /// Mean input density.
    pub density: f64,
    /// Raw events covered.
    pub events: usize,
}

impl JobRecord {
    /// Input-to-completion latency.
    pub fn latency(&self) -> TimeDelta {
        self.end - self.ready
    }
}

/// Maps one job onto the platform: decides when it completes and what it
/// costs, reserving device time on the way.
pub trait JobModel {
    /// Dispatches one job of `task` whose dependencies allow it to start
    /// no earlier than `ready`; returns `(completion, energy)`.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError`] for unexecutable assignments or
    /// reservation failures.
    fn dispatch(
        &mut self,
        task: usize,
        job: &JobInput,
        ready: Timestamp,
        timeline: &mut dyn ReservationTimeline,
    ) -> Result<(Timestamp, Energy), EvEdgeError>;
}

/// Builds a scheduler DAG over network layers, inserting data-transfer
/// nodes on the unified-memory queue wherever producer and consumer sit
/// on different processing elements, and accumulating busy energy.
///
/// Both the offline fitness evaluator (one joint multi-task graph) and
/// the single-task job coster (one graph per `(density, batch)` point)
/// build their DAGs through this type — the transfer/energy bookkeeping
/// exists exactly once. [`SchedGraphBuilder::clear`] keeps every
/// buffer's capacity, so a builder reused across candidates stops
/// allocating once it has held the largest graph.
#[derive(Debug, Default)]
pub struct SchedGraphBuilder {
    graph: SchedGraph,
    /// The scheduler node of every layer added so far, networks in the
    /// order added and layers in id order.
    layer_nodes: Vec<usize>,
    /// One layer's dependencies while its transfer nodes are pushed.
    deps: Vec<usize>,
    energy: Energy,
}

impl SchedGraphBuilder {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every node and resets the energy, keeping capacity.
    pub fn clear(&mut self) {
        self.graph.clear();
        self.layer_nodes.clear();
        self.energy = Energy::ZERO;
    }

    /// Adds one network's layers under the given assignment and cost
    /// lookups; their scheduler nodes extend [`SchedGraphBuilder::layer_nodes`].
    ///
    /// `output_bytes_of` reports a producer layer's output payload (the
    /// bytes a cross-PE edge moves over unified memory).
    ///
    /// # Errors
    ///
    /// Propagates `cost_of` failures (typically
    /// [`EvEdgeError::UnsupportedAssignment`]); the builder must then be
    /// cleared before reuse.
    pub fn add_network(
        &mut self,
        platform: &Platform,
        graph: &NetworkGraph,
        assignment_of: impl Fn(usize) -> Assignment,
        mut cost_of: impl FnMut(usize, Assignment) -> Result<CostEstimate, EvEdgeError>,
        output_bytes_of: impl Fn(usize) -> u64,
    ) -> Result<(), EvEdgeError> {
        let memory_queue = platform.memory_queue();
        let base = self.layer_nodes.len();
        self.layer_nodes.resize(base + graph.len(), usize::MAX);
        for layer in graph.layers() {
            let l = layer.id.0;
            let a = assignment_of(l);
            let cost = cost_of(l, a)?;
            self.energy += cost.energy;
            self.deps.clear();
            for pred in graph.predecessors(layer.id) {
                let pa = assignment_of(pred.0);
                let pred_node = self.layer_nodes[base + pred.0];
                debug_assert_ne!(pred_node, usize::MAX, "layers visit in topo order");
                if pa.pe == a.pe {
                    self.deps.push(pred_node);
                } else {
                    let tc =
                        transfer_cost(platform, pa.pe, a.pe, output_bytes_of(pred.0), pa.precision);
                    self.energy += tc.energy;
                    let transfer = self.graph.push(memory_queue, tc.latency, &[pred_node]);
                    self.deps.push(transfer);
                }
            }
            self.layer_nodes[base + l] = self.graph.push(a.pe.0, cost.latency, &self.deps);
        }
        Ok(())
    }

    /// The accumulated DAG.
    pub fn graph(&self) -> &SchedGraph {
        &self.graph
    }

    /// The scheduler node of every layer added, in the order added.
    pub fn layer_nodes(&self) -> &[usize] {
        &self.layer_nodes
    }

    /// Busy energy accumulated so far (compute + transfers).
    pub fn energy(&self) -> Energy {
        self.energy
    }
}

/// Per-layer online dispatch under an NMP mapping: each layer reserves
/// its mapped processing-element queue in dependency order; cross-PE
/// edges pay unified-memory transfers on the shared memory queue.
///
/// This is the contention model of the multi-task runtime (paper §4.2 /
/// Figure 9): concurrent tasks compete for the same queues first-come-
/// first-served.
///
/// Each task's dispatch is **compiled once**, when the model is built,
/// into a plan of *runs*: maximal stretches of consecutive layers on one
/// processing element where every layer after the first has all its
/// predecessors on that element. Within a FIFO queue such a layer
/// always starts exactly when the previous reservation ends, so a run
/// is one [`ReservationTimeline::reserve_run`] chain over its layers'
/// durations (a whole single-PE network costs one timeline call per
/// job). A run's first layer keeps its predecessors, each with the
/// latency of the unified-memory transfer it pays when it sits on
/// another element, and the plan holds the job's busy energy, compute
/// and transfers summed in layer order. A job then walks the plan: the
/// transfers into each run on the memory queue, then the run, exactly
/// the reservations the per-layer sequence makes, in the same order.
/// An assignment the task's profile cannot execute fails every dispatch
/// of that task with [`EvEdgeError::UnsupportedAssignment`], before any
/// reservation.
#[derive(Debug)]
pub struct MappedJobModel {
    memory_queue: usize,
    /// Each task's plan, or the first layer its profile cannot execute
    /// with that layer's assignment.
    plans: Vec<Result<TaskPlan, (usize, Assignment)>>,
    /// Every layer's end in the job being dispatched (reused across
    /// dispatches).
    ends: Vec<Timestamp>,
}

/// One task's dispatch under the candidate mapping.
#[derive(Debug)]
struct TaskPlan {
    runs: Vec<RunPlan>,
    /// Every run's predecessor edges, run after run.
    deps: Vec<RunDep>,
    /// Every layer's duration, in layer order.
    durations: Vec<TimeDelta>,
    /// The job's busy energy: each layer's compute, then its incoming
    /// transfers, summed in layer order.
    energy: Energy,
}

/// One back-to-back chain of consecutive layers on one queue.
#[derive(Debug)]
struct RunPlan {
    queue: usize,
    /// The run's layers, which index `durations` too.
    layers: Range<usize>,
    /// The run's first layer's predecessors, in `deps`.
    deps: Range<usize>,
}

/// A predecessor of a run's first layer: its end gates the run, after
/// a unified-memory transfer when it sits on another element.
#[derive(Debug, Clone, Copy)]
struct RunDep {
    pred: usize,
    transfer: Option<TimeDelta>,
}

impl MappedJobModel {
    /// A model executing `candidate` over `problem`'s tasks.
    pub fn new(problem: &MultiTaskProblem, candidate: &Candidate) -> Self {
        let tasks = problem.tasks();
        MappedJobModel {
            memory_queue: problem.platform().memory_queue(),
            plans: (0..tasks.len())
                .map(|task| TaskPlan::compile(problem, candidate, task))
                .collect(),
            ends: vec![Timestamp::ZERO; tasks.iter().map(|t| t.graph.len()).max().unwrap_or(0)],
        }
    }
}

impl TaskPlan {
    /// Compiles `task`'s dispatch under `candidate`, or names the first
    /// layer whose assignment the task's profile cannot execute.
    fn compile(
        problem: &MultiTaskProblem,
        candidate: &Candidate,
        task: usize,
    ) -> Result<TaskPlan, (usize, Assignment)> {
        let platform = problem.platform();
        let graph = &problem.tasks()[task].graph;
        let assignment_of = |l: usize| candidate.assignment(problem.global_index(task, l));
        let mut plan = TaskPlan {
            runs: Vec::new(),
            deps: Vec::new(),
            durations: Vec::with_capacity(graph.len()),
            energy: Energy::ZERO,
        };
        for layer in graph.layers() {
            let l = layer.id.0;
            debug_assert_eq!(l, plan.durations.len(), "layers come in id order");
            let a = assignment_of(l);
            let cost = problem
                .profile(task)
                .layer(l)
                .cost(a.pe, a.precision)
                .ok_or((l, a))?;
            plan.energy += cost.energy;
            plan.durations.push(cost.latency);
            let preds = graph.predecessors(layer.id);
            // A layer extends the run when the run already targets its
            // queue and every predecessor shares its element (no
            // transfers): its dependency-ready time can never exceed
            // the previous slot's end, so chaining is exact.
            if let Some(run) = plan.runs.last_mut() {
                if run.queue == a.pe.0 && preds.iter().all(|p| assignment_of(p.0).pe == a.pe) {
                    run.layers.end = l + 1;
                    continue;
                }
            }
            let first_dep = plan.deps.len();
            for pred in preds {
                let pa = assignment_of(pred.0);
                let transfer = (pa.pe != a.pe).then(|| {
                    let bytes = problem.workload(task, pred.0).output_bytes;
                    let tc = transfer_cost(platform, pa.pe, a.pe, bytes, pa.precision);
                    plan.energy += tc.energy;
                    tc.latency
                });
                plan.deps.push(RunDep {
                    pred: pred.0,
                    transfer,
                });
            }
            plan.runs.push(RunPlan {
                queue: a.pe.0,
                layers: l..l + 1,
                deps: first_dep..plan.deps.len(),
            });
        }
        Ok(plan)
    }
}

impl JobModel for MappedJobModel {
    fn dispatch(
        &mut self,
        task: usize,
        _job: &JobInput,
        ready: Timestamp,
        timeline: &mut dyn ReservationTimeline,
    ) -> Result<(Timestamp, Energy), EvEdgeError> {
        let plan = self.plans[task].as_ref().map_err(|&(layer, a)| {
            EvEdgeError::UnsupportedAssignment {
                task,
                layer,
                pe: a.pe,
                precision: a.precision,
            }
        })?;
        let mut last_end = ready;
        for run in &plan.runs {
            // Predecessors precede the run in layer order, so their
            // ends are this job's.
            let mut run_ready = ready;
            for dep in &plan.deps[run.deps.clone()] {
                let mut pred_end = self.ends[dep.pred];
                if let Some(latency) = dep.transfer {
                    (_, pred_end) = timeline.reserve_next(self.memory_queue, pred_end, latency)?;
                }
                run_ready = run_ready.max(pred_end);
            }
            let slots =
                timeline.reserve_run(run.queue, run_ready, &plan.durations[run.layers.clone()])?;
            for (end, &(_, slot_end)) in self.ends[run.layers.clone()].iter_mut().zip(&slots) {
                *end = slot_end;
                last_end = last_end.max(slot_end);
            }
        }
        Ok((last_end, plan.energy))
    }
}

/// Whole-job dispatch with memoized `(density, batch)` costs on one
/// platform-wide queue: the single-task pipeline's model, where a job
/// occupies the platform for its scheduled critical-path duration.
pub struct BatchCostModel<F> {
    cost: F,
    cache: HashMap<(u16, u16), (TimeDelta, Energy)>,
    queue: usize,
}

impl<F> core::fmt::Debug for BatchCostModel<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BatchCostModel")
            .field("queue", &self.queue)
            .field("cached_points", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl<F> BatchCostModel<F>
where
    F: FnMut(f64, usize) -> Result<(TimeDelta, Energy), EvEdgeError>,
{
    /// A model dispatching onto `queue` with `cost(density, batch)`
    /// memoized at 1e-3 density resolution.
    pub fn new(queue: usize, cost: F) -> Self {
        BatchCostModel {
            cost,
            cache: HashMap::new(),
            queue,
        }
    }

    fn job_cost(&mut self, density: f64, batch: usize) -> Result<(TimeDelta, Energy), EvEdgeError> {
        let key = ((density * 1000.0).round() as u16, batch as u16);
        if let Some(hit) = self.cache.get(&key) {
            return Ok(*hit);
        }
        let cost = (self.cost)(density, batch)?;
        self.cache.insert(key, cost);
        Ok(cost)
    }
}

impl<F> JobModel for BatchCostModel<F>
where
    F: FnMut(f64, usize) -> Result<(TimeDelta, Energy), EvEdgeError>,
{
    fn dispatch(
        &mut self,
        _task: usize,
        job: &JobInput,
        ready: Timestamp,
        timeline: &mut dyn ReservationTimeline,
    ) -> Result<(Timestamp, Energy), EvEdgeError> {
        let (duration, energy) = self.job_cost(job.density, job.batch)?;
        let (_, end) = timeline.reserve_next(self.queue, ready, duration)?;
        Ok((end, energy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_platform::timeline::DeviceTimeline;

    #[test]
    fn job_record_latency() {
        let record = JobRecord {
            task: 0,
            ready: Timestamp::from_millis(10),
            start: Timestamp::from_millis(12),
            end: Timestamp::from_millis(15),
            batch: 2,
            density: 0.1,
            events: 40,
        };
        assert_eq!(record.latency(), TimeDelta::from_millis(5));
    }

    #[test]
    fn batch_cost_model_memoizes_and_serializes_jobs() {
        let mut calls = 0usize;
        let mut model = BatchCostModel::new(0, |_, batch| {
            calls += 1;
            Ok((
                TimeDelta::from_millis(batch as i64),
                Energy::from_joules(0.1),
            ))
        });
        let mut timeline = DeviceTimeline::new(1);
        let job = JobInput {
            ready: Timestamp::from_millis(5),
            batch: 2,
            density: 0.25,
            events: 10,
        };
        let (end1, _) = model.dispatch(0, &job, job.ready, &mut timeline).unwrap();
        assert_eq!(end1, Timestamp::from_millis(7));
        // Second identical job: cache hit, queues behind the first.
        let (end2, _) = model.dispatch(0, &job, job.ready, &mut timeline).unwrap();
        assert_eq!(end2, Timestamp::from_millis(9));
        drop(model);
        assert_eq!(calls, 1, "cost memoized by (density, batch)");
    }
}
