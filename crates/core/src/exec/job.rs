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
use ev_nn::LayerId;
use ev_platform::energy::Energy;
use ev_platform::latency::{transfer_cost, CostEstimate};
use ev_platform::pe::Platform;
use ev_platform::schedule::SchedGraph;
use ev_platform::ReservationTimeline;
use std::collections::HashMap;

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
/// Reservations are batched per job: maximal runs of layers whose
/// predecessors all live on the same processing element collapse into
/// one [`ReservationTimeline::reserve_run`] chain, so a whole single-PE
/// network costs one timeline call instead of one per layer. The produced reservations are identical to the
/// per-layer sequence: within a FIFO queue, a layer whose dependencies
/// all precede it on that queue always starts exactly when the previous
/// reservation ends.
#[derive(Debug)]
pub struct MappedJobModel<'a> {
    problem: &'a MultiTaskProblem,
    candidate: &'a Candidate,
    /// Scratch for the pending same-queue run (reused across dispatches).
    run_durations: Vec<TimeDelta>,
    run_layers: Vec<usize>,
}

impl<'a> MappedJobModel<'a> {
    /// A model executing `candidate` over `problem`'s tasks.
    pub fn new(problem: &'a MultiTaskProblem, candidate: &'a Candidate) -> Self {
        MappedJobModel {
            problem,
            candidate,
            run_durations: Vec::new(),
            run_layers: Vec::new(),
        }
    }
}

/// Reserves the pending run as one back-to-back chain and records the
/// completion time of every layer in it.
fn flush_run(
    timeline: &mut dyn ReservationTimeline,
    queue: usize,
    ready: Timestamp,
    durations: &mut Vec<TimeDelta>,
    layers: &mut Vec<usize>,
    end_of: &mut [Timestamp],
    last_end: &mut Timestamp,
) -> Result<(), EvEdgeError> {
    if durations.is_empty() {
        return Ok(());
    }
    let slots = timeline.reserve_run(queue, ready, durations)?;
    for (&l, &(_, end)) in layers.iter().zip(&slots) {
        end_of[l] = end;
        *last_end = (*last_end).max(end);
    }
    durations.clear();
    layers.clear();
    Ok(())
}

impl JobModel for MappedJobModel<'_> {
    fn dispatch(
        &mut self,
        task: usize,
        _job: &JobInput,
        ready: Timestamp,
        timeline: &mut dyn ReservationTimeline,
    ) -> Result<(Timestamp, Energy), EvEdgeError> {
        let platform = self.problem.platform();
        let graph = &self.problem.tasks()[task].graph;
        let memory_queue = platform.memory_queue();
        let mut end_of: Vec<Timestamp> = vec![ready; graph.len()];
        let mut energy = Energy::ZERO;
        let mut last_end = ready;
        // The pending run: consecutive layers on `run_queue` whose
        // dependencies are all internal to that queue. An errored
        // dispatch may have left stale entries in the scratch buffers —
        // this job starts from a clean run.
        self.run_durations.clear();
        self.run_layers.clear();
        let mut run_queue = usize::MAX;
        let mut run_ready = ready;
        for layer in graph.layers() {
            let l = layer.id.0;
            let global = self.problem.global_index(task, l);
            let a = self.candidate.assignment(global);
            let cost = self
                .problem
                .profile(task)
                .layer(l)
                .cost(a.pe, a.precision)
                .ok_or(EvEdgeError::UnsupportedAssignment {
                    task,
                    layer: l,
                    pe: a.pe,
                    precision: a.precision,
                })?;
            energy += cost.energy;
            // A layer extends the run when every predecessor shares its
            // processing element (no transfer nodes) and the run already
            // targets that queue: its dependency-ready time can never
            // exceed the previous slot's end, so chaining is exact.
            let all_preds_same_pe = graph.predecessors(LayerId(l)).iter().all(|pred| {
                self.candidate
                    .assignment(self.problem.global_index(task, pred.0))
                    .pe
                    == a.pe
            });
            if all_preds_same_pe && run_queue == a.pe.0 && !self.run_durations.is_empty() {
                self.run_durations.push(cost.latency);
                self.run_layers.push(l);
                continue;
            }
            flush_run(
                timeline,
                run_queue,
                run_ready,
                &mut self.run_durations,
                &mut self.run_layers,
                &mut end_of,
                &mut last_end,
            )?;
            // Cross-PE edges pay unified-memory transfers; their ends
            // feed the new run's first-slot ready time.
            let mut dep_ready = ready;
            for pred in graph.predecessors(LayerId(l)) {
                let pa = self
                    .candidate
                    .assignment(self.problem.global_index(task, pred.0));
                let mut pred_end = end_of[pred.0];
                if pa.pe != a.pe {
                    let bytes = self.problem.workload(task, pred.0).output_bytes;
                    let tc = transfer_cost(platform, pa.pe, a.pe, bytes, pa.precision);
                    energy += tc.energy;
                    let (_, end) = timeline.reserve_next(memory_queue, pred_end, tc.latency)?;
                    pred_end = end;
                }
                dep_ready = dep_ready.max(pred_end);
            }
            run_queue = a.pe.0;
            run_ready = dep_ready;
            self.run_durations.push(cost.latency);
            self.run_layers.push(l);
        }
        flush_run(
            timeline,
            run_queue,
            run_ready,
            &mut self.run_durations,
            &mut self.run_layers,
            &mut end_of,
            &mut last_end,
        )?;
        Ok((last_end, energy))
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
