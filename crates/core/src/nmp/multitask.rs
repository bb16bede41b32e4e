//! Multi-task mapping problems.
//!
//! The Network Mapper operates on a multi-task input graph whose nodes are
//! the layers of all concurrently-executing networks (paper Figure 7a). A
//! [`MultiTaskProblem`] bundles those graphs with the platform, the
//! pre-recorded layer cost tables, per-task accuracy models and the ΔA
//! thresholds of Equation 2.

use crate::EvEdgeError;
use ev_nn::accuracy::{shares_from_macs, AccuracyModel};
use ev_nn::graph::{LayerWorkload, NetworkGraph};
use ev_nn::Precision;
use ev_platform::pe::{PeId, Platform};
use ev_platform::profile::NetworkProfile;

/// One task of a multi-task scenario.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Task display name.
    pub name: String,
    /// The network executing the task.
    pub graph: NetworkGraph,
    /// The task's accuracy model (Table 2 anchors).
    pub accuracy: AccuracyModel,
    /// Allowed metric degradation ΔA (absolute, in the metric's unit).
    pub max_degradation: f64,
    /// DSFA temporal-aggregation aggressiveness applied to this task's
    /// input, in `[0, 1]` (contributes to degradation).
    pub aggregation: f64,
    /// Arrival period of this task's inputs under streaming execution
    /// (used by the `Streaming` fitness objective; `None` for one-shot).
    pub arrival_period: Option<ev_core::TimeDelta>,
    /// Measured per-layer input densities for *data-dependent* workloads
    /// (one entry per layer; e.g. the GraphNet active-node schedule).
    /// `None` profiles with domain-default densities. Densities enter the
    /// cost tables once, at profile time, so every execution mode prices
    /// the task identically.
    pub densities: Option<Vec<f64>>,
}

impl TaskSpec {
    /// Creates a spec with the accuracy model's anchored threshold.
    pub fn new(graph: NetworkGraph, accuracy: AccuracyModel, max_degradation: f64) -> Self {
        TaskSpec {
            name: graph.name().to_string(),
            graph,
            accuracy,
            max_degradation,
            aggregation: 0.0,
            arrival_period: None,
            densities: None,
        }
    }

    /// Sets the measured per-layer input densities (data-dependent cost).
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not have one density per layer of the
    /// task's graph, or any density is outside `[0, 1]`.
    pub fn with_densities(mut self, densities: Vec<f64>) -> Self {
        assert_eq!(
            densities.len(),
            self.graph.len(),
            "one density per layer required"
        );
        assert!(
            densities.iter().all(|d| (0.0..=1.0).contains(d)),
            "densities must be in [0, 1]"
        );
        self.densities = Some(densities);
        self
    }

    /// Sets the streaming arrival period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn with_period(mut self, period: ev_core::TimeDelta) -> Self {
        assert!(period.as_micros() > 0, "arrival period must be positive");
        self.arrival_period = Some(period);
        self
    }

    /// Sets the DSFA aggregation aggressiveness.
    ///
    /// # Panics
    ///
    /// Panics if `aggregation` is outside `[0, 1]`.
    pub fn with_aggregation(mut self, aggregation: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&aggregation),
            "aggregation must be in [0, 1]"
        );
        self.aggregation = aggregation;
        self
    }
}

/// A fully-prepared multi-task mapping problem.
///
/// Besides the cost tables, a problem holds the mapper's draw tables,
/// read off the platform once here so that drawing a layer's
/// assignment allocates nothing: the element ids, each element's
/// precisions (highest fidelity first), and the FP32-capable ids.
#[derive(Debug, Clone)]
pub struct MultiTaskProblem {
    platform: Platform,
    tasks: Vec<TaskSpec>,
    workloads: Vec<Vec<LayerWorkload>>,
    profiles: Vec<NetworkProfile>,
    shares: Vec<Vec<f64>>,
    /// Global node → (task index, layer index).
    nodes: Vec<(usize, usize)>,
    /// First global node per task.
    offsets: Vec<usize>,
    /// Every element id, in platform order.
    pe_ids: Vec<PeId>,
    /// Per element, its supported precisions, highest fidelity first.
    precisions: Vec<Vec<Precision>>,
    /// The ids of the elements that support FP32.
    fp32_pes: Vec<PeId>,
}

impl MultiTaskProblem {
    /// Prepares a problem: records the per-layer cost tables (the paper's
    /// offline profiling step) and flattens the task graphs into the
    /// global node space.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::EmptyProblem`] with no tasks, and propagates
    /// profiling errors.
    pub fn new(platform: Platform, tasks: Vec<TaskSpec>) -> Result<Self, EvEdgeError> {
        if tasks.is_empty() {
            return Err(EvEdgeError::EmptyProblem);
        }
        let mut workloads = Vec::with_capacity(tasks.len());
        let mut profiles = Vec::with_capacity(tasks.len());
        let mut shares = Vec::with_capacity(tasks.len());
        let mut nodes = Vec::new();
        let mut offsets = Vec::with_capacity(tasks.len());
        for (t, task) in tasks.iter().enumerate() {
            let w = task.graph.workloads();
            let profile = NetworkProfile::record(&platform, &w, task.densities.as_deref())?;
            offsets.push(nodes.len());
            for l in 0..task.graph.len() {
                nodes.push((t, l));
            }
            shares.push(shares_from_macs(
                &w.iter().map(|x| x.macs).collect::<Vec<_>>(),
            ));
            workloads.push(w);
            profiles.push(profile);
        }
        Ok(MultiTaskProblem {
            pe_ids: platform.pe_ids(),
            precisions: platform
                .elements()
                .iter()
                .map(|e| e.supported_precisions())
                .collect(),
            fp32_pes: platform.pes_supporting(Precision::Fp32),
            platform,
            tasks,
            workloads,
            profiles,
            shares,
            nodes,
            offsets,
        })
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The tasks.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Total global node (layer) count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maps a global node to `(task, layer)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node(&self, global: usize) -> (usize, usize) {
        self.nodes[global]
    }

    /// Maps `(task, layer)` to the global node index.
    pub fn global_index(&self, task: usize, layer: usize) -> usize {
        self.offsets[task] + layer
    }

    /// The recorded cost table of a task.
    pub fn profile(&self, task: usize) -> &NetworkProfile {
        &self.profiles[task]
    }

    /// The workload of `(task, layer)`.
    pub fn workload(&self, task: usize, layer: usize) -> &LayerWorkload {
        &self.workloads[task][layer]
    }

    /// Compute shares of a task's layers (for the accuracy model).
    pub fn shares(&self, task: usize) -> &[f64] {
        &self.shares[task]
    }

    /// Every element id of the platform.
    pub(crate) fn pe_ids(&self) -> &[PeId] {
        &self.pe_ids
    }

    /// The precisions element `pe` supports, highest fidelity first.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not an element of the platform.
    pub(crate) fn precisions(&self, pe: PeId) -> &[Precision] {
        &self.precisions[pe.0]
    }

    /// The ids of the elements that support FP32.
    pub(crate) fn fp32_pes(&self) -> &[PeId] {
        &self.fp32_pes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_nn::zoo::{NetworkId, ZooConfig};

    fn problem() -> MultiTaskProblem {
        let cfg = ZooConfig::small();
        let tasks = vec![
            TaskSpec::new(
                NetworkId::Dotie.build(&cfg).unwrap(),
                NetworkId::Dotie.accuracy_model(),
                0.04,
            ),
            TaskSpec::new(
                NetworkId::AdaptiveSpikeNet.build(&cfg).unwrap(),
                NetworkId::AdaptiveSpikeNet.accuracy_model(),
                0.09,
            ),
        ];
        MultiTaskProblem::new(Platform::xavier_agx(), tasks).unwrap()
    }

    #[test]
    fn global_indexing_round_trips() {
        let p = problem();
        assert_eq!(p.node_count(), 1 + 8);
        assert_eq!(p.node(0), (0, 0));
        assert_eq!(p.node(1), (1, 0));
        assert_eq!(p.node(5), (1, 4));
        assert_eq!(p.global_index(1, 4), 5);
    }

    #[test]
    fn shares_sum_to_one() {
        let p = problem();
        for t in 0..p.tasks().len() {
            let total: f64 = p.shares(t).iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_problem_rejected() {
        assert!(matches!(
            MultiTaskProblem::new(Platform::xavier_agx(), vec![]),
            Err(EvEdgeError::EmptyProblem)
        ));
    }

    #[test]
    fn aggregation_validated() {
        let cfg = ZooConfig::small();
        let spec = TaskSpec::new(
            NetworkId::Dotie.build(&cfg).unwrap(),
            NetworkId::Dotie.accuracy_model(),
            0.04,
        )
        .with_aggregation(0.5);
        assert_eq!(spec.aggregation, 0.5);
    }
}
