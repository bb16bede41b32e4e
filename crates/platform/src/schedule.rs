//! List scheduling over per-device execution queues (paper Equation 3).
//!
//! The Network Mapper evaluates each candidate mapping by scheduling the
//! multi-task graph onto one FIFO queue per device (plus the unified-memory
//! queue) and reading the critical-path latency:
//!
//! ```text
//! End_T(node) = max(End_T(parents)…, CurDeviceQ_T) + Exec_T(node)
//! CriticalPathLatency = max(End_T(node)…)
//! ```
//!
//! Nodes are serialized within their queue in topological order, matching
//! §4.3.2 ("we serialize nodes within their respective execution queues
//! that are not already serialized by the data dependencies").
//!
//! Both sides are flat and reusable, because the search schedules
//! thousands of candidate graphs: a [`SchedGraph`] keeps every node's
//! dependencies in one compressed-sparse-row array, and a [`Schedule`]
//! keeps the successor lists, the ready queue and the results in buffers
//! that [`list_schedule`] refills without allocating once they have grown
//! to the largest graph seen.

use crate::PlatformError;
use ev_core::{TimeDelta, Timestamp};

/// A scheduler DAG: per-node queue and duration, with dependencies in
/// compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedGraph {
    queues: Vec<usize>,
    durations: Vec<TimeDelta>,
    /// `deps[dep_offsets[i]..dep_offsets[i + 1]]` are node `i`'s
    /// dependencies; one entry longer than the node count.
    dep_offsets: Vec<usize>,
    deps: Vec<usize>,
}

impl Default for SchedGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedGraph {
    /// An empty graph.
    pub fn new() -> Self {
        SchedGraph {
            queues: Vec::new(),
            durations: Vec::new(),
            dep_offsets: vec![0],
            deps: Vec::new(),
        }
    }

    /// Removes every node, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.queues.clear();
        self.durations.clear();
        self.dep_offsets.truncate(1);
        self.deps.clear();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Appends a node running `duration` on `queue` once every node in
    /// `deps` has completed; returns its index. Queue and dependency
    /// indices are checked by [`list_schedule`].
    pub fn push(&mut self, queue: usize, duration: TimeDelta, deps: &[usize]) -> usize {
        let node = self.queues.len();
        self.queues.push(queue);
        self.durations.push(duration);
        self.deps.extend_from_slice(deps);
        self.dep_offsets.push(self.deps.len());
        node
    }

    /// The queue node `node` executes on.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn queue(&self, node: usize) -> usize {
        self.queues[node]
    }

    /// The execution duration of node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn duration(&self, node: usize) -> TimeDelta {
        self.durations[node]
    }

    /// The nodes that must complete before node `node` starts.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn deps(&self, node: usize) -> &[usize] {
        &self.deps[self.dep_offsets[node]..self.dep_offsets[node + 1]]
    }
}

/// Start/end times of one scheduled node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTiming {
    /// When the node starts executing.
    pub start: Timestamp,
    /// When the node finishes.
    pub end: Timestamp,
}

/// The result of list scheduling, with the scratch that computes it.
///
/// The results describe the graph of the last successful
/// [`list_schedule`] call; after an error they are unspecified.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    timings: Vec<NodeTiming>,
    queue_busy: Vec<TimeDelta>,
    makespan: TimeDelta,
    /// Unfinished dependencies per node (Kahn's in-degrees).
    indegree: Vec<usize>,
    /// `succs[succ_offsets[i]..succ_offsets[i + 1]]` are node `i`'s
    /// dependents, in ascending node order.
    succ_offsets: Vec<usize>,
    succs: Vec<usize>,
    /// Nodes in the order they became ready (the FIFO topological order).
    ready: Vec<usize>,
    queue_free: Vec<Timestamp>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-node timings, indexed like the graph's nodes.
    pub fn timings(&self) -> &[NodeTiming] {
        &self.timings
    }

    /// Busy time per queue.
    pub fn queue_busy(&self) -> &[TimeDelta] {
        &self.queue_busy
    }

    /// Critical-path latency (the latest end time).
    pub fn makespan(&self) -> TimeDelta {
        self.makespan
    }
}

/// Schedules `graph` over `queue_count` FIFO queues into `schedule`,
/// computing Equation 3 end times in topological order.
///
/// The order is Kahn's with a FIFO ready queue: the initially ready nodes
/// in index order, then each node's newly ready dependents in index
/// order. A node's timing is computed when it leaves the ready queue, so
/// one pass both orders and times the graph.
///
/// # Errors
///
/// * [`PlatformError::InvalidQueue`] if any node names a queue out of
///   range.
/// * [`PlatformError::CyclicDependency`] if the dependency graph has a
///   cycle (or a dep index is out of range).
///
/// # Examples
///
/// ```
/// use ev_platform::schedule::{list_schedule, SchedGraph, Schedule};
/// use ev_core::TimeDelta;
///
/// # fn main() -> Result<(), ev_platform::PlatformError> {
/// let ms = TimeDelta::from_millis;
/// // Two independent 2 ms nodes on different queues, then a join.
/// let mut graph = SchedGraph::new();
/// let a = graph.push(0, ms(2), &[]);
/// let b = graph.push(1, ms(2), &[]);
/// graph.push(0, ms(1), &[a, b]);
/// let mut schedule = Schedule::new();
/// list_schedule(&graph, 2, &mut schedule)?;
/// assert_eq!(schedule.makespan(), ms(3)); // parallel then join
/// # Ok(())
/// # }
/// ```
pub fn list_schedule(
    graph: &SchedGraph,
    queue_count: usize,
    schedule: &mut Schedule,
) -> Result<(), PlatformError> {
    let n = graph.len();
    let s = schedule;

    // Validate, and count every node's dependents into the slot of its
    // range's end.
    s.succ_offsets.clear();
    s.succ_offsets.resize(n + 1, 0);
    for (i, &queue) in graph.queues.iter().enumerate() {
        if queue >= queue_count {
            return Err(PlatformError::InvalidQueue {
                node: i,
                queue,
                queues: queue_count,
            });
        }
        for &d in graph.deps(i) {
            if d >= n {
                return Err(PlatformError::CyclicDependency { node: i });
            }
            s.succ_offsets[d] += 1;
        }
    }
    let mut total = 0;
    for offset in &mut s.succ_offsets {
        total += *offset;
        *offset = total;
    }
    // Fill each range back to front, visiting nodes in descending order:
    // every successor list ends up ascending, so each batch of newly
    // ready nodes below is already in index order.
    s.succs.clear();
    s.succs.resize(total, 0);
    for i in (0..n).rev() {
        for &d in graph.deps(i).iter().rev() {
            s.succ_offsets[d] -= 1;
            s.succs[s.succ_offsets[d]] = i;
        }
    }

    s.indegree.clear();
    s.indegree
        .extend(graph.dep_offsets.windows(2).map(|w| w[1] - w[0]));
    s.ready.clear();
    s.ready.extend((0..n).filter(|&i| s.indegree[i] == 0));
    let zero = NodeTiming {
        start: Timestamp::ZERO,
        end: Timestamp::ZERO,
    };
    s.timings.clear();
    s.timings.resize(n, zero);
    s.queue_free.clear();
    s.queue_free.resize(queue_count, Timestamp::ZERO);
    s.queue_busy.clear();
    s.queue_busy.resize(queue_count, TimeDelta::ZERO);
    let mut makespan_end = Timestamp::ZERO;
    let mut cursor = 0;
    while cursor < s.ready.len() {
        let i = s.ready[cursor];
        cursor += 1;
        let queue = graph.queues[i];
        let duration = graph.durations[i];
        let dep_ready = graph
            .deps(i)
            .iter()
            .map(|&d| s.timings[d].end)
            .fold(Timestamp::ZERO, Timestamp::max);
        let start = dep_ready.max(s.queue_free[queue]);
        let end = start + duration;
        s.timings[i] = NodeTiming { start, end };
        s.queue_free[queue] = end;
        s.queue_busy[queue] += duration;
        makespan_end = makespan_end.max(end);
        for &j in &s.succs[s.succ_offsets[i]..s.succ_offsets[i + 1]] {
            s.indegree[j] -= 1;
            if s.indegree[j] == 0 {
                s.ready.push(j);
            }
        }
    }
    if cursor != n {
        let stuck = s.indegree.iter().position(|d| *d > 0).unwrap_or(0);
        return Err(PlatformError::CyclicDependency { node: stuck });
    }
    s.makespan = makespan_end - Timestamp::ZERO;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: i64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    /// A graph of `(queue, duration, deps)` nodes.
    fn graph(nodes: &[(usize, TimeDelta, &[usize])]) -> SchedGraph {
        let mut g = SchedGraph::new();
        for &(queue, duration, deps) in nodes {
            g.push(queue, duration, deps);
        }
        g
    }

    fn schedule(g: &SchedGraph, queues: usize) -> Result<Schedule, PlatformError> {
        let mut s = Schedule::new();
        list_schedule(g, queues, &mut s)?;
        Ok(s)
    }

    #[test]
    fn serial_chain_sums() {
        let g = graph(&[(0, ms(1), &[]), (0, ms(2), &[0]), (0, ms(3), &[1])]);
        let s = schedule(&g, 1).unwrap();
        assert_eq!(s.makespan(), ms(6));
        assert_eq!(s.timings()[2].start, Timestamp::from_millis(3));
    }

    #[test]
    fn independent_nodes_on_one_queue_serialize() {
        let g = graph(&[(0, ms(2), &[]), (0, ms(2), &[])]);
        let s = schedule(&g, 1).unwrap();
        assert_eq!(s.makespan(), ms(4));
        // FIFO order follows index order.
        assert!(s.timings()[0].end <= s.timings()[1].start);
    }

    #[test]
    fn parallel_queues_overlap() {
        let g = graph(&[(0, ms(2), &[]), (1, ms(2), &[])]);
        let s = schedule(&g, 2).unwrap();
        assert_eq!(s.makespan(), ms(2));
        assert_eq!(s.queue_busy(), &[ms(2), ms(2)]);
    }

    #[test]
    fn join_waits_for_slowest_parent() {
        let g = graph(&[(0, ms(1), &[]), (1, ms(5), &[]), (0, ms(1), &[0, 1])]);
        let s = schedule(&g, 2).unwrap();
        assert_eq!(s.timings()[2].start, Timestamp::from_millis(5));
        assert_eq!(s.makespan(), ms(6));
    }

    #[test]
    fn queue_contention_delays_start() {
        // Node 2 depends only on node 0 (1 ms) but shares queue 0 with
        // node 1 (4 ms) which precedes it in topological order.
        let g = graph(&[(1, ms(1), &[]), (0, ms(4), &[]), (0, ms(1), &[0])]);
        let s = schedule(&g, 2).unwrap();
        assert_eq!(s.timings()[2].start, Timestamp::from_millis(4));
        assert_eq!(s.makespan(), ms(5));
    }

    #[test]
    fn cycle_detected() {
        let g = graph(&[(0, ms(1), &[1]), (0, ms(1), &[0])]);
        assert!(matches!(
            schedule(&g, 1),
            Err(PlatformError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn invalid_queue_detected() {
        let g = graph(&[(3, ms(1), &[])]);
        assert!(matches!(
            schedule(&g, 2),
            Err(PlatformError::InvalidQueue { .. })
        ));
    }

    #[test]
    fn empty_graph_is_zero() {
        let s = schedule(&SchedGraph::new(), 2).unwrap();
        assert_eq!(s.makespan(), TimeDelta::ZERO);
        assert_eq!(s.queue_busy(), &[TimeDelta::ZERO; 2]);
    }

    #[test]
    fn zero_duration_nodes_pass_through() {
        let g = graph(&[(0, TimeDelta::ZERO, &[]), (0, ms(1), &[0])]);
        let s = schedule(&g, 1).unwrap();
        assert_eq!(s.makespan(), ms(1));
    }
}
