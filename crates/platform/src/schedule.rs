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

use crate::PlatformError;
use ev_core::{TimeDelta, Timestamp};

/// One schedulable node: a layer execution or a data transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedNode {
    /// Queue (device) index the node executes on.
    pub queue: usize,
    /// Execution duration.
    pub duration: TimeDelta,
    /// Indices of nodes that must complete first.
    pub deps: Vec<usize>,
}

impl SchedNode {
    /// Creates a node.
    pub fn new(queue: usize, duration: TimeDelta, deps: Vec<usize>) -> Self {
        SchedNode {
            queue,
            duration,
            deps,
        }
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

/// The result of list scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-node timings, indexed like the input.
    pub timings: Vec<NodeTiming>,
    /// Critical-path latency (max end time).
    pub makespan: TimeDelta,
    /// Busy time per queue.
    pub queue_busy: Vec<TimeDelta>,
}

/// Schedules `nodes` over `queue_count` FIFO queues, computing Equation 3
/// end times in topological order.
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
/// use ev_platform::schedule::{list_schedule, SchedNode};
/// use ev_core::TimeDelta;
///
/// # fn main() -> Result<(), ev_platform::PlatformError> {
/// let ms = TimeDelta::from_millis;
/// // Two independent 2 ms nodes on different queues, then a join.
/// let nodes = vec![
///     SchedNode::new(0, ms(2), vec![]),
///     SchedNode::new(1, ms(2), vec![]),
///     SchedNode::new(0, ms(1), vec![0, 1]),
/// ];
/// let schedule = list_schedule(&nodes, 2)?;
/// assert_eq!(schedule.makespan, ms(3)); // parallel then join
/// # Ok(())
/// # }
/// ```
pub fn list_schedule(nodes: &[SchedNode], queue_count: usize) -> Result<Schedule, PlatformError> {
    for (i, n) in nodes.iter().enumerate() {
        if n.queue >= queue_count {
            return Err(PlatformError::InvalidQueue {
                node: i,
                queue: n.queue,
                queues: queue_count,
            });
        }
        for &d in &n.deps {
            if d >= nodes.len() {
                return Err(PlatformError::CyclicDependency { node: i });
            }
        }
    }

    // Kahn topological order.
    let mut indegree: Vec<usize> = nodes.iter().map(|n| n.deps.len()).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for &d in &n.deps {
            succs[d].push(i);
        }
    }
    let mut ready: Vec<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, d)| **d == 0)
        .map(|(i, _)| i)
        .collect();
    // Stable order: smallest index first keeps queue serialization aligned
    // with the input's partial order.
    ready.sort_unstable();
    let mut order = Vec::with_capacity(nodes.len());
    let mut cursor = 0;
    while cursor < ready.len() {
        let i = ready[cursor];
        cursor += 1;
        order.push(i);
        let mut newly = Vec::new();
        for &s in &succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                newly.push(s);
            }
        }
        newly.sort_unstable();
        ready.extend(newly);
    }
    if order.len() != nodes.len() {
        let stuck = indegree.iter().position(|d| *d > 0).unwrap_or(0);
        return Err(PlatformError::CyclicDependency { node: stuck });
    }

    let mut timings = vec![
        NodeTiming {
            start: Timestamp::ZERO,
            end: Timestamp::ZERO,
        };
        nodes.len()
    ];
    let mut queue_free = vec![Timestamp::ZERO; queue_count];
    let mut queue_busy = vec![TimeDelta::ZERO; queue_count];
    let mut makespan_end = Timestamp::ZERO;
    for &i in &order {
        let n = &nodes[i];
        let dep_ready = n
            .deps
            .iter()
            .map(|&d| timings[d].end)
            .fold(Timestamp::ZERO, Timestamp::max);
        let start = dep_ready.max(queue_free[n.queue]);
        let end = start + n.duration;
        timings[i] = NodeTiming { start, end };
        queue_free[n.queue] = end;
        queue_busy[n.queue] += n.duration;
        makespan_end = makespan_end.max(end);
    }
    Ok(Schedule {
        timings,
        makespan: makespan_end - Timestamp::ZERO,
        queue_busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: i64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn serial_chain_sums() {
        let nodes = vec![
            SchedNode::new(0, ms(1), vec![]),
            SchedNode::new(0, ms(2), vec![0]),
            SchedNode::new(0, ms(3), vec![1]),
        ];
        let s = list_schedule(&nodes, 1).unwrap();
        assert_eq!(s.makespan, ms(6));
        assert_eq!(s.timings[2].start, Timestamp::from_millis(3));
    }

    #[test]
    fn independent_nodes_on_one_queue_serialize() {
        let nodes = vec![
            SchedNode::new(0, ms(2), vec![]),
            SchedNode::new(0, ms(2), vec![]),
        ];
        let s = list_schedule(&nodes, 1).unwrap();
        assert_eq!(s.makespan, ms(4));
        // FIFO order follows index order.
        assert!(s.timings[0].end <= s.timings[1].start);
    }

    #[test]
    fn parallel_queues_overlap() {
        let nodes = vec![
            SchedNode::new(0, ms(2), vec![]),
            SchedNode::new(1, ms(2), vec![]),
        ];
        let s = list_schedule(&nodes, 2).unwrap();
        assert_eq!(s.makespan, ms(2));
        assert_eq!(s.queue_busy, vec![ms(2), ms(2)]);
    }

    #[test]
    fn join_waits_for_slowest_parent() {
        let nodes = vec![
            SchedNode::new(0, ms(1), vec![]),
            SchedNode::new(1, ms(5), vec![]),
            SchedNode::new(0, ms(1), vec![0, 1]),
        ];
        let s = list_schedule(&nodes, 2).unwrap();
        assert_eq!(s.timings[2].start, Timestamp::from_millis(5));
        assert_eq!(s.makespan, ms(6));
    }

    #[test]
    fn queue_contention_delays_start() {
        // Node 2 depends only on node 0 (1 ms) but shares queue 0 with
        // node 1 (4 ms) which precedes it in topological order.
        let nodes = vec![
            SchedNode::new(1, ms(1), vec![]),
            SchedNode::new(0, ms(4), vec![]),
            SchedNode::new(0, ms(1), vec![0]),
        ];
        let s = list_schedule(&nodes, 2).unwrap();
        assert_eq!(s.timings[2].start, Timestamp::from_millis(4));
        assert_eq!(s.makespan, ms(5));
    }

    #[test]
    fn cycle_detected() {
        let nodes = vec![
            SchedNode::new(0, ms(1), vec![1]),
            SchedNode::new(0, ms(1), vec![0]),
        ];
        assert!(matches!(
            list_schedule(&nodes, 1),
            Err(PlatformError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn invalid_queue_detected() {
        let nodes = vec![SchedNode::new(3, ms(1), vec![])];
        assert!(matches!(
            list_schedule(&nodes, 2),
            Err(PlatformError::InvalidQueue { .. })
        ));
    }

    #[test]
    fn empty_graph_is_zero() {
        let s = list_schedule(&[], 2).unwrap();
        assert_eq!(s.makespan, TimeDelta::ZERO);
        assert_eq!(s.queue_busy, vec![TimeDelta::ZERO; 2]);
    }

    #[test]
    fn zero_duration_nodes_pass_through() {
        let nodes = vec![
            SchedNode::new(0, TimeDelta::ZERO, vec![]),
            SchedNode::new(0, ms(1), vec![0]),
        ];
        let s = list_schedule(&nodes, 1).unwrap();
        assert_eq!(s.makespan, ms(1));
    }
}
