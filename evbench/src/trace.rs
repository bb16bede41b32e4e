//! Wall-clock spans and counters recorded from the benchmark's own
//! files, around the calls it makes into each layer.
//!
//! A span has a name, a start and an end, the span that encloses it and
//! the traced iteration it belongs to. A layer's *self time* is the
//! duration of its spans minus the part covered by their child spans,
//! so the self times of one iteration add up to the iteration. Spans
//! stay in memory and are written out at exit when asked for.
//!
//! Tracing is per thread and off until [`begin_iteration`]: outside a
//! traced iteration [`span`] and [`count`] only check a flag, which
//! lets an untraced iteration share code with its traced twin.

use ev_core::{TimeDelta, Timestamp};
use ev_edge::exec::{JobInput, JobModel};
use ev_edge::EvEdgeError;
use ev_platform::energy::Energy;
use ev_platform::timeline::RunRequest;
use ev_platform::{PlatformError, ReservationTimeline};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span enclosing one whole traced iteration.
pub const ITERATION: &str = "iteration";

/// Spans kept per child process; later spans still count towards self
/// times but are not stored.
const SPAN_CAP: usize = 1 << 20;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if stored.
    pub parent: Option<usize>,
    /// Traced iteration id.
    pub iteration: u32,
}

/// What one traced iteration measured.
#[derive(Debug, Clone, Default)]
pub struct IterationTrace {
    /// Duration of the iteration span, ns.
    pub total_ns: u64,
    /// Self time per layer, ns (the iteration span's own self time is
    /// the unattributed part, under [`ITERATION`]).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Counters per name.
    pub counts: BTreeMap<&'static str, f64>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    stored: Option<usize>,
}

struct Tracer {
    epoch: Instant,
    active: bool,
    iteration: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    current: IterationTrace,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        active: false,
        iteration: 0,
        stack: Vec::new(),
        spans: Vec::new(),
        dropped: 0,
        current: IterationTrace::default(),
    });
}

fn enter(name: &'static str) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.active {
            return;
        }
        let start = Instant::now();
        let stored = if t.spans.len() < SPAN_CAP {
            let parent = t.stack.last().and_then(|o| o.stored);
            let start_ns = start.duration_since(t.epoch).as_nanos() as u64;
            let iteration = t.iteration;
            t.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                iteration,
            });
            Some(t.spans.len() - 1)
        } else {
            t.dropped += 1;
            None
        };
        t.stack.push(Open {
            name,
            start,
            child_ns: 0,
            stored,
        });
    });
}

fn exit() -> u64 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(open) = t.stack.pop() else {
            return 0;
        };
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(i) = open.stored {
            t.spans[i].end_ns = end.duration_since(t.epoch).as_nanos() as u64;
        }
        *t.current.self_ns.entry(open.name).or_default() += dur.saturating_sub(open.child_ns);
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
        dur
    })
}

/// Closes its span when dropped.
pub struct SpanGuard {
    open: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open {
            exit();
        }
    }
}

/// Opens a span named `name` until the guard drops (a no-op outside a
/// traced iteration).
pub fn span(name: &'static str) -> SpanGuard {
    let open = TRACER.with(|t| t.borrow().active);
    if open {
        enter(name);
    }
    SpanGuard { open }
}

/// Adds `by` to counter `name` of the current iteration (a no-op
/// outside a traced iteration).
pub fn count(name: &'static str, by: f64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.active {
            *t.current.counts.entry(name).or_default() += by;
        }
    });
}

/// Starts a traced iteration: turns tracing on and opens the
/// [`ITERATION`] span.
pub fn begin_iteration() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.active = true;
        t.current = IterationTrace::default();
    });
    enter(ITERATION);
}

/// Ends the traced iteration begun by [`begin_iteration`] and returns
/// what it measured; tracing is off again afterwards.
pub fn end_iteration() -> IterationTrace {
    let total_ns = exit();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.active = false;
        t.iteration += 1;
        t.stack.clear();
        let mut done = std::mem::take(&mut t.current);
        done.total_ns = total_ns;
        done
    })
}

/// Every stored span, and how many were not stored.
pub fn take_spans() -> (Vec<Span>, u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let dropped = t.dropped;
        t.dropped = 0;
        (std::mem::take(&mut t.spans), dropped)
    })
}

/// A [`JobModel`] whose dispatches are `exec.model` spans: the cost
/// model's time, with the timeline calls it makes as child spans.
pub struct TimedModel<M> {
    inner: M,
}

impl<M> TimedModel<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedModel { inner }
    }
}

impl<M: JobModel> JobModel for TimedModel<M> {
    fn dispatch(
        &mut self,
        task: usize,
        job: &JobInput,
        ready: Timestamp,
        timeline: &mut dyn ReservationTimeline,
    ) -> Result<(Timestamp, Energy), EvEdgeError> {
        let _s = span("exec.model");
        count("exec.model.dispatches", 1.0);
        self.inner.dispatch(task, job, ready, timeline)
    }
}

/// A [`ReservationTimeline`] whose reservation calls are
/// `platform.timeline` spans, counting calls and reserved slots.
/// Read-only queries (busy time, completion counts) are not timed: the
/// engine only makes them when it closes a run.
pub struct TimedTimeline<T> {
    inner: T,
}

impl<T> TimedTimeline<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        TimedTimeline { inner }
    }
}

fn timeline_call(slots: usize) -> SpanGuard {
    let guard = span("platform.timeline");
    count("platform.timeline.calls", 1.0);
    count("platform.timeline.slots", slots as f64);
    guard
}

impl<T: ReservationTimeline> ReservationTimeline for TimedTimeline<T> {
    fn queues(&self) -> usize {
        self.inner.queues()
    }

    fn earliest_start(&self, queue: usize, ready: Timestamp) -> Result<Timestamp, PlatformError> {
        let _s = timeline_call(0);
        self.inner.earliest_start(queue, ready)
    }

    fn reserve(
        &mut self,
        queue: usize,
        start: Timestamp,
        duration: TimeDelta,
    ) -> Result<Timestamp, PlatformError> {
        let _s = timeline_call(1);
        self.inner.reserve(queue, start, duration)
    }

    fn busy_time(&self, queue: usize) -> TimeDelta {
        self.inner.busy_time(queue)
    }

    fn completed_jobs(&self, queue: usize) -> u64 {
        self.inner.completed_jobs(queue)
    }

    fn reserve_next(
        &mut self,
        queue: usize,
        ready: Timestamp,
        duration: TimeDelta,
    ) -> Result<(Timestamp, Timestamp), PlatformError> {
        let _s = timeline_call(1);
        self.inner.reserve_next(queue, ready, duration)
    }

    fn reserve_run(
        &mut self,
        queue: usize,
        ready: Timestamp,
        durations: &[TimeDelta],
    ) -> Result<Vec<(Timestamp, Timestamp)>, PlatformError> {
        let _s = timeline_call(durations.len());
        self.inner.reserve_run(queue, ready, durations)
    }

    fn reserve_runs(
        &mut self,
        requests: &[RunRequest<'_>],
    ) -> Result<Vec<Vec<(Timestamp, Timestamp)>>, PlatformError> {
        let _s = timeline_call(requests.iter().map(|r| r.durations.len()).sum());
        self.inner.reserve_runs(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let until = Instant::now() + std::time::Duration::from_millis(ms);
        while Instant::now() < until {}
    }

    #[test]
    fn self_times_partition_the_iteration() {
        begin_iteration();
        {
            let _a = span("a");
            busy(2);
            {
                let _b = span("b");
                busy(3);
            }
            count("n", 2.0);
        }
        busy(1);
        let it = end_iteration();
        let sum: u64 = it.self_ns.values().sum();
        assert_eq!(sum, it.total_ns, "self times add up exactly");
        assert!(it.self_ns["b"] >= 3_000_000);
        assert!(it.self_ns["a"] >= 2_000_000 && it.self_ns["a"] < it.total_ns - 3_000_000);
        assert!(it.self_ns[ITERATION] >= 1_000_000);
        assert_eq!(it.counts["n"], 2.0);
        let (spans, dropped) = take_spans();
        assert_eq!(dropped, 0);
        let b = spans.iter().find(|s| s.name == "b").expect("stored");
        assert_eq!(spans[b.parent.expect("nested")].name, "a");
        // Off outside an iteration: nothing is recorded.
        {
            let _c = span("c");
            count("n", 1.0);
        }
        assert!(take_spans().0.is_empty());
    }
}
