//! Bounded inference queues with the paper's drop semantics.
//!
//! §4.2: merged sparse frames are "forwarded to their respective inference
//! queues as the latest sparse frames, where the earliest sparse frames in
//! each queue is discarded" — i.e. each task has a bounded queue that
//! drops its *oldest* pending input when a newer one arrives, keeping the
//! perception output fresh under overload.

use crate::EvEdgeError;
use core::fmt;
use std::collections::VecDeque;

/// A bounded FIFO that discards the oldest entry on overflow.
///
/// # Examples
///
/// ```
/// use ev_edge::queue::InferenceQueue;
///
/// # fn main() -> Result<(), ev_edge::EvEdgeError> {
/// let mut q: InferenceQueue<u32> = InferenceQueue::new(2)?;
/// assert_eq!(q.push(1), None);
/// assert_eq!(q.push(2), None);
/// assert_eq!(q.push(3), Some(1)); // oldest discarded
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.dropped(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
    accepted: u64,
}

impl<T> InferenceQueue<T> {
    /// Creates a queue holding at most `capacity` pending inputs.
    ///
    /// # Errors
    ///
    /// Returns [`EvEdgeError::InvalidQueueCapacity`] if `capacity` is
    /// zero — a queue that can hold nothing would drop every input.
    pub fn new(capacity: usize) -> Result<Self, EvEdgeError> {
        if capacity == 0 {
            return Err(EvEdgeError::InvalidQueueCapacity { capacity });
        }
        Ok(InferenceQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            accepted: 0,
        })
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pending inputs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Enqueues an input; if full, the *earliest* pending input is
    /// discarded and returned (paper §4.2 drop rule).
    pub fn push(&mut self, item: T) -> Option<T> {
        self.accepted += 1;
        let evicted = if self.items.len() == self.capacity {
            self.dropped += 1;
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        evicted
    }

    /// Dequeues the oldest pending input.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest pending input.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Inputs discarded so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Inputs accepted (pushed) so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }
}

impl<T> fmt::Display for InferenceQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InferenceQueue({}/{} pending, {} dropped)",
            self.items.len(),
            self.capacity,
            self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = InferenceQueue::new(3).unwrap();
        q.push("a");
        q.push("b");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_drops_earliest() {
        let mut q = InferenceQueue::new(2).unwrap();
        q.push(10);
        q.push(20);
        let evicted = q.push(30);
        assert_eq!(evicted, Some(10));
        assert_eq!(q.len(), 2);
        assert_eq!(q.front(), Some(&20));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.accepted(), 3);
    }

    #[test]
    fn capacity_one_keeps_latest() {
        let mut q = InferenceQueue::new(1).unwrap();
        for k in 0..5 {
            q.push(k);
        }
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.dropped(), 4);
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            InferenceQueue::<u8>::new(0),
            Err(EvEdgeError::InvalidQueueCapacity { capacity: 0 })
        ));
    }
}
