//! Reference binary-heap event queue.
//!
//! This is the pre-ladder implementation of the event queue, kept as the
//! executable specification of the `(time, seq)` total order: the
//! differential tests in `tests/queue_equivalence.rs` drive it and the
//! ladder [`crate::EventQueue`] with identical adversarial schedules and
//! assert identical pop sequences. It is not used by the simulators.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Time;

struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Binary-heap event queue with the same API subset and the same
/// `(time, seq)` ordering contract as the ladder [`crate::EventQueue`].
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: Time,
    seq: u64,
    processed: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule an event at an absolute time, behind every event already
    /// scheduled at that time.
    ///
    /// # Panics
    /// Panics if `time` is in the past.
    pub fn schedule_at(&mut self, time: Time, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={} < now={}",
            time,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap returned stale event");
        self.now = entry.time;
        self.processed += 1;
        Some((entry.time, entry.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_queue_orders_by_time_seq() {
        let mut q = HeapQueue::new();
        q.schedule_at(10, "b");
        q.schedule_at(5, "a");
        q.schedule_at(10, "b-later");
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((10, "b")));
        assert_eq!(q.pop(), Some((10, "b-later")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }
}
