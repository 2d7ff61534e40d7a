//! The pending-event set.
//!
//! A binary heap keyed on `(time, sequence)` where `sequence` is a
//! monotonically increasing insertion counter. The counter gives two
//! properties the simulation depends on:
//!
//! * **Determinism** — events scheduled for the same instant fire in the
//!   order they were scheduled, on every platform, every run.
//! * **Causality for control protocols** — the distributed rate-allocation
//!   protocol (§5.3.1 of the paper) requires that a switch receiving both
//!   an UPDATE and an ADVERTISE "simultaneously" processes the UPDATE
//!   first; the caller achieves this by scheduling the UPDATE first.
//!
//! Cancellation is lazy: a cancelled id goes into a tombstone set and the
//! entry is dropped when it surfaces. This keeps `cancel` O(log n) amortised
//! without the complexity of an indexed heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::EventId;
use crate::time::SimTime;

/// A time-ordered queue of events of type `E`.
///
/// `E` is the caller's event payload — typically an enum covering every
/// event kind in the model (packet arrival, timer expiry, handoff, ...).
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Ids scheduled but not yet fired nor cancelled. Sorted: ids are
    /// handed out monotonically, so scheduling appends; a Vec reuses its
    /// capacity where a tree set would churn nodes on every
    /// empty→non-empty transition, keeping the steady-state control
    /// plane allocation-free.
    pending: Vec<u64>,
    /// Ids cancelled while pending; tombstones drained lazily. Sorted.
    cancelled: Vec<u64>,
    next_seq: u64,
    now: SimTime,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Ordering is on (time, seq) only; payload never participates.
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
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            cancelled: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the last event popped.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Panics if `at` is in the past — scheduling into the past would break
    /// causality silently, which is the worst possible failure mode for a
    /// simulation, so it is rejected loudly.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // Fresh ids are strictly increasing, so the sorted Vec appends.
        self.pending.push(seq);
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            payload,
        }));
        EventId(seq)
    }

    /// Schedule `payload` to fire `after` from now.
    pub(crate) fn schedule_after(
        &mut self,
        after: crate::time::SimDuration,
        payload: E,
    ) -> EventId {
        self.schedule_at(self.now + after, payload)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending, `false` if it already fired, was already cancelled, or
    /// never existed.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.is_none() {
            return false;
        }
        let Ok(at) = self.pending.binary_search(&id.0) else {
            return false;
        };
        self.pending.remove(at);
        // Tombstone; the heap entry is dropped when it surfaces in `pop`.
        if let Err(at) = self.cancelled.binary_search(&id.0) {
            self.cancelled.insert(at, id.0);
        }
        true
    }

    /// Remove and return the next event `(time, id, payload)`, advancing
    /// the clock to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if let Ok(at) = self.cancelled.binary_search(&entry.seq) {
                self.cancelled.remove(at);
                continue; // tombstoned
            }
            debug_assert!(entry.time >= self.now);
            if let Ok(at) = self.pending.binary_search(&entry.seq) {
                self.pending.remove(at);
            }
            self.now = entry.time;
            return Some((entry.time, EventId(entry.seq), entry.payload));
        }
        None
    }

    /// Timestamp of the next live event without removing it.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        // Drain tombstones off the top so the answer is accurate.
        while let Some(Reverse(entry)) = self.heap.peek() {
            if let Ok(at) = self.cancelled.binary_search(&entry.seq) {
                self.heap.pop();
                self.cancelled.remove(at);
            } else {
                return Some(entry.time);
            }
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        let b = q.schedule_at(SimTime::from_secs(2), "b");
        q.schedule_at(SimTime::from_secs(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel is a no-op");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "c"]);
        assert!(!q.cancel(a), "cancelling a fired event reports false");
        assert!(!q.cancel(EventId::NONE));
    }

    #[test]
    fn peek_skips_tombstones() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn schedule_after_uses_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "x");
        q.pop();
        q.schedule_after(SimDuration::from_secs(5), "y");
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "x");
        q.pop();
        q.schedule_at(SimTime::from_secs(9), "y");
    }
}
