//! A bounded input queue with watermark-based backpressure.
//!
//! The transport reads lines into a [`Backlog`] and the server drains
//! it. The queue is *bounded*: at capacity, `push` refuses the line and
//! the transport must stop reading (TCP's own flow control then pushes
//! back on the producer) — the server never buffers unboundedly and so
//! never dies of memory exhaustion during an input storm.
//!
//! Crossing the high watermark (the queue fills) raises *pressure*;
//! draining below the low watermark (half of capacity) clears it. The
//! transitions are reported by [`Backlog::push`]/[`Backlog::pop`] so the
//! driver can journal them as `ServerEvent::QueuePressure` — making the
//! degraded-mode shedding they trigger part of the deterministic event
//! history (see `crate::server`).

use std::collections::VecDeque;

/// What a [`Backlog::push`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub enum PushOutcome {
    /// Enqueued; pressure unchanged.
    Accepted,
    /// Enqueued and the queue just reached capacity: assert pressure.
    AcceptedPressureOn,
    /// Queue full; the line was refused — stop reading and retry after
    /// draining.
    Refused,
}

/// What a [`Backlog::pop`] observed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub enum PopOutcome {
    /// A line, pressure unchanged.
    Line(String),
    /// A line, and the queue just drained below the low watermark:
    /// clear pressure.
    LinePressureOff(String),
    /// Queue empty.
    Empty,
}

/// Bounded FIFO of raw input lines.
#[derive(Debug)]
pub struct Backlog {
    queue: VecDeque<String>,
    capacity: usize,
    pressured: bool,
}

impl Backlog {
    /// A backlog holding at most `capacity` lines (floored at 1).
    pub fn new(capacity: usize) -> Self {
        Backlog {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            pressured: false,
        }
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The low watermark: pressure clears when the queue drains below
    /// this (half of capacity, at least 1).
    fn low_watermark(&self) -> usize {
        (self.capacity / 2).max(1)
    }

    /// Offer a line. Refused at capacity; otherwise enqueued, reporting
    /// whether this push raised pressure.
    pub fn push(&mut self, line: String) -> PushOutcome {
        if self.queue.len() >= self.capacity {
            return PushOutcome::Refused;
        }
        self.queue.push_back(line);
        if self.queue.len() >= self.capacity && !self.pressured {
            self.pressured = true;
            PushOutcome::AcceptedPressureOn
        } else {
            PushOutcome::Accepted
        }
    }

    /// Take the oldest line, reporting whether this drain cleared
    /// pressure.
    pub fn pop(&mut self) -> PopOutcome {
        let Some(line) = self.queue.pop_front() else {
            return PopOutcome::Empty;
        };
        if self.pressured && self.queue.len() < self.low_watermark() {
            self.pressured = false;
            PopOutcome::LinePressureOff(line)
        } else {
            PopOutcome::Line(line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_beyond_capacity() {
        let mut b = Backlog::new(2);
        assert_eq!(b.push("a".into()), PushOutcome::Accepted);
        assert_eq!(b.push("b".into()), PushOutcome::AcceptedPressureOn);
        assert_eq!(b.push("c".into()), PushOutcome::Refused, "bounded");
        assert_eq!(b.queue.len(), 2);
    }

    #[test]
    fn pressure_hysteresis() {
        let mut b = Backlog::new(4);
        for (i, line) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(b.push((*line).to_string()), PushOutcome::Accepted, "{i}");
        }
        assert_eq!(b.push("d".into()), PushOutcome::AcceptedPressureOn);
        assert!(b.pressured);
        // Draining to 3, then 2 (= low watermark) keeps pressure; 1 clears.
        assert_eq!(b.pop(), PopOutcome::Line("a".into()));
        assert_eq!(b.pop(), PopOutcome::Line("b".into()));
        assert_eq!(b.pop(), PopOutcome::LinePressureOff("c".into()));
        assert!(!b.pressured);
        assert_eq!(b.pop(), PopOutcome::Line("d".into()));
        assert_eq!(b.pop(), PopOutcome::Empty);
    }

    #[test]
    fn refill_after_drain_raises_pressure_again() {
        let mut b = Backlog::new(2);
        let _ = b.push("a".into());
        let _ = b.push("b".into());
        assert!(b.pressured);
        let _ = b.pop();
        let _ = b.pop();
        assert!(!b.pressured);
        let _ = b.push("c".into());
        assert_eq!(b.push("d".into()), PushOutcome::AcceptedPressureOn);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut b = Backlog::new(0);
        assert_eq!(b.push("a".into()), PushOutcome::AcceptedPressureOn);
        assert_eq!(b.push("b".into()), PushOutcome::Refused);
        assert!(b.is_empty() || b.queue.len() == 1);
    }
}
