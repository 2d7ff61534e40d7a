//! Bounded handoff history.
//!
//! The profile server "maintains the following information about the last
//! `N_pP` handoffs from each cell … for that portable" and "the last
//! `N_pC` handoffs of the cell" (§3.4.3). [`HandoffHistory`] is the
//! bounded FIFO both profile kinds aggregate from; [`CountedHistory`] is
//! the cell profile's, with the per-`next` tallies its predictions read
//! kept resident instead of recounted per query.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

use arm_net::ids::{CellId, PortableId};
use arm_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One observed handoff: the portable moved `prev → cur → next` (where
/// `prev` may be unknown for a portable's first movement).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HandoffEvent {
    /// Who moved.
    pub portable: PortableId,
    /// The cell before the cell being left (None on first movement).
    pub prev: Option<CellId>,
    /// The cell being left.
    pub cur: CellId,
    /// The cell being entered.
    pub next: CellId,
    /// When.
    pub time: SimTime,
}

/// A FIFO of the most recent `cap` handoff events.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HandoffHistory {
    cap: usize,
    events: VecDeque<HandoffEvent>,
    total_recorded: u64,
}

impl HandoffHistory {
    /// History bounded to `cap` events.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        HandoffHistory {
            cap,
            events: VecDeque::with_capacity(cap.min(1024)),
            total_recorded: 0,
        }
    }

    /// Record an event, evicting (and returning) the oldest when full.
    pub fn record(&mut self, ev: HandoffEvent) -> Option<HandoffEvent> {
        let evicted = if self.events.len() == self.cap {
            self.events.pop_front()
        } else {
            None
        };
        self.events.push_back(ev);
        self.total_recorded += 1;
        evicted
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &HandoffEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the history empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Lifetime count of recorded events (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Most common `next` cell among events matching the filter, with its
    /// frequency (count, total-matching).
    pub fn most_common_next<F>(&self, filter: F) -> Option<(CellId, usize, usize)>
    where
        F: Fn(&HandoffEvent) -> bool,
    {
        let mut counts: BTreeMap<CellId, usize> = BTreeMap::new();
        let mut total = 0;
        for ev in self.events.iter().filter(|e| filter(e)) {
            *counts.entry(ev.next).or_insert(0) += 1;
            total += 1;
        }
        counts
            .into_iter()
            .max_by_key(|(c, n)| (*n, Reverse(*c)))
            .map(|(c, n)| (c, n, total))
    }
}

/// The entry with the highest count — the smaller cell id on a tie —
/// with its count and the sum of all counts: what
/// [`HandoffHistory::most_common_next`] computes from a recount, computed
/// from tallies (kept apart from it so each can check the other).
fn majority(counts: impl IntoIterator<Item = (CellId, usize)>) -> Option<(CellId, usize, usize)> {
    let mut total = 0;
    let mut best: Option<(CellId, usize)> = None;
    for (c, n) in counts {
        total += n;
        if best.map_or(true, |(bc, bn)| (n, Reverse(c)) > (bn, Reverse(bc))) {
            best = Some((c, n));
        }
    }
    best.map(|(c, n)| (c, n, total))
}

/// A [`HandoffHistory`] whose events all leave one cell, plus how many
/// of the retained events went to each `next` cell — overall and per
/// `prev` cell. The tallies are what a cell profile's level-2b
/// prediction and transition rows are made of; keeping them here, next
/// to the FIFO whose eviction they must follow, makes those queries
/// O(neighbours) instead of a recount of up to `N_pC` events each.
///
/// The tallies are derived state: incremented on push and decremented
/// on eviction inside [`record`](Self::record), the only mutator;
/// never serialised (the encoding is exactly the inner
/// [`HandoffHistory`]'s); recounted from the events on decode, so a
/// document cannot supply its own. No tally is ever zero.
#[derive(Clone, Debug)]
pub struct CountedHistory {
    history: HandoffHistory,
    by_prev: BTreeMap<(Option<CellId>, CellId), usize>,
    by_next: BTreeMap<CellId, usize>,
}

impl Serialize for CountedHistory {
    fn to_value(&self) -> serde::Value {
        self.history.to_value()
    }
    fn write_json(&self, out: &mut serde::JsonWriter) {
        self.history.write_json(out);
    }
}

impl Deserialize for CountedHistory {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        HandoffHistory::from_value(v).map(Self::recount)
    }
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        HandoffHistory::read_json(r).map(Self::recount)
    }
}

impl CountedHistory {
    /// A decoded FIFO with its tallies counted from its events.
    fn recount(history: HandoffHistory) -> Self {
        let mut counted = CountedHistory {
            history,
            by_prev: BTreeMap::new(),
            by_next: BTreeMap::new(),
        };
        for ev in &counted.history.events {
            *counted.by_prev.entry((ev.prev, ev.next)).or_insert(0) += 1;
            *counted.by_next.entry(ev.next).or_insert(0) += 1;
        }
        counted
    }

    /// History bounded to `cap` events.
    pub fn new(cap: usize) -> Self {
        CountedHistory {
            history: HandoffHistory::new(cap),
            by_prev: BTreeMap::new(),
            by_next: BTreeMap::new(),
        }
    }

    /// Record an event, evicting the oldest when full.
    pub fn record(&mut self, ev: HandoffEvent) {
        if let Some(old) = self.history.record(ev) {
            decrement(&mut self.by_prev, (old.prev, old.next));
            decrement(&mut self.by_next, old.next);
        }
        *self.by_prev.entry((ev.prev, ev.next)).or_insert(0) += 1;
        *self.by_next.entry(ev.next).or_insert(0) += 1;
    }

    /// The event FIFO itself.
    pub fn history(&self) -> &HandoffHistory {
        &self.history
    }

    /// How many retained events whose previous cell was `prev` went to
    /// each `next` cell, ascending by cell.
    pub fn next_counts_after(
        &self,
        prev: Option<CellId>,
    ) -> impl Iterator<Item = (CellId, usize)> + '_ {
        self.by_prev
            .range((prev, CellId(0))..=(prev, CellId(u32::MAX)))
            .map(|((_, next), n)| (*next, *n))
    }

    /// How many retained events went to each `next` cell, ascending by
    /// cell.
    pub fn next_counts(&self) -> impl Iterator<Item = (CellId, usize)> + '_ {
        self.by_next.iter().map(|(next, n)| (*next, *n))
    }

    /// [`HandoffHistory::most_common_next`] with the filter
    /// `e.prev == prev`, from the tallies.
    pub fn most_common_next_after(&self, prev: Option<CellId>) -> Option<(CellId, usize, usize)> {
        majority(self.next_counts_after(prev))
    }

    /// [`HandoffHistory::most_common_next`] over every retained event,
    /// from the tallies.
    pub fn most_common_next(&self) -> Option<(CellId, usize, usize)> {
        majority(self.next_counts())
    }
}

/// Take one off a tally, removing the entry when it reaches zero.
fn decrement<K: Ord>(counts: &mut BTreeMap<K, usize>, key: K) {
    if let std::collections::btree_map::Entry::Occupied(mut e) = counts.entry(key) {
        *e.get_mut() -= 1;
        if *e.get() == 0 {
            e.remove();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(p: u32, prev: Option<u32>, cur: u32, next: u32) -> HandoffEvent {
        HandoffEvent {
            portable: PortableId(p),
            prev: prev.map(CellId),
            cur: CellId(cur),
            next: CellId(next),
            time: SimTime::ZERO,
        }
    }

    #[test]
    fn fifo_eviction() {
        let mut h = HandoffHistory::new(3);
        for i in 0..5 {
            h.record(ev(0, None, i, i + 1));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.total_recorded(), 5);
        let curs: Vec<u32> = h.events().map(|e| e.cur.0).collect();
        assert_eq!(curs, vec![2, 3, 4]);
        assert_eq!(h.capacity(), 3);
    }

    #[test]
    fn most_common_next_with_filter() {
        let mut h = HandoffHistory::new(10);
        h.record(ev(1, Some(0), 1, 2));
        h.record(ev(1, Some(0), 1, 2));
        h.record(ev(1, Some(0), 1, 3));
        h.record(ev(2, Some(0), 1, 3)); // different portable
        let (next, n, total) = h.most_common_next(|e| e.portable == PortableId(1)).unwrap();
        assert_eq!(next, CellId(2));
        assert_eq!(n, 2);
        assert_eq!(total, 3);
        assert!(h
            .most_common_next(|e| e.portable == PortableId(9))
            .is_none());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut h = HandoffHistory::new(10);
        h.record(ev(1, None, 1, 5));
        h.record(ev(1, None, 1, 3));
        // Equal counts: the smaller cell id wins (reverse-id tiebreak).
        let (next, _, _) = h.most_common_next(|_| true).unwrap();
        assert_eq!(next, CellId(3));
    }

    proptest::proptest! {
        /// Over any record sequence on a small cap (so eviction runs),
        /// the tallies answer what a recount of the retained events
        /// answers, hold no zero, and are rebuilt — not read — on decode.
        #[test]
        fn tallies_equal_a_recount(
            cap in 1usize..7,
            // (prev: 0 = unknown, else cell prev-1; next)
            moves in proptest::collection::vec((0u32..4, 0u32..4), 0..40),
        ) {
            let mut h = CountedHistory::new(cap);
            for (i, (prev, next)) in moves.into_iter().enumerate() {
                h.record(ev(i as u32, prev.checked_sub(1), 9, next));
                let recount = |keep: &dyn Fn(&HandoffEvent) -> bool| {
                    let mut m: BTreeMap<CellId, usize> = BTreeMap::new();
                    for e in h.history().events().filter(|e| keep(e)) {
                        *m.entry(e.next).or_insert(0) += 1;
                    }
                    m
                };
                proptest::prop_assert_eq!(
                    h.next_counts().collect::<BTreeMap<_, _>>(),
                    recount(&|_| true)
                );
                proptest::prop_assert_eq!(
                    h.most_common_next(),
                    h.history().most_common_next(|_| true)
                );
                for prev in [None, Some(0), Some(1), Some(2), Some(7)].map(|p| p.map(CellId)) {
                    proptest::prop_assert_eq!(
                        h.next_counts_after(prev).collect::<BTreeMap<_, _>>(),
                        recount(&|e| e.prev == prev)
                    );
                    proptest::prop_assert_eq!(
                        h.most_common_next_after(prev),
                        h.history().most_common_next(|e| e.prev == prev)
                    );
                }
                proptest::prop_assert!(h.by_prev.values().chain(h.by_next.values()).all(|n| *n > 0));
                proptest::prop_assert_eq!(h.by_next.values().sum::<usize>(), h.history().len());

                // The encoding is the FIFO's alone, and survives a round trip.
                let doc = h.to_value();
                proptest::prop_assert_eq!(&doc, &h.history().to_value());
                let back = CountedHistory::from_value(&doc).expect("decodes");
                proptest::prop_assert_eq!(&back.by_prev, &h.by_prev);
                proptest::prop_assert_eq!(&back.by_next, &h.by_next);
                proptest::prop_assert_eq!(&back.to_value(), &doc);
                // Tallies smuggled into the document are not believed.
                let serde::Value::Object(mut fields) = doc else {
                    panic!("a history encodes as an object");
                };
                let forged: BTreeMap<CellId, usize> = [(CellId(3), 99)].into();
                fields.push(("by_next".to_string(), forged.to_value()));
                fields.push(("by_prev".to_string(), serde::Value::Null));
                let back = CountedHistory::from_value(&serde::Value::Object(fields)).expect("decodes");
                proptest::prop_assert_eq!(&back.by_prev, &h.by_prev);
                proptest::prop_assert_eq!(&back.by_next, &h.by_next);
            }
        }
    }
}
