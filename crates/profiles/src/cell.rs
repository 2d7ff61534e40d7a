//! Cell profiles (§3.4.3, Table 1).
//!
//! A cell's profile carries its class, its neighbour set `η(c)`, for an
//! office its regular occupants `ω(c)`, and the aggregate handoff
//! history: for each previous cell `i`, the probability `p_j` of handing
//! off to each neighbour `j` — ⟨i, ∀j ∈ η(c): {j, p_j}⟩ — built from the
//! cell's last `N_pC` handoffs.

use std::collections::{BTreeMap, BTreeSet};

use arm_net::ids::{CellId, PortableId};
use serde::{Deserialize, Serialize};

use crate::class::CellClass;
use crate::history::{CountedHistory, HandoffEvent, HandoffHistory};

/// Default `N_pC`: how many of a cell's handoffs the server retains.
pub(crate) const DEFAULT_N_PC: usize = 500;

/// One cell's profile.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellProfile {
    /// Whose profile this is.
    pub(crate) cell: CellId,
    /// Location-dependent class (may be relearned, §6.4).
    pub class: CellClass,
    /// Neighbour set `η(c)`.
    pub neighbors: BTreeSet<CellId>,
    /// Regular occupants `ω(c)` (offices only).
    pub(crate) occupants: BTreeSet<PortableId>,
    history: CountedHistory,
}

impl CellProfile {
    /// Fresh profile retaining `n_pc` handoffs.
    pub fn new(cell: CellId, class: CellClass, n_pc: usize) -> Self {
        CellProfile {
            cell,
            class,
            neighbors: BTreeSet::new(),
            occupants: BTreeSet::new(),
            history: CountedHistory::new(n_pc),
        }
    }

    /// Fresh profile with the default retention.
    pub fn with_default_capacity(cell: CellId, class: CellClass) -> Self {
        Self::new(cell, class, DEFAULT_N_PC)
    }

    /// Declare the neighbour set.
    pub fn with_neighbors(mut self, neighbors: impl IntoIterator<Item = CellId>) -> Self {
        self.neighbors = neighbors.into_iter().collect();
        self
    }

    /// Declare office occupants.
    pub fn with_occupants(mut self, occupants: impl IntoIterator<Item = PortableId>) -> Self {
        self.occupants = occupants.into_iter().collect();
        self
    }

    /// Is `p` a regular occupant of this (office) cell?
    pub fn is_occupant(&self, p: PortableId) -> bool {
        self.occupants.contains(&p)
    }

    /// Record a handoff *out of* this cell (`ev.cur == self.cell`).
    pub fn record(&mut self, ev: HandoffEvent) {
        debug_assert_eq!(ev.cur, self.cell);
        self.history.record(ev);
    }

    /// The aggregate transition row for a given previous cell: the
    /// probability of handing off to each neighbour, ⟨i, {j, p_j}⟩.
    /// Probabilities are empirical frequencies over the retained history;
    /// an empty row means no history for that context.
    pub fn transition_row(&self, prev: Option<CellId>) -> BTreeMap<CellId, f64> {
        let mut row = Vec::new();
        frequencies(self.history.next_counts_after(prev), &mut row);
        row.into_iter().collect()
    }

    /// The aggregate transition probabilities over *all* previous cells,
    /// ascending by cell, into `row` (cleared first; a caller's resident
    /// buffer, so a steady-state read allocates nothing).
    pub fn aggregate_row_into(&self, row: &mut Vec<(CellId, f64)>) {
        frequencies(self.history.next_counts(), row);
    }

    /// Second-level prediction from the aggregate history: most likely
    /// next cell given the previous cell, falling back to the overall
    /// majority when the (prev) context has no history.
    pub(crate) fn predict_next(&self, prev: Option<CellId>) -> Option<CellId> {
        self.history
            .most_common_next_after(prev)
            .or_else(|| self.history.most_common_next())
            .map(|(c, _, _)| c)
    }

    /// Number of handoffs retained.
    #[cfg(test)]
    pub(crate) fn history_len(&self) -> usize {
        self.history.history().len()
    }

    /// Direct history access (classification learning reads the raw
    /// event stream).
    pub fn history(&self) -> &HandoffHistory {
        self.history.history()
    }

    /// [`HandoffHistory::cache_rows`] on this profile's history.
    pub(crate) fn cache_rows(&mut self) {
        self.history.cache_rows();
    }

    /// [`HandoffHistory::rows_len`] of this profile's history.
    pub(crate) fn rows_len(&self) -> usize {
        self.history.rows_len()
    }
}

/// Counts (ascending by cell) as empirical frequencies of their total,
/// into `row`.
fn frequencies(counts: impl Iterator<Item = (CellId, usize)>, row: &mut Vec<(CellId, f64)>) {
    row.clear();
    let mut total = 0usize;
    row.extend(
        counts
            .inspect(|(_, n)| total += n)
            .map(|(c, n)| (c, n as f64)),
    );
    for (_, p) in row.iter_mut() {
        *p /= total as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_sim::SimTime;

    fn ev(p: u32, prev: Option<u32>, next: u32) -> HandoffEvent {
        HandoffEvent {
            portable: PortableId(p),
            prev: prev.map(CellId),
            cur: CellId(50),
            next: CellId(next),
            time: SimTime::ZERO,
        }
    }

    fn corridor() -> CellProfile {
        CellProfile::with_default_capacity(CellId(50), CellClass::Corridor)
            .with_neighbors([CellId(49), CellId(51)])
    }

    #[test]
    fn transition_rows_are_conditional_frequencies() {
        let mut c = corridor();
        // Users arriving from 49 continue to 51 (linear movement)…
        for i in 0..9 {
            c.record(ev(i, Some(49), 51));
        }
        c.record(ev(9, Some(49), 49)); // one turns back
                                       // …and vice versa.
        for i in 10..14 {
            c.record(ev(i, Some(51), 49));
        }
        let row = c.transition_row(Some(CellId(49)));
        assert!((row[&CellId(51)] - 0.9).abs() < 1e-12);
        assert!((row[&CellId(49)] - 0.1).abs() < 1e-12);
        let row_back = c.transition_row(Some(CellId(51)));
        assert_eq!(row_back[&CellId(49)], 1.0);
        assert!(c.transition_row(Some(CellId(99))).is_empty());
    }

    #[test]
    fn prediction_uses_context_then_aggregate() {
        let mut c = corridor();
        for i in 0..5 {
            c.record(ev(i, Some(49), 51));
        }
        assert_eq!(c.predict_next(Some(CellId(49))), Some(CellId(51)));
        // Unknown context falls back to the overall majority.
        assert_eq!(c.predict_next(Some(CellId(77))), Some(CellId(51)));
        // Empty profile predicts nothing.
        let fresh = corridor();
        assert_eq!(fresh.predict_next(None), None);
    }

    /// The rows as they were computed before the history kept tallies:
    /// a recount of the retained events per query.
    fn recounted_row(
        c: &CellProfile,
        keep: impl Fn(&HandoffEvent) -> bool,
    ) -> BTreeMap<CellId, f64> {
        let mut counts: BTreeMap<CellId, usize> = BTreeMap::new();
        let mut total = 0usize;
        for e in c.history().events().filter(|e| keep(e)) {
            *counts.entry(e.next).or_insert(0) += 1;
            total += 1;
        }
        counts
            .into_iter()
            .map(|(c, n)| (c, n as f64 / total as f64))
            .collect()
    }

    #[test]
    fn rows_and_prediction_equal_a_recount_through_eviction() {
        let mut c = CellProfile::new(CellId(50), CellClass::Corridor, 7);
        let bits = |row: BTreeMap<CellId, f64>| -> Vec<(CellId, u64)> {
            row.into_iter().map(|(c, p)| (c, p.to_bits())).collect()
        };
        let mut aggregate = Vec::new();
        for i in 0..40u32 {
            // Thirds and sevenths: frequencies that do not round evenly.
            c.record(ev(
                i,
                [None, Some(49), Some(51)][(i % 3) as usize],
                40 + (i * i) % 5,
            ));
            c.aggregate_row_into(&mut aggregate);
            assert_eq!(
                bits(aggregate.iter().copied().collect()),
                bits(recounted_row(&c, |_| true))
            );
            for prev in [None, Some(CellId(49)), Some(CellId(51)), Some(CellId(7))] {
                assert_eq!(
                    bits(c.transition_row(prev)),
                    bits(recounted_row(&c, |e| e.prev == prev))
                );
                let scan = c
                    .history()
                    .most_common_next(|e| e.prev == prev)
                    .or_else(|| c.history().most_common_next(|_| true))
                    .map(|(n, _, _)| n);
                assert_eq!(c.predict_next(prev), scan);
            }
        }
        assert_eq!(c.history_len(), 7);
    }

    #[test]
    fn aggregate_row_sums_to_one() {
        let mut c = corridor();
        for i in 0..7 {
            c.record(ev(i, Some(49), 51));
        }
        for i in 7..10 {
            c.record(ev(i, Some(51), 49));
        }
        // A stale row in the buffer is replaced, not appended to.
        let mut row = vec![(CellId(7), 1.0)];
        c.aggregate_row_into(&mut row);
        assert_eq!(
            row.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            [CellId(49), CellId(51)]
        );
        let sum: f64 = row.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((row[1].1 - 0.7).abs() < 1e-12);
    }

    #[test]
    fn occupants() {
        let office = CellProfile::with_default_capacity(CellId(1), CellClass::Office)
            .with_occupants([PortableId(3), PortableId(4)]);
        assert!(office.is_occupant(PortableId(3)));
        assert!(!office.is_occupant(PortableId(5)));
    }
}
