//! Portable profiles (§3.4.3, Table 1).
//!
//! The profile of a portable carries "an aggregated history of its
//! previous handoffs, which is used to predict its next cell given its
//! current cell": the set of ⟨previous cell, current cell,
//! next-predicted-cell⟩ triplets, aggregated from the last `N_pP`
//! handoffs the profile server recorded for this portable.

use std::collections::BTreeMap;

use arm_net::ids::{CellId, PortableId};
use serde::{Deserialize, Serialize};

use crate::history::{HandoffEvent, HandoffHistory};

/// Default `N_pP`: how many of a portable's handoffs the server retains.
pub(crate) const DEFAULT_N_PP: usize = 100;

/// One portable's aggregated movement history.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PortableProfile {
    /// Whose profile this is (Table 1: every profile carries the
    /// identification of the entity).
    pub(crate) portable: PortableId,
    history: HandoffHistory,
    /// Aggregate: (prev, cur) → next-predicted-cell, recomputed lazily.
    triplets: BTreeMap<(Option<CellId>, CellId), CellId>,
}

impl PortableProfile {
    /// Fresh profile retaining `n_pp` handoffs.
    pub(crate) fn new(portable: PortableId, n_pp: usize) -> Self {
        PortableProfile {
            portable,
            history: HandoffHistory::new(n_pp),
            triplets: BTreeMap::new(),
        }
    }

    /// Record one handoff of this portable and refresh the affected
    /// triplet.
    pub(crate) fn record(&mut self, ev: HandoffEvent) {
        debug_assert_eq!(ev.portable, self.portable);
        self.history.record(ev);
        // Recompute the triplet for this (prev, cur) context from the
        // retained history (majority vote).
        let key = (ev.prev, ev.cur);
        if let Some((next, _, _)) = self
            .history
            .most_common_next(|e| e.prev == ev.prev && e.cur == ev.cur)
        {
            self.triplets.insert(key, next);
        }
    }

    /// First-level prediction: "knowing the previous cell id, together
    /// with the current cell id, the base station checks the
    /// next-predicted-cell field". `None` means the profile has no
    /// history for this movement context.
    pub(crate) fn next_predicted(&self, prev: Option<CellId>, cur: CellId) -> Option<CellId> {
        self.triplets.get(&(prev, cur)).copied().or_else(|| {
            // A portable whose exact (prev, cur) context is unknown may
            // still have history for the current cell with a different
            // previous cell; the paper's triplet table is keyed on both,
            // so we only fall back when prev itself is unknown.
            if prev.is_some() {
                None
            } else {
                self.history
                    .most_common_next(|e| e.cur == cur)
                    .map(|(c, _, _)| c)
            }
        })
    }

    /// Number of handoffs retained.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// [`HandoffHistory::cache_rows`] on this profile's history.
    pub(crate) fn cache_rows(&mut self) {
        self.history.cache_rows();
    }

    /// All aggregated triplets (for Table 1 style dumps).
    pub fn triplets(&self) -> impl Iterator<Item = (Option<CellId>, CellId, CellId)> + '_ {
        self.triplets.iter().map(|((p, c), n)| (*p, *c, *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_sim::SimTime;

    fn ev(prev: Option<u32>, cur: u32, next: u32) -> HandoffEvent {
        HandoffEvent {
            portable: PortableId(7),
            prev: prev.map(CellId),
            cur: CellId(cur),
            next: CellId(next),
            time: SimTime::ZERO,
        }
    }

    #[test]
    fn majority_vote_prediction() {
        let mut p = PortableProfile::new(PortableId(7), 50);
        // From corridor 3 (having come from 2), this user mostly goes to
        // office 10, occasionally to 11.
        for _ in 0..8 {
            p.record(ev(Some(2), 3, 10));
        }
        for _ in 0..3 {
            p.record(ev(Some(2), 3, 11));
        }
        assert_eq!(
            p.next_predicted(Some(CellId(2)), CellId(3)),
            Some(CellId(10))
        );
        // Different context: no triplet.
        assert_eq!(p.next_predicted(Some(CellId(9)), CellId(3)), None);
    }

    #[test]
    fn prediction_adapts_as_habits_change() {
        let mut p = PortableProfile::new(PortableId(7), 10);
        for _ in 0..10 {
            p.record(ev(Some(1), 2, 3));
        }
        assert_eq!(
            p.next_predicted(Some(CellId(1)), CellId(2)),
            Some(CellId(3))
        );
        // The user's habit changes; the bounded history forgets.
        for _ in 0..10 {
            p.record(ev(Some(1), 2, 4));
        }
        assert_eq!(
            p.next_predicted(Some(CellId(1)), CellId(2)),
            Some(CellId(4))
        );
    }

    #[test]
    fn unknown_prev_falls_back_to_current_cell_majority() {
        let mut p = PortableProfile::new(PortableId(7), 50);
        p.record(ev(Some(1), 2, 3));
        p.record(ev(Some(4), 2, 3));
        p.record(ev(Some(5), 2, 6));
        assert_eq!(p.next_predicted(None, CellId(2)), Some(CellId(3)));
    }

    #[test]
    fn empty_profile_predicts_nothing() {
        let p = PortableProfile::new(PortableId(1), DEFAULT_N_PP);
        assert_eq!(p.next_predicted(Some(CellId(0)), CellId(1)), None);
        assert_eq!(p.next_predicted(None, CellId(1)), None);
        assert_eq!(p.history_len(), 0);
    }

    #[test]
    fn triplets_enumerate() {
        let mut p = PortableProfile::new(PortableId(7), 50);
        p.record(ev(Some(1), 2, 3));
        p.record(ev(Some(2), 3, 4));
        let t: Vec<_> = p.triplets().collect();
        assert_eq!(t.len(), 2);
        assert!(t.contains(&(Some(CellId(1)), CellId(2), CellId(3))));
    }
}
