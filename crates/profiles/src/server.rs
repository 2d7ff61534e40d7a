//! The per-zone profile server (§3.4.3).
//!
//! "Each zone has a profile server. The profile server maintains the
//! cell-profiles for all the cells in its zone and the portable-profiles
//! for all the portables currently in its zone, and updates the
//! cell/portable-profile upon each handoff."
//!
//! Base stations cache profiles and forward handoff updates here; in the
//! simulation the cache is modelled as direct access (cache staleness is
//! not one of the paper's evaluated effects), but the transfer of a
//! portable's profile between zones is — see
//! [`ProfileServer::extract_portable`] / [`ProfileServer::adopt_portable`].

use std::collections::BTreeMap;

use arm_net::ids::{CellId, PortableId, ZoneId};
use arm_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::cell::{CellProfile, DEFAULT_N_PC};
use crate::history::HandoffEvent;
use crate::portable::{PortableProfile, DEFAULT_N_PP};
use crate::prediction::{predict_next_cell, Prediction};

/// One zone's profile server.
///
/// ```
/// use arm_net::ids::{CellId, PortableId, ZoneId};
/// use arm_profiles::prediction::PredictionLevel;
/// use arm_profiles::{CellClass, CellProfile, ProfileServer};
/// use arm_sim::SimTime;
///
/// let mut server = ProfileServer::new(ZoneId(0));
/// let cell = |id, class, neighbors: &[u32]| {
///     CellProfile::with_default_capacity(CellId(id), class)
///         .with_neighbors(neighbors.iter().map(|n| CellId(*n)))
/// };
/// server.register_cell(cell(0, CellClass::Corridor, &[1]));
/// server.register_cell(cell(1, CellClass::Corridor, &[0, 2]));
/// server.register_cell(cell(2, CellClass::Office, &[1]));
///
/// // A commuter walks 0 → 1 → 2 a few times…
/// let p = PortableId(7);
/// server.portable_entered(p, CellId(0));
/// for _ in 0..3 {
///     server.record_handoff(p, None, CellId(0), CellId(1), SimTime::ZERO);
///     server.record_handoff(p, Some(CellId(0)), CellId(1), CellId(2), SimTime::ZERO);
/// }
/// // …and the three-level prediction learns the route.
/// let pred = server.predict_at(p, Some(CellId(0)), CellId(1));
/// assert_eq!(pred.cell, Some(CellId(2)));
/// assert_eq!(pred.level, PredictionLevel::PortableProfile);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProfileServer {
    /// The zone this server is responsible for.
    pub(crate) zone: ZoneId,
    cells: BTreeMap<CellId, CellProfile>,
    portables: BTreeMap<PortableId, PortableProfile>,
    /// Last known (prev, cur) context per portable, updated on handoff.
    contexts: BTreeMap<PortableId, (Option<CellId>, CellId)>,
    n_pp: usize,
    n_pc: usize,
}

impl ProfileServer {
    /// A server with the default history retention bounds.
    pub fn new(zone: ZoneId) -> Self {
        Self::with_capacities(zone, DEFAULT_N_PP, DEFAULT_N_PC)
    }

    /// A server with explicit `N_pP` / `N_pC`.
    pub(crate) fn with_capacities(zone: ZoneId, n_pp: usize, n_pc: usize) -> Self {
        ProfileServer {
            zone,
            cells: BTreeMap::new(),
            portables: BTreeMap::new(),
            contexts: BTreeMap::new(),
            n_pp,
            n_pc,
        }
    }

    /// Register a cell with its class (builder-style).
    pub fn register_cell(&mut self, profile: CellProfile) {
        self.cells.insert(profile.cell, profile);
    }

    /// Cell profile lookup.
    pub fn cell(&self, c: CellId) -> Option<&CellProfile> {
        self.cells.get(&c)
    }

    /// Portable profile lookup.
    pub fn portable(&self, p: PortableId) -> Option<&PortableProfile> {
        self.portables.get(&p)
    }

    /// The portable's last known (previous, current) cell context.
    pub fn context(&self, p: PortableId) -> Option<(Option<CellId>, CellId)> {
        self.contexts.get(&p).copied()
    }

    /// Record a handoff `cur → next` of `portable` (whose cell before
    /// `cur` was `prev`). Updates both the portable profile and `cur`'s
    /// cell profile, and advances the tracked context.
    pub fn record_handoff(
        &mut self,
        portable: PortableId,
        prev: Option<CellId>,
        cur: CellId,
        next: CellId,
        time: SimTime,
    ) {
        let ev = HandoffEvent {
            portable,
            prev,
            cur,
            next,
            time,
        };
        self.portables
            .entry(portable)
            .or_insert_with(|| PortableProfile::new(portable, self.n_pp))
            .record(ev);
        if let Some(cp) = self.cells.get_mut(&cur) {
            cp.record(ev);
        }
        self.contexts.insert(portable, (Some(cur), next));
    }

    /// A portable entered the zone (first sighting) at `cell`.
    pub fn portable_entered(&mut self, portable: PortableId, cell: CellId) {
        self.portables
            .entry(portable)
            .or_insert_with(|| PortableProfile::new(portable, self.n_pp));
        self.contexts.entry(portable).or_insert((None, cell));
    }

    /// Run the three-level prediction for an explicit context.
    pub fn predict_at(
        &self,
        portable: PortableId,
        prev: Option<CellId>,
        cur: CellId,
    ) -> Prediction {
        let fallback = Prediction {
            cell: None,
            level: crate::prediction::PredictionLevel::Default,
        };
        let Some(cp) = self.cells.get(&cur) else {
            return fallback;
        };
        predict_next_cell(
            portable,
            prev,
            cur,
            self.portables.get(&portable),
            cp,
            cp.neighbors.iter().filter_map(|n| self.cells.get(n)),
        )
    }

    /// Remove and return a portable's profile — "the base station …
    /// passes on the cached portable-profile to the next cell" — for a
    /// cross-zone move.
    pub(crate) fn extract_portable(&mut self, p: PortableId) -> Option<PortableProfile> {
        self.contexts.remove(&p);
        self.portables.remove(&p)
    }

    /// [`HandoffHistory::cache_rows`](crate::HandoffHistory::cache_rows)
    /// on every profile this server holds.
    pub(crate) fn cache_rows(&mut self) {
        self.cells.values_mut().for_each(CellProfile::cache_rows);
        self.portables
            .values_mut()
            .for_each(PortableProfile::cache_rows);
    }

    /// [`HandoffHistory::rows_len`](crate::HandoffHistory) summed over
    /// every profile this server holds.
    pub(crate) fn rows_len(&self) -> usize {
        let cells = self.cells.values().map(CellProfile::rows_len);
        cells
            .chain(self.portables.values().map(PortableProfile::rows_len))
            .sum()
    }

    /// Adopt a profile arriving from another zone.
    pub(crate) fn adopt_portable(&mut self, profile: PortableProfile, cell: CellId) {
        self.contexts.insert(profile.portable, (None, cell));
        self.portables.insert(profile.portable, profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{CellClass, LoungeKind};
    use crate::prediction::PredictionLevel;

    fn register_cell_simple(
        s: &mut ProfileServer,
        cell: CellId,
        class: CellClass,
        neighbors: impl IntoIterator<Item = CellId>,
    ) {
        s.register_cell(CellProfile::with_default_capacity(cell, class).with_neighbors(neighbors));
    }

    /// The prediction for a portable in its tracked context.
    fn predict(s: &ProfileServer, p: PortableId) -> Prediction {
        match s.context(p) {
            Some((prev, cur)) => s.predict_at(p, prev, cur),
            None => Prediction {
                cell: None,
                level: PredictionLevel::Default,
            },
        }
    }

    fn server() -> ProfileServer {
        let mut s = ProfileServer::new(ZoneId(0));
        // Corridor 0 between offices 1 and 2 and a lounge 3.
        register_cell_simple(
            &mut s,
            CellId(0),
            CellClass::Corridor,
            [CellId(1), CellId(2), CellId(3)],
        );
        s.register_cell(
            CellProfile::with_default_capacity(CellId(1), CellClass::Office)
                .with_neighbors([CellId(0)])
                .with_occupants([PortableId(1)]),
        );
        register_cell_simple(&mut s, CellId(2), CellClass::Office, [CellId(0)]);
        register_cell_simple(
            &mut s,
            CellId(3),
            CellClass::Lounge(LoungeKind::Default),
            [CellId(0)],
        );
        s
    }

    #[test]
    fn handoffs_feed_both_profiles_and_prediction() {
        let mut s = server();
        s.portable_entered(PortableId(5), CellId(0));
        // Portable 5 habitually moves 3 → 0 → 2.
        for _ in 0..5 {
            s.record_handoff(
                PortableId(5),
                Some(CellId(3)),
                CellId(0),
                CellId(2),
                SimTime::ZERO,
            );
        }
        // Re-establish the context as "came from 3, now in 0".
        s.contexts
            .insert(PortableId(5), (Some(CellId(3)), CellId(0)));
        let pred = predict(&s, PortableId(5));
        assert_eq!(pred.cell, Some(CellId(2)));
        assert_eq!(pred.level, PredictionLevel::PortableProfile);
        // The cell profile aggregated the same movements.
        assert_eq!(s.cell(CellId(0)).unwrap().history_len(), 5);
    }

    #[test]
    fn occupant_office_prediction_for_unknown_portable() {
        let mut s = server();
        s.portable_entered(PortableId(1), CellId(0));
        // No personal history, but portable 1 occupies office 1.
        let pred = predict(&s, PortableId(1));
        assert_eq!(pred.cell, Some(CellId(1)));
        assert_eq!(pred.level, PredictionLevel::OccupantOffice);
    }

    #[test]
    fn aggregate_prediction_for_strangers() {
        let mut s = server();
        // Many strangers flow 1 → 0 → 3.
        for i in 10..20 {
            s.record_handoff(
                PortableId(i),
                Some(CellId(1)),
                CellId(0),
                CellId(3),
                SimTime::ZERO,
            );
        }
        s.portable_entered(PortableId(99), CellId(0));
        s.contexts
            .insert(PortableId(99), (Some(CellId(1)), CellId(0)));
        let pred = predict(&s, PortableId(99));
        // Portable 99's own single-context profile is empty; but wait —
        // it has no profile history at all, so level 2b fires.
        assert_eq!(pred.cell, Some(CellId(3)));
        assert_eq!(pred.level, PredictionLevel::CellAggregate);
    }

    #[test]
    fn unknown_everything_defaults() {
        let mut s = server();
        s.portable_entered(PortableId(42), CellId(3));
        let pred = predict(&s, PortableId(42));
        assert_eq!(pred.level, PredictionLevel::Default);
        assert_eq!(pred.cell, None);
        // Never-seen portable too.
        assert_eq!(predict(&s, PortableId(77)).level, PredictionLevel::Default);
    }

    #[test]
    fn profile_transfer_between_zones() {
        let mut s1 = server();
        let mut s2 = ProfileServer::new(ZoneId(1));
        register_cell_simple(&mut s2, CellId(9), CellClass::Corridor, []);
        s1.portable_entered(PortableId(5), CellId(0));
        s1.record_handoff(
            PortableId(5),
            Some(CellId(3)),
            CellId(0),
            CellId(2),
            SimTime::ZERO,
        );
        let profile = s1.extract_portable(PortableId(5)).expect("profile exists");
        assert!(s1.portable(PortableId(5)).is_none());
        assert_eq!(profile.history_len(), 1);
        s2.adopt_portable(profile, CellId(9));
        assert!(s2.portable(PortableId(5)).is_some());
        assert_eq!(s2.context(PortableId(5)), Some((None, CellId(9))));
    }

    #[test]
    fn portable_count_tracks_zone_population() {
        let mut s = server();
        assert_eq!(s.portables.len(), 0);
        s.portable_entered(PortableId(1), CellId(0));
        s.portable_entered(PortableId(2), CellId(0));
        s.portable_entered(PortableId(1), CellId(3)); // re-entry, no dup
        assert_eq!(s.portables.len(), 2);
        s.extract_portable(PortableId(1));
        assert_eq!(s.portables.len(), 1);
    }
}
