//! Zones and cross-zone profile hand-over (§3.4.1/§3.4.3).
//!
//! "The universe is divided into distinct geographical regions called
//! *zones*. Each zone has a *profile server*" holding the cell profiles
//! of its cells and the portable profiles of the portables currently in
//! it. When a portable crosses a zone boundary, its cached profile is
//! "passed on … to the next cell" — the old zone's server surrenders it
//! and the new zone's adopts it, so the portable's movement history (and
//! therefore level-1 prediction) survives the crossing.
//!
//! [`ZonedProfiles`] wraps one [`ProfileServer`] per zone behind the same
//! API the single-zone manager uses, routing every operation to the zone
//! that owns the cell involved.

use std::collections::BTreeMap;

use arm_net::ids::{CellId, PortableId, ZoneId};
use arm_sim::{Audited, SimTime};
use serde::{Deserialize, Serialize};

use crate::cell::CellProfile;
use crate::prediction::{Prediction, PredictionLevel};
use crate::server::ProfileServer;

/// A universe of zones, each with its profile server.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ZonedProfiles {
    zone_of: BTreeMap<CellId, ZoneId>,
    servers: BTreeMap<ZoneId, ProfileServer>,
    /// Which zone currently holds each portable's profile.
    portable_zone: BTreeMap<PortableId, ZoneId>,
    /// Universe-level movement context (survives zone crossings).
    contexts: BTreeMap<PortableId, (Option<CellId>, CellId)>,
    /// Cross-zone profile transfers performed (observability).
    pub transfers: u64,
}

impl ZonedProfiles {
    /// An empty universe.
    pub fn new() -> Self {
        ZonedProfiles {
            zone_of: BTreeMap::new(),
            servers: BTreeMap::new(),
            portable_zone: BTreeMap::new(),
            contexts: BTreeMap::new(),
            transfers: 0,
        }
    }

    /// Register a cell profile under a zone (creates the zone's server on
    /// first use).
    pub fn register_cell(&mut self, zone: ZoneId, profile: CellProfile) {
        self.zone_of.insert(profile.cell, zone);
        self.servers
            .entry(zone)
            .or_insert_with(|| ProfileServer::new(zone))
            .register_cell(profile);
    }

    /// The zone owning a cell (panics on unregistered cells — a
    /// configuration error).
    pub fn zone_of(&self, cell: CellId) -> ZoneId {
        *self
            .zone_of
            .get(&cell)
            .precondition("cell registered with a zone")
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.servers.len()
    }

    /// A zone's server.
    pub fn server(&self, zone: ZoneId) -> Option<&ProfileServer> {
        self.servers.get(&zone)
    }

    /// Cell profile lookup (routed to the owning zone).
    pub fn cell(&self, c: CellId) -> Option<&CellProfile> {
        let zone = self.zone_of.get(&c)?;
        self.servers.get(zone)?.cell(c)
    }

    /// First sighting of a portable.
    pub fn portable_entered(&mut self, p: PortableId, cell: CellId) {
        let zone = self.zone_of(cell);
        self.servers
            .entry(zone)
            .or_insert_with(|| ProfileServer::new(zone))
            .portable_entered(p, cell);
        self.portable_zone.insert(p, zone);
        self.contexts.entry(p).or_insert((None, cell));
    }

    /// Record a handoff `cur → next` (the portable's cell before `cur`
    /// was `prev`). Routes the update to `cur`'s zone and, when the move
    /// crosses a zone boundary, hands the portable profile over.
    pub fn record_handoff(
        &mut self,
        p: PortableId,
        prev: Option<CellId>,
        cur: CellId,
        next: CellId,
        time: SimTime,
    ) {
        let cur_zone = self.zone_of(cur);
        let next_zone = self.zone_of(next);
        self.servers
            .entry(cur_zone)
            .or_insert_with(|| ProfileServer::new(cur_zone))
            .record_handoff(p, prev, cur, next, time);
        if next_zone != cur_zone {
            // "passes on the cached portable-profile to the next cell".
            let profile = self
                .servers
                .get_mut(&cur_zone)
                .and_then(|s| s.extract_portable(p));
            if let Some(profile) = profile {
                self.servers
                    .entry(next_zone)
                    .or_insert_with(|| ProfileServer::new(next_zone))
                    .adopt_portable(profile, next);
                self.transfers += 1;
            }
        }
        self.portable_zone.insert(p, next_zone);
        self.contexts.insert(p, (Some(cur), next));
    }

    /// Three-level prediction at the portable's current context.
    pub fn predict(&self, p: PortableId) -> Prediction {
        match self.contexts.get(&p) {
            Some((prev, cur)) => self.predict_at(p, *prev, *cur),
            None => Prediction {
                cell: None,
                level: PredictionLevel::Default,
            },
        }
    }

    /// Three-level prediction at an explicit context.
    pub fn predict_at(&self, p: PortableId, prev: Option<CellId>, cur: CellId) -> Prediction {
        self.dispatch_inputs(p, prev, cur).1
    }

    /// What the §6.4 dispatcher reads for `p` in context `(prev, cur)` —
    /// is `p` a regular occupant of `cur`, and the three-level
    /// prediction — from one resolution of `cur`'s zone, server and
    /// profile. The portable's profile is consulted in whatever zone
    /// currently holds it; the cell profiles in the zones owning them.
    ///
    /// A pure function of `p`'s own profile, `cur`'s handoff history and
    /// data fixed at registration (classes, neighbours, occupants): the
    /// answer stands until `p` itself moves or a handoff out of `cur` is
    /// recorded, which is what lets a caller keep it.
    pub fn dispatch_inputs(
        &self,
        p: PortableId,
        prev: Option<CellId>,
        cur: CellId,
    ) -> (bool, Prediction) {
        let Some(cp) = self.cell(cur) else {
            let fallback = Prediction {
                cell: None,
                level: PredictionLevel::Default,
            };
            return (false, fallback);
        };
        let portable_profile = self
            .portable_zone
            .get(&p)
            .and_then(|z| self.servers.get(z))
            .and_then(|s| s.portable(p));
        let prediction = crate::prediction::predict_next_cell(
            p,
            prev,
            cur,
            portable_profile,
            cp,
            cp.neighbors.iter().filter_map(|n| self.cell(*n)),
        );
        (cp.is_occupant(p), prediction)
    }

    /// Levels 2b and 3 of [`dispatch_inputs`](Self::dispatch_inputs)'
    /// prediction alone: `cur`'s aggregate handoff history, else the
    /// default. What that prediction is when levels 1 and 2a have nothing
    /// to say — so a caller that saw them say nothing, and has seen only
    /// `cur`'s history change since, need not ask them again.
    pub fn aggregate_prediction(&self, prev: Option<CellId>, cur: CellId) -> Prediction {
        match self.cell(cur) {
            Some(cp) => crate::prediction::aggregate_prediction(prev, cp),
            None => Prediction {
                cell: None,
                level: PredictionLevel::Default,
            },
        }
    }

    /// `HandoffHistory::cache_rows`
    /// on every profile of every zone: the next encoding copies each
    /// retained handoff's row instead of writing it again.
    pub fn cache_rows(&mut self) {
        self.servers
            .values_mut()
            .for_each(ProfileServer::cache_rows);
    }
}

impl Default for ZonedProfiles {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::CellClass;

    /// Two zones: a west corridor chain (zone 0) and an east one (zone 1),
    /// joined at cells 2–3.
    fn universe() -> ZonedProfiles {
        let mut z = ZonedProfiles::new();
        let mk = |c: u32, ns: &[u32]| {
            CellProfile::with_default_capacity(CellId(c), CellClass::Corridor)
                .with_neighbors(ns.iter().map(|n| CellId(*n)))
        };
        z.register_cell(ZoneId(0), mk(0, &[1]));
        z.register_cell(ZoneId(0), mk(1, &[0, 2]));
        z.register_cell(ZoneId(0), mk(2, &[1, 3]));
        z.register_cell(ZoneId(1), mk(3, &[2, 4]));
        z.register_cell(ZoneId(1), mk(4, &[3]));
        z
    }

    #[test]
    fn routing_to_owning_zone() {
        let z = universe();
        assert_eq!(z.zone_of(CellId(1)), ZoneId(0));
        assert_eq!(z.zone_of(CellId(4)), ZoneId(1));
        assert_eq!(z.zone_count(), 2);
        assert!(z.cell(CellId(2)).is_some());
        assert!(z.cell(CellId(9)).is_none());
    }

    #[test]
    fn profile_follows_the_portable_across_zones() {
        let mut z = universe();
        let p = PortableId(7);
        z.portable_entered(p, CellId(0));
        // Build a habit inside zone 0.
        for _ in 0..3 {
            z.record_handoff(p, None, CellId(0), CellId(1), SimTime::ZERO);
            z.record_handoff(p, Some(CellId(0)), CellId(1), CellId(0), SimTime::ZERO);
        }
        assert!(z.server(ZoneId(0)).unwrap().portable(p).is_some());
        // Walk east across the boundary: 0→1→2→3 (zone crossing at 2→3).
        z.record_handoff(p, None, CellId(0), CellId(1), SimTime::ZERO);
        z.record_handoff(p, Some(CellId(0)), CellId(1), CellId(2), SimTime::ZERO);
        z.record_handoff(p, Some(CellId(1)), CellId(2), CellId(3), SimTime::ZERO);
        assert_eq!(z.transfers, 1);
        // The profile now lives in zone 1, with the history intact.
        assert!(z.server(ZoneId(0)).unwrap().portable(p).is_none());
        let moved = z.server(ZoneId(1)).unwrap().portable(p).expect("adopted");
        assert!(moved.history_len() >= 9);
        // Context survived: the portable is in 3, having come from 2.
        assert_eq!(
            z.contexts.get(&p).copied(),
            Some((Some(CellId(2)), CellId(3)))
        );
    }

    #[test]
    fn prediction_continuity_across_the_boundary() {
        let mut z = universe();
        let p = PortableId(7);
        z.portable_entered(p, CellId(1));
        // Habit: from 2 (having come from 1) the portable always goes
        // to 3 — learned while the profile lived in zone 0.
        for _ in 0..4 {
            z.record_handoff(p, Some(CellId(1)), CellId(2), CellId(3), SimTime::ZERO);
            z.record_handoff(p, Some(CellId(2)), CellId(3), CellId(2), SimTime::ZERO);
        }
        // Level-1 prediction works though the asking cell (2) is in zone
        // 0 and the profile now lives in zone 1... wherever it is.
        let pred = z.predict_at(p, Some(CellId(1)), CellId(2));
        assert_eq!(pred.cell, Some(CellId(3)));
        assert_eq!(pred.level, PredictionLevel::PortableProfile);
    }

    #[test]
    fn aggregate_prediction_stays_zone_local() {
        let mut z = universe();
        // Strangers flow 2 → 3 (zone 0's cell 2 history).
        for i in 0..6 {
            let p = PortableId(100 + i);
            z.portable_entered(p, CellId(2));
            z.record_handoff(p, None, CellId(2), CellId(3), SimTime::ZERO);
        }
        let pred = z.predict_at(PortableId(200), None, CellId(2));
        assert_eq!(pred.cell, Some(CellId(3)));
        assert_eq!(pred.level, PredictionLevel::CellAggregate);
    }

    #[test]
    fn single_zone_universe_behaves_like_plain_server() {
        let mut z = ZonedProfiles::new();
        z.register_cell(
            ZoneId(0),
            CellProfile::with_default_capacity(CellId(0), CellClass::Corridor)
                .with_neighbors([CellId(1)]),
        );
        z.register_cell(
            ZoneId(0),
            CellProfile::with_default_capacity(CellId(1), CellClass::Corridor)
                .with_neighbors([CellId(0)]),
        );
        let p = PortableId(1);
        z.portable_entered(p, CellId(0));
        z.record_handoff(p, None, CellId(0), CellId(1), SimTime::ZERO);
        assert_eq!(z.transfers, 0);
        assert_eq!(z.zone_count(), 1);
        assert_eq!(
            z.contexts.get(&p).copied(),
            Some((Some(CellId(0)), CellId(1)))
        );
    }
}
