//! What a manager runs when it is not the production body ([`Twin`]).
//!
//! The claim refresh as it stood before the resident index, tallies,
//! buffers and plans: every manager-owned claim on every wireless link
//! wiped and re-installed after every event, every helper a scan of the
//! whole connection table or handoff history, collected into fresh
//! `Vec`s — kept verbatim, names prefixed. [`reference_rewrite`] is its
//! share on one link. Beside it, the slot tick's per-portable multicast
//! re-sync; the whole-table adaptation round is one line in
//! `after_event`. And the seeded mutants ([`Mutant`]), each switched on
//! at one site in `manager.rs` or `claim_plan.rs`. Compiled for tests
//! only, so nothing else can call any of it.

use std::collections::{BTreeMap, BTreeSet};

use arm_net::ids::{CellId, ConnId, LinkId, PortableId};
use arm_net::link::ResvClaim;
use arm_net::{Connection, LinkState, Network};
use arm_obs::Phase;
use arm_profiles::prediction::{Prediction, PredictionLevel};
use arm_profiles::CellProfile;
use arm_qos::adaptation::DynPoolPolicy;
use arm_reservation::dispatch::{decide_traced, ReservationDecision};
use arm_sim::{Audited, SimTime};

use super::{PortableState, ResourceManager, PER_USER_KBPS};
use crate::claim_plan::ClaimWrite;
use crate::strategy::Strategy;

/// `Network::connections_of_portable` as a scan of every record.
fn scan_portable(net: &Network, p: PortableId) -> impl Iterator<Item = &Connection> {
    net.live_connections().filter(move |c| c.portable == p)
}

/// `Network::connections_in_cell`, which only the old `B_dyn` pass used.
fn scan_cell(net: &Network, cell: CellId) -> impl Iterator<Item = &Connection> {
    net.live_connections().filter(move |c| c.cell == cell)
}

/// The `B_dyn` install (`adaptation::adjust_dyn_pool`, since deleted)
/// scanning the table once per neighbour cell.
fn scan_adjust_dyn_pool(
    net: &mut Network,
    cell: CellId,
    neighbor_cells: &[CellId],
    static_portables: &dyn Fn(PortableId) -> bool,
    policy: DynPoolPolicy,
) -> f64 {
    let mut max_alloc: f64 = 0.0;
    for nc in neighbor_cells {
        for c in scan_cell(net, *nc) {
            if static_portables(c.portable) {
                max_alloc = max_alloc.max(c.b_current);
            }
        }
    }
    let wl = net.topology().wireless_link(cell);
    let capacity = net.link(wl).capacity();
    let target = policy.target_pool(capacity, max_alloc);
    net.link_mut(wl).set_claim(ResvClaim::DynPool, target)
}

/// `CellProfile::aggregate_row_into` recounting the retained events.
fn scan_aggregate_row(cp: &CellProfile) -> BTreeMap<CellId, f64> {
    let mut counts: BTreeMap<CellId, usize> = BTreeMap::new();
    let mut total = 0usize;
    for ev in cp.history().events() {
        *counts.entry(ev.next).or_insert(0) += 1;
        total += 1;
    }
    counts
        .into_iter()
        .map(|(c, n)| (c, n as f64 / total as f64))
        .collect()
}

/// One link's share of the wholesale refresh, unguarded: release every
/// claim the refresh owns key by key, as [`reference_refresh_claims`]
/// does, then make `writes` in order — what the guarded apply step must
/// agree with whenever it lets a link stand.
///
/// [`reference_refresh_claims`]: ResourceManager::reference_refresh_claims
pub(super) fn reference_rewrite(link: &mut LinkState, writes: &[ClaimWrite]) {
    let keys: Vec<ResvClaim> = link
        .claims()
        .map(|(k, _)| k)
        .filter(|k| *k != ResvClaim::Channel && *k != ResvClaim::Outage)
        .collect();
    for k in keys {
        link.release_claim(k);
    }
    for w in writes {
        match *w {
            ClaimWrite::Set(k, amount) => {
                link.set_claim(k, amount);
            }
            ClaimWrite::Add(k, amount) => {
                let cur = link.claim(k);
                link.set_claim(k, cur + amount);
            }
        }
    }
}

/// Which body a manager runs (`manager_twins.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Twin {
    Production,
    /// Production with one seeded fault.
    Mutant(Mutant),
    /// The scanning refresh and the whole-table adaptation round, every
    /// live connection a candidate.
    WholeTable,
    /// [`Twin::WholeTable`], and the slot tick re-syncs every tracked
    /// portable's branches instead of retiring the settled ones'. Parts
    /// from production on the churn streams (DESIGN §11).
    WholeTableAndResync,
}

impl Twin {
    /// Is this the production body with the seeded fault `m`?
    pub(crate) fn is(self, m: Mutant) -> bool {
        self == Twin::Mutant(m)
    }

    /// Do the claim refresh and the adaptation round run whole-table?
    pub(super) fn whole_table(self) -> bool {
        matches!(self, Twin::WholeTable | Twin::WholeTableAndResync)
    }
}

/// A seeded fault of an incremental path, each switched on at one site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mutant {
    /// The apply step's guard ignores the ledger revision.
    GuardIgnoresRevision,
    /// The guard skips a link whose last run was not a no-op.
    GuardWithoutNoOp,
    /// `Tracked::dispatch_holds` blind to a static↔mobile flip.
    DispatchBlindToMobile,
    /// A kept `ReservationDispatch` not emitted while obs records.
    KeptDispatchUnemitted,
    /// An arrival does not log its cell in the `pend` log.
    ArrivalNotPending,
    /// A dispatch memo held across a stamp move whatever level answered.
    MemoIgnoresStamp,
    /// A recorded handoff logs no cell in the `handoffs` log, so no
    /// epoch moves.
    HandoffBumpsNoRevision,
    /// The handoff logs the destination cell, not the source.
    DestinationRevisionBumped,
    /// A memo carried across the portable's own move.
    MemoCarriedAcrossMove,
    /// The slot tick retires branches one slot early.
    RetireOneSlotEarly,
    /// The round drops what it read from the statics' flip log.
    FlipNotFed,
    /// The round ignores its reads' `all` bits: after a build, a restore
    /// or a statics rebuild it walks only what was logged.
    FeedForgetsNewNetwork,
    /// The round drops what it read from the network's log of ended
    /// connections.
    EndedNotFed,
    /// The statics keeper honours a queued flip of a portable tracked
    /// again since.
    StaleFlipHonoured,
    /// `track` leaves a static portable in the static set.
    TrackKeepsStatic,
    /// A portable's flip does not log its cell in the `pend` log.
    FlipNotPending,
    /// A ledger write reaches no log: the refresh drops what it read
    /// from the network's log of written wireless links.
    WriteUnlogged,
    /// A static allocation's change logs its own cell in the re-pool
    /// log, not the cells it neighbours.
    NeighborPoolsNotDue,
    /// The round, the second reader of the network's `changed` log,
    /// misses one portable logged between two of its reads.
    RoundCursorSkips,
}

impl ResourceManager {
    /// Run `twin`'s body from the next event on.
    pub(super) fn set_twin(&mut self, twin: Twin) {
        self.twin = twin;
    }

    /// The slot tick's multicast pass as it stood before it only
    /// retired: every tracked portable's branches re-synced — a mobile
    /// portable's torn down and admitted again toward its cell's
    /// neighbours, a static one's torn down — in ascending portable
    /// order, the set collected into a fresh `Vec`.
    pub(super) fn reference_resync_multicast(&mut self, now: SimTime) {
        let tracked: Vec<PortableId> = self.portables.keys().copied().collect();
        for p in tracked {
            self.sync_multicast_for(p, now);
        }
    }

    /// The three-level prediction with level 2b recounting the cell's
    /// history. Levels 1 and 2a never touched the history, so they are
    /// taken from the production path; whenever that path went as far
    /// as the history (level 2b or the default), the answer is recounted
    /// here with the scanning `majority_next`.
    fn reference_predict_at(&self, p: PortableId, prev: Option<CellId>, cur: CellId) -> Prediction {
        let got = self.profiles.predict_at(p, prev, cur);
        match got.level {
            PredictionLevel::PortableProfile | PredictionLevel::OccupantOffice => got,
            PredictionLevel::CellAggregate | PredictionLevel::Default => {
                let next = self.profiles.cell(cur).and_then(|cp| {
                    cp.history()
                        .majority_next(|e| e.prev == prev)
                        .or_else(|| cp.history().majority_next(|_| true))
                        .map(|(c, _, _)| c)
                });
                Prediction {
                    cell: next,
                    level: if next.is_some() {
                        PredictionLevel::CellAggregate
                    } else {
                        PredictionLevel::Default
                    },
                }
            }
        }
    }

    fn reference_static_portables(&self, now: SimTime) -> BTreeSet<PortableId> {
        self.portables
            .iter()
            .filter(|(_, t)| t.state.is_static(self.cfg.t_th, now))
            .map(|(p, _)| *p)
            .collect()
    }

    fn reference_seal_failed_link(&mut self, link: LinkId) {
        let cap = self.net.link(link).capacity();
        self.net.link_mut(link).set_claim(ResvClaim::Outage, cap);
    }

    /// Recompute every advance claim from current state.
    pub(super) fn reference_refresh_claims(&mut self, now: SimTime) {
        let refresh_tok = self.obs.phase_start(now);
        // Wipe all wireless-link claims the manager owns. The Channel
        // claim is the channel monitor's and the Outage claim the fault
        // path's — both model capacity committed elsewhere and survive
        // every refresh.
        let cells: Vec<CellId> = self.env.cells().map(|(id, _)| id).collect();
        for c in &cells {
            let wl = self.net.topology().wireless_link(*c);
            let keys: Vec<ResvClaim> = self
                .net
                .link(wl)
                .claims()
                .map(|(k, _)| k)
                .filter(|k| *k != ResvClaim::Channel && *k != ResvClaim::Outage)
                .collect();
            for k in keys {
                self.net.link_mut(wl).release_claim(k);
            }
        }
        // Re-tighten the outage seals before installing any advance
        // claims: terminations during an outage must not open phantom
        // headroom on a dead link, and a sealed link grants 0 to every
        // claim set after it.
        let down: Vec<LinkId> = self.down_links.iter().copied().collect();
        for l in down {
            self.reference_seal_failed_link(l);
        }
        match self.cfg.strategy {
            Strategy::None => {}
            Strategy::Paper => self.reference_refresh_paper(now),
            Strategy::BruteForce => self.reference_refresh_brute_force(),
            Strategy::Aggregate => self.reference_refresh_aggregate(),
            Strategy::StaticFraction(f) => {
                for c in &cells {
                    let wl = self.net.topology().wireless_link(*c);
                    let amount = self.net.link(wl).capacity() * f;
                    self.net.link_mut(wl).set_claim(ResvClaim::Cell(*c), amount);
                }
            }
        }
        self.obs.phase_end(Phase::ClaimRefresh, refresh_tok, now);
    }

    /// The paper's strategy: per-portable claims via the §6.4 dispatcher,
    /// lounge aggregate claims via the class policies, plus `B_dyn`.
    fn reference_refresh_paper(&mut self, now: SimTime) {
        // Per-portable claims (mobile portables only).
        let portables: Vec<(PortableId, PortableState)> =
            self.portables.iter().map(|(p, t)| (*p, t.state)).collect();
        for (p, state) in &portables {
            if state.is_static(self.cfg.t_th, now) {
                continue; // B_dyn covers sudden movement of statics
            }
            let floors = self.reference_floors_of(*p);
            if floors.is_empty() {
                continue;
            }
            if self.zone_down(state.cell) {
                // Stale-profile fallback: the zone's profile server is
                // out, so neither occupancy nor a movement prediction
                // can be read. Reserve the portable's floors
                // probabilistically — spread evenly over all neighbours,
                // the default algorithm's no-history behaviour — rather
                // than not at all.
                self.stale_profile_fallbacks += 1;
                let total: f64 = floors.iter().map(|(_, b)| b).sum();
                self.reference_spread_evenly(state.cell, total);
                continue;
            }
            let class = self.env.cell(state.cell).class;
            let is_occupant = self
                .profiles
                .cell(state.cell)
                .is_some_and(|cp| cp.is_occupant(*p));
            let prediction = self.reference_predict_at(*p, state.prev_cell, state.cell);
            match decide_traced(class, is_occupant, prediction, now, *p, &mut self.obs) {
                ReservationDecision::PerConnection(target) => {
                    if target != state.cell {
                        let wl = self.net.topology().wireless_link(target);
                        for (id, b) in &floors {
                            self.net.link_mut(wl).set_claim(ResvClaim::Conn(*id), *b);
                        }
                    }
                }
                ReservationDecision::NoReservation
                | ReservationDecision::ClassPolicy
                | ReservationDecision::DefaultAlgorithm => {}
            }
        }
        // Lounge class policies.
        self.reference_refresh_lounge_claims(now);
        // B_dyn pools.
        if let Some(policy) = self.cfg.dyn_pool {
            let statics = self.reference_static_portables(now);
            let cells: Vec<CellId> = self.env.cells().map(|(id, _)| id).collect();
            for c in cells {
                let neighbors: Vec<CellId> = self.env.neighbors(c).collect();
                let is_static = |p: PortableId| statics.contains(&p);
                scan_adjust_dyn_pool(&mut self.net, c, &neighbors, &is_static, policy);
            }
        }
    }

    /// Aggregate claims from the lounge policies (meeting calendar,
    /// cafeteria least-squares, default one-step).
    fn reference_refresh_lounge_claims(&mut self, now: SimTime) {
        // Meeting rooms.
        let meeting_cells: Vec<CellId> = self.meeting_policies.keys().copied().collect();
        for m in meeting_cells {
            let (room, neighbor) = {
                let policy = self.meeting_policies.get_mut(&m).invariant("registered");
                (policy.room_demand(now), policy.neighbor_demand(now))
            };
            if room > 0.0 {
                let wl = self.net.topology().wireless_link(m);
                self.net.link_mut(wl).set_claim(ResvClaim::Cell(m), room);
            }
            if neighbor > 0.0 {
                self.reference_spread_to_neighbors(m, neighbor);
            }
        }
        // Cafeterias and default lounges: predicted outbound handoffs.
        let caf = self.cafeteria_pred.iter().map(|(c, p)| (*c, p.predict()));
        let def = self.default_pred.iter().map(|(c, p)| (*c, p.predict()));
        let predictions: Vec<(CellId, f64)> = caf.chain(def).collect();
        for (c, predicted) in predictions {
            let demand = predicted * PER_USER_KBPS;
            if demand > 0.0 {
                self.reference_spread_to_neighbors(c, demand);
            }
        }
    }

    /// Split an aggregate demand from `source` over its neighbours by the
    /// profile transition row (even split without history), installing
    /// `Cell(source)` claims.
    fn reference_spread_to_neighbors(&mut self, source: CellId, demand: f64) {
        let neighbors: Vec<CellId> = self.env.neighbors(source).collect();
        if neighbors.is_empty() {
            return;
        }
        // A profile-server outage hides the transition row; the empty
        // row below degrades to the even split.
        let row = if self.zone_down(source) {
            Default::default()
        } else {
            self.profiles
                .cell(source)
                .map(scan_aggregate_row)
                .unwrap_or_default()
        };
        let known: f64 = neighbors.iter().filter_map(|n| row.get(n)).sum();
        for n in &neighbors {
            let share = if known > 0.0 {
                row.get(n).copied().unwrap_or(0.0) / known
            } else {
                1.0 / neighbors.len() as f64
            };
            let amount = demand * share;
            if amount > 0.0 {
                self.reference_add_cell_claim(source, *n, amount);
            }
        }
    }

    /// Grow the `Cell(source)` claim on neighbour `n`'s wireless link.
    fn reference_add_cell_claim(&mut self, source: CellId, n: CellId, amount: f64) {
        let wl = self.net.topology().wireless_link(n);
        let cur = self.net.link(wl).claim(ResvClaim::Cell(source));
        self.net
            .link_mut(wl)
            .set_claim(ResvClaim::Cell(source), cur + amount);
    }

    /// Even-split spread used when profile data is unavailable (zone
    /// profile-server outage): no transition row can be read, so the
    /// demand is divided uniformly over the neighbours.
    fn reference_spread_evenly(&mut self, source: CellId, demand: f64) {
        let neighbors: Vec<CellId> = self.env.neighbors(source).collect();
        if neighbors.is_empty() || demand <= 0.0 {
            return;
        }
        let share = demand / neighbors.len() as f64;
        for n in neighbors {
            self.reference_add_cell_claim(source, n, share);
        }
    }

    fn reference_refresh_brute_force(&mut self) {
        let demands = self.reference_mobile_demands();
        for (p, cell) in demands {
            let floors = self.reference_floors_of(p);
            let neighbors: Vec<CellId> = self.env.neighbors(cell).collect();
            for n in neighbors {
                let wl = self.net.topology().wireless_link(n);
                for (id, b) in &floors {
                    self.net.link_mut(wl).set_claim(ResvClaim::Conn(*id), *b);
                }
            }
        }
    }

    fn reference_refresh_aggregate(&mut self) {
        let demands = self.reference_mobile_demands();
        for (p, cell) in demands {
            let total: f64 = scan_portable(&self.net, p).map(|c| c.qos.b_min).sum();
            if total > 0.0 {
                self.reference_spread_to_neighbors(cell, total);
            }
        }
    }

    /// The `(connection, b_min)` floors of a portable's live connections.
    fn reference_floors_of(&self, p: PortableId) -> Vec<(ConnId, f64)> {
        scan_portable(&self.net, p)
            .map(|c| (c.id, c.qos.b_min))
            .collect()
    }

    /// Every portable with live connections and its cell (the baselines
    /// reserve for all of them, making no static/mobile distinction —
    /// which is exactly their weakness). Ordered by when each portable
    /// entered its current cell: reservations are first-come-first-served,
    /// so when a link's claim headroom runs out, the latest movers lose —
    /// exactly the race that drops late classroom arrivals under the
    /// brute-force scheme.
    fn reference_mobile_demands(&self) -> Vec<(PortableId, CellId)> {
        let mut v: Vec<(SimTime, PortableId, CellId)> = self
            .portables
            .iter()
            .filter(|(p, _)| scan_portable(&self.net, **p).next().is_some())
            .map(|(p, t)| (t.state.entered_at, *p, t.state.cell))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        v.into_iter().map(|(_, p, c)| (p, c)).collect()
    }
}
