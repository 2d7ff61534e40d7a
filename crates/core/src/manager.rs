//! The integrated resource manager (the paper's Figure 1).
//!
//! One [`ResourceManager`] owns the network, the zone's profile server,
//! the per-cell class policies, and the metrics, and exposes the four
//! control-plane entry points the simulation drivers call:
//!
//! * [`request_connection`](ResourceManager::request_connection) — §5.1
//!   admission (with conflict resolution squeezing ongoing connections
//!   within their bounds),
//! * [`portable_moved`](ResourceManager::portable_moved) — handoff
//!   processing: profile updates, per-connection handoff admission that
//!   may consume advance claims (its own predicted claim, the destination
//!   cell's aggregate claim, the source cell's departure claim, or the
//!   `B_dyn` pool — in that order), drop accounting, and reservation
//!   refresh,
//! * [`terminate`](ResourceManager::terminate) — normal teardown,
//! * [`slot_tick`](ResourceManager::slot_tick) — aggregate-policy
//!   bookkeeping: feed the cafeteria/default predictors, retire the
//!   multicast branches of portables that settled, refresh claims.
//!
//! Claims are recomputed after every event from the current state, as
//! if every manager-owned claim were wiped and re-installed in a fixed
//! order, so a link's ledger is a function of the state and not of the
//! path that led to it. Each refresh builds every wireless link's
//! *plan* — the writes that wholesale wipe-and-reinstall would make on
//! it — and hands them to one guarded apply step (`claim_plan`), which
//! re-writes only the links whose plan or ledger changed since a run
//! that changed nothing. In steady state a refresh allocates nothing.
//! It reads five resident structures, the first three kept where their
//! source lives:
//!
//! * `Network`'s per-portable connection index (derived from the
//!   connection table in `install`/`finish`/`mark_blocked`) — a
//!   portable's floors without a scan of every record — and its record
//!   of the portables whose connections changed since the last refresh;
//! * each cell profile's `CountedHistory` tallies (derived from its
//!   handoff FIFO in `record`) — level-2b predictions and transition
//!   rows without a recount of `N_pC` events;
//! * every cell's uplink route and wired legs toward each neighbour
//!   (`arm_net::routing::{uplink_routes, neighbor_legs}`, pure functions
//!   of the static topology) — a handoff's new route and its multicast
//!   branches without a Dijkstra run;
//! * beside each tracked portable, what the §6.4 dispatcher last read
//!   for it ([`DispatchMemo`]) and what it decided ([`Dispatched`]) —
//!   kept until an input of the dispatch changes — and per cell, its
//!   tracked portables and what says when they must be looked at again
//!   ([`CellWatch`]);
//! * every wireless link's plan, its per-portable part kept between
//!   refreshes, and what the link last ran with the ledger revision that
//!   run left (`claim_plan::Plans`).
//!
//! None of it is snapshotted: a restored manager re-dispatches every
//! portable and re-runs every link at its first refresh. What else the
//! manager keeps between events ([`RefreshScratch`]) is buffers only:
//! every one is cleared before it is filled.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use arm_mobility::environment::IndoorEnvironment;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, LinkId, NodeId, PortableId, ZoneId};
use arm_net::link::ResvClaim;
use arm_net::routing::{neighbor_legs, shortest_path_avoiding, uplink_routes, NeighborLegs};
use arm_net::{Connection, Network, Route};
use arm_obs::{ClaimSource, Obs, ObsEvent, Phase};
use arm_profiles::prediction::Prediction;
use arm_profiles::{CellClass, LoungeKind, ZonedProfiles};
use arm_qos::adaptation::{DynPoolPolicy, StaticMobileTest};
use arm_qos::admission::{
    admit_with, AdmissionRequest, AdmissionScratch, Discipline, MobilityClass, RequestKind,
};
use arm_reservation::cafeteria::CafeteriaPredictor;
use arm_reservation::default_cell::OneStepMemory;
use arm_reservation::dispatch::{decide_traced, ReservationDecision};
use arm_reservation::meeting::{BookingCalendar, MeetingRoomPolicy};
use arm_sim::{Audited, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::claim_plan::{ClaimWrite, Plans, RefreshStats};
use crate::error::ControlError;
use crate::metrics::Metrics;
use crate::multicast::MulticastState;
use crate::snapshot::{ManagerSnapshot, SnapshotError};
use crate::strategy::Strategy;

/// The slot width: the period of [`ResourceManager::slot_tick`], which
/// the aggregate (lounge) predictors count outflow over. Every driver —
/// the experiment drivers' loops, `arm-server` — ticks at this one
/// width, so it is a constant, not a setting two configs must agree on.
pub const SLOT: SimDuration = SimDuration::from_mins(1);

/// The furthest an event may lie past the last one a server accepted:
/// a year of slots. A server ticks at every [`SLOT`] boundary it
/// crosses, so the cost of a step is linear in its length, and a step to
/// `u64::MAX` ticks would never end; a server refuses a line further
/// ahead than this instead. A year is far longer than any gap in a
/// shipped stream (the office week's overnight gaps are hours), so it
/// is a constant, not a setting.
pub const MAX_EVENT_GAP: SimDuration = SimDuration::from_mins(365 * 24 * 60);

/// Expected bandwidth per not-yet-seen user (kbps), used to size
/// aggregate claims (meeting room, cafeteria, default): the §7.1
/// workload mean, 0.75·16 + 0.25·64.
const PER_USER_KBPS: f64 = 28.0;

/// Manager configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ManagerConfig {
    /// Reservation strategy under test.
    pub strategy: Strategy,
    /// Static/mobile dwell threshold `T_th`.
    pub t_th: SimDuration,
    /// `B_dyn` pool policy; `None` disables the pool.
    pub dyn_pool: Option<DynPoolPolicy>,
    /// Run maxmin conflict resolution after each event (needed only when
    /// connections have adaptable ranges; fixed-rate experiments skip it
    /// for speed).
    pub resolve_excess: bool,
    /// Pre-establish §4's wired multicast branches toward a mobile's
    /// neighbouring cells (failures non-fatal).
    pub multicast: bool,
    /// The eqn-2 threshold δ: an excess-bandwidth *gain* smaller than
    /// this does not trigger an adaptation round (shrinkage always
    /// does). Controls the frequency/benefit trade-off of adaptation.
    pub delta: f64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            strategy: Strategy::Paper,
            t_th: SimDuration::from_mins(5),
            dyn_pool: Some(DynPoolPolicy::default()),
            resolve_excess: false,
            multicast: true,
            delta: 0.0,
        }
    }
}

/// Tracked per-portable state.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(crate) struct PortableState {
    cell: CellId,
    prev_cell: Option<CellId>,
    entered_at: SimTime,
}

impl PortableState {
    /// Has the portable dwelled in its current cell for at least `t_th`?
    fn is_static(&self, t_th: SimDuration, now: SimTime) -> bool {
        StaticMobileTest::new(t_th).is_static(self.entered_at, now)
    }
}

/// What the §6.4 dispatcher read for a portable the last time its
/// claims were refreshed: `ZonedProfiles::dispatch_inputs` for the
/// portable's `(prev_cell, cell)`. That is a pure function of the
/// portable's own profile, of `cell`'s handoff history and of data fixed
/// at construction, so it is kept until one of the two changes:
///
/// * the portable's own profile changes only inside `portable_appears`
///   and `portable_moved`, both of which replace its [`Tracked`] entry —
///   and with it this memo;
/// * `cell`'s history changes only where `portable_moved` records a
///   handoff out of `cell`, which bumps `cell_revs[cell]` away from the
///   stamp below.
///
/// A prediction answered at level 1 or 2a never read the history
/// (`PredictionLevel::reads_cell_history`), so it outlives a stamp move;
/// one answered at level 2b or 3 then re-reads level 2b alone
/// (`ZonedProfiles::aggregate_prediction`): levels 1 and 2a, which said
/// nothing, read nothing that moved.
///
/// Derived state, never snapshotted: a restored manager starts without
/// memos and recomputes the same function from the restored profiles.
#[derive(Clone, Copy, Debug)]
struct DispatchMemo {
    /// `cell_revs[cell]` when the inputs were read.
    cell_rev: u64,
    is_occupant: bool,
    prediction: Prediction,
}

impl DispatchMemo {
    /// Does the memo still hold while `cell`'s revision is `cell_rev`?
    fn holds_at(&self, cell_rev: u64) -> bool {
        self.cell_rev == cell_rev || !self.prediction.level.reads_cell_history()
    }
}

/// What a portable's last dispatch in the claim refresh came to, kept
/// while no input of that dispatch changes (see
/// `ResourceManager::plan_paper`). A stale-profile fallback is never
/// kept: it runs again at every refresh, as it is counted at every one.
#[derive(Clone, Copy, Debug)]
enum Dispatched {
    /// Static: no per-portable claims (`B_dyn` covers it).
    Static,
    /// Mobile without live connections: nothing to reserve.
    NoFloors,
    /// Mobile with floors: what the §6.4 dispatcher decided, re-emitted
    /// as a `ReservationDispatch` at every refresh.
    Decided(ReservationDecision),
}

/// A tracked portable: its snapshotted state and what is derived from
/// it. Built only by [`Tracked::new`], so replacing the state drops the
/// memo and the cached dispatch.
#[derive(Debug)]
struct Tracked {
    state: PortableState,
    memo: Option<DispatchMemo>,
    dispatched: Option<Dispatched>,
}

impl Tracked {
    fn new(state: PortableState) -> Self {
        Tracked {
            state,
            memo: None,
            dispatched: None,
        }
    }

    /// Would dispatching the portable again decide what it last did?
    /// True while none of the inputs of that dispatch has changed: it
    /// is as static or mobile as it was, its connections are not among
    /// those the network recorded as changed, its zone's profile server
    /// is up, and its memo holds at its cell's revision `cell_rev`.
    fn dispatch_holds(
        &self,
        mobile: bool,
        floors_changed: bool,
        zone_down: bool,
        cell_rev: u64,
    ) -> bool {
        match self.dispatched {
            Some(Dispatched::Static) => !mobile,
            Some(Dispatched::NoFloors) => mobile && !floors_changed,
            Some(Dispatched::Decided(_)) => {
                mobile
                    && !floors_changed
                    && !zone_down
                    && self.memo.is_some_and(|m| m.holds_at(cell_rev))
            }
            None => false,
        }
    }
}

/// One cell's tracked portables, and what says when the dispatch pass
/// must look at them again. A portable whose cell is not looked at
/// cannot need a dispatch: nothing arrived (a replaced `Tracked` entry
/// always arrives somewhere), the cell's revision did not move, no
/// member that was mobile has reached `T_th` yet, and the zone's profile
/// server is up and was up. Derived from `portables` by
/// `ResourceManager::track`, never snapshotted.
#[derive(Debug)]
struct CellWatch {
    /// Tracked portables in the cell, ascending.
    members: Vec<PortableId>,
    /// Look at the cell at the next pass whatever else holds: a member
    /// arrived, or the zone's profile server was out at the last look.
    pending: bool,
    /// `cell_revs[cell]` at the last look.
    seen_rev: u64,
    /// The earliest instant at which a member that was mobile at its
    /// last look turns static.
    next_flip: SimTime,
    /// The current pass looks at the cell.
    due: bool,
}

impl CellWatch {
    fn new() -> Self {
        CellWatch {
            members: Vec::new(),
            pending: true,
            seen_rev: 0,
            next_flip: SimTime::MAX,
            due: false,
        }
    }
}

/// What looking at one portable reads and writes, borrowed field by
/// field from the manager so that the dispatch pass can hold
/// `portables` at the same time (`ResourceManager::plan_paper`).
struct DispatchPass<'a> {
    now: SimTime,
    t_th: SimDuration,
    env: &'a IndoorEnvironment,
    profiles: &'a ZonedProfiles,
    net: &'a Network,
    down_zones: &'a BTreeSet<ZoneId>,
    cell_revs: &'a [u64],
    /// Portables whose connections changed, ascending.
    changed: &'a [PortableId],
    obs: &'a mut Obs,
    plans: &'a mut Plans,
    watch: &'a mut [CellWatch],
    statics: &'a mut Vec<PortableId>,
    floors: &'a mut Vec<(ConnId, f64)>,
    fresh: &'a mut Vec<(CellId, ClaimWrite)>,
    stats: &'a mut RefreshStats,
    fallbacks: &'a mut u64,
    /// Every portable's connections count as changed
    /// (`Network::drain_changed_portables`).
    all_changed: bool,
    #[cfg(test)]
    twin: Twin,
}

impl DispatchPass<'_> {
    /// Look at `p`: keep `statics` and its cell's next flip current, and
    /// dispatch it again unless its kept dispatch holds.
    fn look(&mut self, p: PortableId, t: &mut Tracked) {
        let cell = t.state.cell;
        let floors_changed = self.all_changed || self.changed.binary_search(&p).is_ok();
        let mobile = !t.state.is_static(self.t_th, self.now);
        match (self.statics.binary_search(&p), mobile) {
            (Err(at), false) => self.statics.insert(at, p),
            (Ok(at), true) => {
                self.statics.remove(at);
            }
            _ => {}
        }
        if mobile {
            let w = &mut self.watch[cell.index()];
            w.next_flip = w.next_flip.min(t.state.entered_at + self.t_th);
        }
        let zone_down = ResourceManager::zone_is_down(self.down_zones, self.profiles, cell);
        let cell_rev = self.cell_revs[cell.index()];
        #[cfg(test)]
        let cell_rev = match t.memo {
            Some(m) if self.twin.is(Mutant::MemoIgnoresStamp) => m.cell_rev,
            _ => cell_rev,
        };
        let holds = t.dispatch_holds(mobile, floors_changed, zone_down, cell_rev);
        #[cfg(test)]
        let holds = holds
            || self.twin.is(Mutant::DispatchBlindToMobile)
                && t.dispatch_holds(!mobile, floors_changed, zone_down, cell_rev);
        if holds {
            if let Some(Dispatched::Decided(decision)) = t.dispatched {
                self.emit_kept(p, decision);
            }
            return;
        }
        self.stats.redispatched += 1;
        let Tracked {
            state,
            memo,
            dispatched,
        } = t;
        self.fresh.clear();
        *dispatched = if !mobile {
            Some(Dispatched::Static) // B_dyn covers sudden movement of statics
        } else {
            self.floors.clear();
            self.floors.extend(
                self.net
                    .connections_of_portable(p)
                    .map(|c| (c.id, c.qos.b_min)),
            );
            if self.floors.is_empty() {
                Some(Dispatched::NoFloors)
            } else if zone_down {
                // Stale-profile fallback: the zone's profile server is
                // out, so neither occupancy nor a movement prediction can
                // be read. Reserve the portable's floors probabilistically
                // — spread evenly over all neighbours, the default
                // algorithm's no-history behaviour — rather than not at
                // all.
                *self.fallbacks += 1;
                let total: f64 = self.floors.iter().map(|(_, b)| b).sum();
                ResourceManager::spread_evenly(self.env, cell, total, self.fresh);
                None
            } else {
                let class = self.env.cell(cell).class;
                // The dispatcher's inputs: kept while nothing they were
                // read from has changed (see `DispatchMemo`); level 2b
                // alone read again when only the cell's history moved
                // under an answer from it; all read afresh — one
                // resolution of zone, server and profiles — otherwise.
                let kept = match *memo {
                    Some(kept) if kept.holds_at(cell_rev) => kept,
                    Some(kept) => *memo.insert(DispatchMemo {
                        cell_rev,
                        is_occupant: kept.is_occupant,
                        prediction: self.profiles.aggregate_prediction(state.prev_cell, cell),
                    }),
                    None => {
                        let (is_occupant, prediction) =
                            self.profiles.dispatch_inputs(p, state.prev_cell, cell);
                        *memo.insert(DispatchMemo {
                            cell_rev,
                            is_occupant,
                            prediction,
                        })
                    }
                };
                let decision = decide_traced(
                    class,
                    kept.is_occupant,
                    kept.prediction,
                    self.now,
                    p,
                    self.obs,
                );
                if let ReservationDecision::PerConnection(target) = decision {
                    if target != cell {
                        let conn = |&(id, b): &(ConnId, f64)| {
                            (target, ClaimWrite::Set(ResvClaim::Conn(id), b))
                        };
                        self.fresh.extend(self.floors.iter().map(conn));
                    }
                }
                Some(Dispatched::Decided(decision))
            }
        };
        self.plans.set_portable_writes(p, self.fresh);
    }

    /// Emit a kept decision as the dispatch would have.
    fn emit_kept(&mut self, p: PortableId, decision: ReservationDecision) {
        #[cfg(test)]
        if self.twin.is(Mutant::KeptDispatchUnemitted) {
            return;
        }
        let now = self.now;
        self.obs.emit_with(|| ObsEvent::ReservationDispatch {
            t: now,
            portable: p,
            decision: decision.label().to_string(),
        });
    }
}

/// Resident buffers for the claim refresh and the handoff path, so a
/// steady-state event reuses their capacity instead of allocating.
/// Every buffer is cleared before it is filled; none carries a decision
/// from one event to the next, so none is snapshotted.
#[derive(Debug, Default)]
struct RefreshScratch {
    /// `(connection, b_min)` of the portable being processed.
    floors: Vec<(ConnId, f64)>,
    /// Per-portable writes of the portable being re-dispatched, by the
    /// cell whose wireless link they go to.
    fresh: Vec<(CellId, ClaimWrite)>,
    /// Portables whose connections changed since the last refresh
    /// (`Network::drain_changed_portables`), ascending.
    changed: Vec<PortableId>,
    /// Largest static allocation homed in each cell (index = cell).
    static_max: Vec<f64>,
    /// `(cell, room demand, neighbour demand)` per meeting room, then
    /// `(cell, outbound demand, 0)` per cafeteria and default lounge.
    lounges: Vec<(CellId, f64, f64)>,
    /// The transition row of the cell whose aggregate demand is being
    /// spread (`CellProfile::aggregate_row_into`), ascending by cell.
    row: Vec<(CellId, f64)>,
    /// Connections of the portable being handed off.
    moving: Vec<ConnId>,
    /// `(portable, connection)` of every branched connection whose
    /// portable settled, for the slot tick's retirement, ascending.
    settled: Vec<(PortableId, ConnId)>,
}

/// What the next adaptation round must look at (DESIGN §7): the
/// portables with a connection-record write since the last round, as
/// each refresh drains them from `Network`, plus — added at the round —
/// those whose static/mobile status flipped. Every other connection is
/// where the last round left it. Fed only while rounds can run, so it
/// cannot grow without bound. A cache: never snapshotted; a restored
/// manager's network is decoded, and so counts every portable as
/// written.
#[derive(Debug, Default)]
struct RoundFeed {
    /// Portables written since the last round, ascending.
    touched: Vec<PortableId>,
    /// The network was built, decoded or cloned since the last round:
    /// every portable counts as written. Sticky until the round.
    all: bool,
    /// The statics the last round saw, ascending.
    statics: Vec<PortableId>,
    /// The round's candidate connections, ascending.
    conns: Vec<ConnId>,
}

impl RoundFeed {
    /// Fold one refresh's drain of the network's write log in.
    fn note(&mut self, changed: &[PortableId], all: bool) {
        self.all |= all;
        if !self.all && !changed.is_empty() {
            self.touched.extend_from_slice(changed);
            self.touched.sort_unstable();
            self.touched.dedup();
        }
    }

    /// Fill `conns` with the round's candidates, ascending: the
    /// connections of every portable written since the last round or in
    /// exactly one of `statics` and the last round's statics — of every
    /// portable in the network's per-portable index when the network is
    /// new to the feed. Resets the feed for the next round.
    fn fill(&mut self, net: &Network, statics: &[PortableId]) {
        if std::mem::take(&mut self.all) {
            self.touched.clear();
            self.touched.extend(net.portables_with_connections());
        } else {
            // The symmetric difference, by a merge of the sorted lists.
            let (now, then) = (statics, &self.statics);
            let (mut i, mut j) = (0, 0);
            while i < now.len() && j < then.len() {
                match now[i].cmp(&then[j]) {
                    Ordering::Less => {
                        self.touched.push(now[i]);
                        i += 1;
                    }
                    Ordering::Greater => {
                        self.touched.push(then[j]);
                        j += 1;
                    }
                    Ordering::Equal => (i, j) = (i + 1, j + 1),
                }
            }
            self.touched.extend_from_slice(&now[i..]);
            self.touched.extend_from_slice(&then[j..]);
            self.touched.sort_unstable();
            self.touched.dedup();
        }
        self.statics.clear();
        self.statics.extend_from_slice(statics);
        self.conns.clear();
        for p in self.touched.drain(..) {
            self.conns.extend_from_slice(net.conn_ids_of_portable(p));
        }
        self.conns.sort_unstable();
    }
}

/// The integrated control plane.
pub struct ResourceManager {
    /// The data plane (public for inspection by drivers and tests).
    pub net: Network,
    env: IndoorEnvironment,
    /// The universe of zones and their profile servers. Private, and
    /// mutated only in `portable_appears` and `portable_moved`: the
    /// dispatch memos are sound because nothing else can change a
    /// profile. ([`cache_history_rows`](Self::cache_history_rows) encodes
    /// rows ahead of a checkpoint and changes no answer a profile gives.)
    /// Read through [`profiles`](Self::profiles).
    profiles: ZonedProfiles,
    cfg: ManagerConfig,
    /// Run metrics.
    pub metrics: Metrics,
    portables: BTreeMap<PortableId, Tracked>,
    /// Handoffs recorded out of each cell (index = cell) since this
    /// process built the manager — the stamp of [`DispatchMemo`]. Not
    /// snapshotted: memos are not either, so a restored manager counts
    /// from zero again.
    cell_revs: Vec<u64>,
    meeting_policies: BTreeMap<CellId, MeetingRoomPolicy>,
    cafeteria_pred: BTreeMap<CellId, CafeteriaPredictor>,
    default_pred: BTreeMap<CellId, OneStepMemory>,
    /// Handoffs out of each cell in the current slot.
    slot_outflow: BTreeMap<CellId, u32>,
    /// §4 multicast branches per connection (public for inspection).
    pub multicast: MulticastState,
    /// Per-wireless-link excess observed at the last adaptation round
    /// (`b'_av,l(t⁻)` of eqn 2).
    last_excess: BTreeMap<LinkId, f64>,
    /// Adaptation rounds actually run (eqn-2 triggered).
    pub adaptation_rounds: u64,
    /// Resident maxmin engine (public so drivers and tests can inspect
    /// its work-saved counters). A cache over `net`, never snapshotted:
    /// every round diff-syncs it first, so a restored manager's empty
    /// engine ends its first round holding the bits a warm one would.
    pub maxmin: arm_qos::maxmin::incremental::IncrementalMaxmin,
    /// Resident buffers for the adaptation round's conflict resolver.
    /// Pure scratch (cleared before each use), never snapshotted.
    resolve_scratch: arm_qos::conflict::ResolveScratch,
    /// What the next adaptation round must look at. Derived, never
    /// snapshotted.
    round_feed: RoundFeed,
    /// Resident buffers for the admission round trip. Pure scratch,
    /// never snapshotted.
    admission_scratch: AdmissionScratch,
    /// Resident copy of a route's links for release-then-readmit
    /// sequences (renegotiation, handoff) — replaces a per-event
    /// `Route` clone. Pure scratch, never snapshotted.
    route_scratch: Vec<LinkId>,
    /// Resident buffers for the claim refresh. Pure scratch, never
    /// snapshotted.
    scratch: RefreshScratch,
    /// Every wireless link's plan and last run. Derived, never
    /// snapshotted.
    plans: Plans,
    /// Portables static at the last refresh's `now`, ascending: what the
    /// `B_dyn` pass and the adaptation round that follows in the same
    /// `after_event` read. The paper strategy's dispatch pass keeps it as
    /// it looks at portables; the others collect it at every refresh.
    /// Derived, never snapshotted.
    statics: Vec<PortableId>,
    /// Per cell (index = cell): its tracked portables and when the
    /// dispatch pass must look at them again. Derived, never snapshotted.
    watch: Vec<CellWatch>,
    /// The `now` of the last dispatch pass: a pass at an earlier instant
    /// looks at every cell, as portables may have turned mobile again.
    last_pass: Option<SimTime>,
    /// Work counters of the claim refresh, read through
    /// [`refresh_stats`](Self::refresh_stats).
    refresh_stats: RefreshStats,
    /// Which body the twin tests run: production, a seeded mutant of
    /// it, or a whole-table reference (`manager_reference.rs`).
    #[cfg(test)]
    twin: Twin,
    /// Connections force-dropped by channel fades (negative excess →
    /// re-negotiation, §5.3).
    pub channel_renegotiations: u64,
    /// The backbone node connections terminate at.
    server_node: NodeId,
    /// Links currently failed by fault injection.
    down_links: BTreeSet<LinkId>,
    /// Zones whose profile server is currently out.
    down_zones: BTreeSet<ZoneId>,
    /// Portables whose next handoff loses its signalling.
    doomed_handoffs: BTreeSet<PortableId>,
    /// Link failures processed (idempotent duplicates not counted).
    pub link_failures: u64,
    /// Times the stale-profile fallback sized a reservation because the
    /// owning zone's profile server was out.
    pub stale_profile_fallbacks: u64,
    /// Profile updates lost to server outages.
    pub lost_profile_updates: u64,
    /// Handoffs processed without signalling (claims unusable).
    pub handoff_signalling_failures: u64,
    /// Every cell's air-to-server route, indexed by cell. A pure
    /// function of the static topology — rebuilt on construction and
    /// restore, never snapshotted.
    uplinks: Vec<Option<Route>>,
    /// Every cell's wired multicast legs toward each of its neighbours,
    /// indexed by cell. Like `uplinks`: derived from the static topology
    /// and floor plan on construction and restore, never snapshotted.
    branch_legs: Vec<NeighborLegs>,
    /// Passive observer. [`Obs::off`] by default — observation never
    /// influences any decision, so the disabled path is bit-identical
    /// (asserted by `tests/obs_differential.rs`).
    pub obs: Obs,
}

impl ResourceManager {
    /// Build the manager over an environment.
    pub fn new(env: IndoorEnvironment, net: Network, cfg: ManagerConfig) -> Self {
        let mut profiles = ZonedProfiles::new();
        env.seed_zoned_profiles(&mut profiles);
        // The backbone star's hub (node 0 by construction).
        let server_node = NodeId(0);
        let mut meeting_policies = BTreeMap::new();
        let mut cafeteria_pred = BTreeMap::new();
        let mut default_pred = BTreeMap::new();
        for (id, info) in env.cells() {
            match info.class {
                CellClass::Lounge(LoungeKind::MeetingRoom) => {
                    meeting_policies.insert(
                        id,
                        MeetingRoomPolicy::new(BookingCalendar::new(), PER_USER_KBPS),
                    );
                }
                CellClass::Lounge(LoungeKind::Cafeteria) => {
                    cafeteria_pred.insert(id, CafeteriaPredictor::new());
                }
                CellClass::Lounge(LoungeKind::Default) => {
                    default_pred.insert(id, OneStepMemory::new());
                }
                _ => {}
            }
        }
        let uplinks = uplink_routes(net.topology(), server_node);
        let branch_legs = neighbor_legs(net.topology(), |c| env.neighbors(c));
        let cell_revs = vec![0; env.cell_count()];
        let plans = Plans::new(env.cell_count());
        ResourceManager {
            cell_revs,
            plans,
            statics: Vec::new(),
            watch: (0..env.cell_count()).map(|_| CellWatch::new()).collect(),
            last_pass: None,
            refresh_stats: RefreshStats::default(),
            net,
            env,
            profiles,
            cfg,
            metrics: Metrics::default(),
            portables: BTreeMap::new(),
            meeting_policies,
            cafeteria_pred,
            default_pred,
            slot_outflow: BTreeMap::new(),
            multicast: MulticastState::new(),
            last_excess: BTreeMap::new(),
            adaptation_rounds: 0,
            maxmin: arm_qos::maxmin::incremental::IncrementalMaxmin::new(),
            resolve_scratch: arm_qos::conflict::ResolveScratch::default(),
            round_feed: RoundFeed::default(),
            admission_scratch: AdmissionScratch::default(),
            route_scratch: Vec::new(),
            scratch: RefreshScratch::default(),
            #[cfg(test)]
            twin: Twin::Production,
            channel_renegotiations: 0,
            server_node,
            down_links: BTreeSet::new(),
            down_zones: BTreeSet::new(),
            doomed_handoffs: BTreeSet::new(),
            link_failures: 0,
            stale_profile_fallbacks: 0,
            lost_profile_updates: 0,
            handoff_signalling_failures: 0,
            uplinks,
            branch_legs,
            obs: Obs::off(),
        }
    }

    /// The zones and their profile servers, read-only.
    pub fn profiles(&self) -> &ZonedProfiles {
        &self.profiles
    }

    /// Encode every handoff history's rows recorded since the last call
    /// ([`ZonedProfiles::cache_rows`]), so that the next snapshot's text
    /// copies them: called by a server about to checkpoint. Moves no
    /// decision and no byte of any snapshot.
    pub fn cache_history_rows(&mut self) {
        self.profiles.cache_rows();
    }

    /// What the claim refresh has done since this manager was built or
    /// restored: refreshes run, wireless links re-written and let stand,
    /// portables re-dispatched.
    pub fn refresh_stats(&self) -> RefreshStats {
        self.refresh_stats
    }

    /// Install an observer (replacing the default [`Obs::off`]).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Zones whose profile server is currently out — the health signal
    /// a serving front end uses to decide degraded-mode admission.
    pub fn profile_outages(&self) -> usize {
        self.down_zones.len()
    }

    /// Detach the observer (e.g. to build a run report), leaving
    /// observation off.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.obs)
    }

    /// Capture the complete control-plane state as a schema-versioned
    /// [`ManagerSnapshot`] (everything except the passive observer and
    /// the maxmin cache).
    /// See `crate::snapshot` for the completeness/exactness contract.
    pub fn snapshot(&self) -> ManagerSnapshot {
        ManagerSnapshot {
            schema: crate::snapshot::SNAPSHOT_SCHEMA_VERSION,
            net: self.net.clone(),
            env: self.env.clone(),
            profiles: self.profiles.clone(),
            cfg: self.cfg.clone(),
            metrics: self.metrics.clone(),
            portables: self.portables.iter().map(|(p, t)| (*p, t.state)).collect(),
            meeting_policies: self.meeting_policies.clone(),
            cafeteria_pred: self.cafeteria_pred.clone(),
            default_pred: self.default_pred.clone(),
            slot_outflow: self.slot_outflow.clone(),
            multicast: self.multicast.clone(),
            last_excess: self.last_excess.clone(),
            adaptation_rounds: self.adaptation_rounds,
            channel_renegotiations: self.channel_renegotiations,
            server_node: self.server_node,
            down_links: self.down_links.clone(),
            down_zones: self.down_zones.clone(),
            doomed_handoffs: self.doomed_handoffs.clone(),
            link_failures: self.link_failures,
            stale_profile_fallbacks: self.stale_profile_fallbacks,
            lost_profile_updates: self.lost_profile_updates,
            handoff_signalling_failures: self.handoff_signalling_failures,
        }
    }

    /// Rebuild a manager from a snapshot, attaching `obs` as the new
    /// process's observer (snapshots never carry one — observation is
    /// passive and bit-identical, so any observer is valid here).
    ///
    /// The snapshot is validated first: schema skew and inconsistent
    /// ledgers come back as typed [`SnapshotError`]s, never panics.
    pub fn restore(snap: ManagerSnapshot, obs: Obs) -> Result<Self, SnapshotError> {
        snap.validate()?;
        let uplinks = uplink_routes(snap.net.topology(), snap.server_node);
        let branch_legs = neighbor_legs(snap.net.topology(), |c| snap.env.neighbors(c));
        let cell_revs = vec![0; snap.env.cell_count()];
        let plans = Plans::new(snap.env.cell_count());
        let portables: BTreeMap<PortableId, Tracked> = snap
            .portables
            .into_iter()
            .map(|(p, state)| (p, Tracked::new(state)))
            .collect();
        let mut watch: Vec<CellWatch> = (0..snap.env.cell_count())
            .map(|_| CellWatch::new())
            .collect();
        for (p, t) in &portables {
            if let Some(w) = watch.get_mut(t.state.cell.index()) {
                w.members.push(*p);
            }
        }
        Ok(ResourceManager {
            cell_revs,
            plans,
            statics: Vec::new(),
            watch,
            last_pass: None,
            refresh_stats: RefreshStats::default(),
            net: snap.net,
            env: snap.env,
            profiles: snap.profiles,
            cfg: snap.cfg,
            metrics: snap.metrics,
            portables,
            meeting_policies: snap.meeting_policies,
            cafeteria_pred: snap.cafeteria_pred,
            default_pred: snap.default_pred,
            slot_outflow: snap.slot_outflow,
            multicast: snap.multicast,
            last_excess: snap.last_excess,
            adaptation_rounds: snap.adaptation_rounds,
            maxmin: arm_qos::maxmin::incremental::IncrementalMaxmin::new(),
            resolve_scratch: arm_qos::conflict::ResolveScratch::default(),
            round_feed: RoundFeed::default(),
            admission_scratch: AdmissionScratch::default(),
            route_scratch: Vec::new(),
            scratch: RefreshScratch::default(),
            #[cfg(test)]
            twin: Twin::Production,
            channel_renegotiations: snap.channel_renegotiations,
            server_node: snap.server_node,
            down_links: snap.down_links,
            down_zones: snap.down_zones,
            doomed_handoffs: snap.doomed_handoffs,
            link_failures: snap.link_failures,
            stale_profile_fallbacks: snap.stale_profile_fallbacks,
            lost_profile_updates: snap.lost_profile_updates,
            handoff_signalling_failures: snap.handoff_signalling_failures,
            uplinks,
            branch_legs,
            obs,
        })
    }

    /// Replace a meeting room's booking calendar.
    pub fn set_calendar(&mut self, cell: CellId, calendar: BookingCalendar) {
        let policy = MeetingRoomPolicy::new(calendar, PER_USER_KBPS);
        self.meeting_policies.insert(cell, policy);
    }

    /// Where a portable currently is.
    pub fn portable_cell(&self, p: PortableId) -> Option<CellId> {
        self.portables.get(&p).map(|t| t.state.cell)
    }

    /// Is the portable static (dwelled ≥ `T_th`)?
    pub fn is_static(&self, p: PortableId, now: SimTime) -> bool {
        self.portables
            .get(&p)
            .is_some_and(|t| t.state.is_static(self.cfg.t_th, now))
    }

    /// Collect every portable that is static at `now` into `statics`,
    /// ascending, for the strategies whose refresh does not keep the
    /// list as it goes (the paper's does). The adaptation round reads
    /// the list twice: it diffs it against the last round's to find the
    /// portables whose status flipped, and its pin and sync ask it of
    /// each candidate connection. One scan of every portable per
    /// refresh, the last whole-table term of a round under these
    /// strategies.
    fn collect_statics(&mut self, now: SimTime) {
        let t_th = self.cfg.t_th;
        self.statics.clear();
        self.statics.extend(
            self.portables
                .iter()
                .filter(|(_, t)| t.state.is_static(t_th, now))
                .map(|(p, _)| *p),
        );
    }

    /// Run the Table 2 admission round trip for an installed connection
    /// under WFQ, the one discipline the manager schedules with.
    fn admit(
        &mut self,
        conn: ConnId,
        mobility: MobilityClass,
        kind: RequestKind,
    ) -> Result<(), arm_qos::Rejection> {
        let req = AdmissionRequest {
            conn,
            discipline: Discipline::Wfq,
            mobility,
            kind,
        };
        admit_with(&mut self.net, req, &mut self.admission_scratch).map(drop)
    }

    /// Release a connection's reservation on every link of its current
    /// route. The links go through the resident scratch — no per-event
    /// `Route` clone.
    fn release_current_route(&mut self, id: ConnId) {
        let c = self.net.get(id).invariant("live connection");
        self.route_scratch.clear();
        self.route_scratch.extend_from_slice(&c.route.links);
        self.net.release_route_links(id, &self.route_scratch);
    }

    /// The admission class of a portable's new-connection request.
    fn mobility_class(&self, p: PortableId, now: SimTime) -> MobilityClass {
        if self.is_static(p, now) {
            MobilityClass::Static
        } else {
            MobilityClass::Mobile
        }
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Replace `p`'s tracked state — the one place an entry is written,
    /// so its memo and kept dispatch go with the old state — and file `p`
    /// under its new cell's watch, which the next pass looks at.
    fn track(&mut self, p: PortableId, state: PortableState) {
        if let Some(old) = self.portables.insert(p, Tracked::new(state)) {
            #[cfg(test)]
            if self.twin.is(Mutant::MemoCarriedAcrossMove) {
                self.portables.get_mut(&p).invariant("just tracked").memo = old.memo;
            }
            let left = &mut self.watch[old.state.cell.index()].members;
            if let Ok(at) = left.binary_search(&p) {
                left.remove(at);
            }
        }
        let w = &mut self.watch[state.cell.index()];
        if let Err(at) = w.members.binary_search(&p) {
            w.members.insert(at, p);
        }
        #[cfg(test)]
        if self.twin.is(Mutant::ArrivalNotPending) {
            return;
        }
        w.pending = true;
    }

    /// A portable appears (powers on) in a cell.
    pub fn portable_appears(&mut self, p: PortableId, cell: CellId, now: SimTime) {
        self.track(
            p,
            PortableState {
                cell,
                prev_cell: None,
                entered_at: now,
            },
        );
        if self.zone_down(cell) {
            // The zone's profile server is out: the first-sighting
            // update is lost (the profile stays stale after recovery).
            self.lost_profile_updates += 1;
        } else {
            self.profiles.portable_entered(p, cell);
        }
        if let Some(policy) = self.meeting_policy_mut(cell) {
            policy.on_arrival(now);
        }
        self.refresh_claims(now);
    }

    /// A new-connection request from a tracked portable (§5.1).
    pub fn request_connection(
        &mut self,
        p: PortableId,
        qos: QosRequest,
        now: SimTime,
    ) -> Result<ConnId, arm_qos::Rejection> {
        let cell = self
            .portables
            .get(&p)
            .precondition("portable must appear before requesting connections")
            .state
            .cell;
        let admit_tok = self.obs.phase_start(now);
        self.metrics.requests.incr();
        let id = self.net.next_conn_id();
        let route = Self::uplink_route(&self.uplinks, cell).clone();
        self.net.install(Connection::new(
            id,
            p,
            cell,
            self.server_node,
            qos,
            route,
            now,
        ));
        let mobility = self.mobility_class(p, now);
        let outcome = self.admit(id, mobility, RequestKind::New);
        let admitted = outcome.is_ok();
        if admitted {
            self.sync_multicast_for(p, now);
            self.after_event(now);
        } else {
            self.metrics.blocked.incr();
            self.net.mark_blocked(id);
        }
        self.obs.emit_with(|| ObsEvent::AdmitDecision {
            t: now,
            conn: id,
            cell,
            admitted,
            cause: if admitted { "admitted" } else { "blocked" }.to_string(),
        });
        self.obs.phase_end(Phase::Admission, admit_tok, now);
        outcome.map(|()| id)
    }

    /// Application-initiated QoS re-negotiation (§4.2): "the network
    /// essentially treats it as a new connection request" — the old
    /// reservation is released and the connection re-admitted with the
    /// new bounds on its current route. On rejection the old reservation
    /// is restored and the connection continues under its previous
    /// bounds (re-negotiation failure must not kill an ongoing
    /// connection).
    pub fn renegotiate(
        &mut self,
        id: ConnId,
        new_qos: QosRequest,
        now: SimTime,
    ) -> Result<(), arm_qos::Rejection> {
        new_qos
            .validate()
            .precondition("caller validates the request");
        let (p, old_qos) = {
            let c = self
                .net
                .get(id)
                .precondition("renegotiate on a live connection");
            (c.portable, c.qos)
        };
        let admit_tok = self.obs.phase_start(now);
        self.metrics.requests.incr();
        // Release the current reservation, swap in the new bounds.
        self.release_current_route(id);
        {
            let c = self.net.get_mut(id).invariant("checked above");
            c.qos = new_qos;
            c.b_current = new_qos.b_min;
        }
        let mobility = self.mobility_class(p, now);
        let outcome = self.admit(id, mobility, RequestKind::New);
        let admitted = outcome.is_ok();
        if admitted {
            self.sync_multicast_for(p, now);
        } else {
            self.metrics.blocked.incr();
            // Restore the previous bounds; the resources were just
            // freed, so re-admission under them cannot fail.
            {
                let c = self.net.get_mut(id).invariant("checked above");
                c.qos = old_qos;
                c.b_current = old_qos.b_min;
            }
            self.admit(id, mobility, RequestKind::New)
                .invariant("restoring the previous reservation always fits");
        }
        self.after_event(now);
        let cell = self.net.get(id).map_or(CellId(0), |c| c.cell);
        self.obs.emit_with(|| ObsEvent::AdmitDecision {
            t: now,
            conn: id,
            cell,
            admitted,
            cause: if admitted {
                "renegotiate-accepted"
            } else {
                "renegotiate-rejected"
            }
            .to_string(),
        });
        self.obs.phase_end(Phase::Admission, admit_tok, now);
        outcome
    }

    /// Normal connection teardown.
    pub fn terminate(&mut self, id: ConnId, now: SimTime) {
        if self.net.get(id).is_some() {
            self.multicast.teardown(&mut self.net, id);
            self.net.finish(id);
            self.metrics.completed.incr();
            self.after_event(now);
        }
    }

    /// A tracked portable hands off `from → to`. Returns the ids of
    /// connections dropped in the process.
    pub fn portable_moved(&mut self, p: PortableId, to: CellId, now: SimTime) -> Vec<ConnId> {
        let state = self
            .portables
            .get(&p)
            .precondition("portable must appear before moving")
            .state;
        let from = state.cell;
        assert_ne!(from, to, "no-op move");
        let handoff_tok = self.obs.phase_start(now);
        // Profile bookkeeping. An outage of either involved zone's
        // profile server loses the update (profiles go stale).
        if self.zone_down(from) || self.zone_down(to) {
            self.lost_profile_updates += 1;
        } else {
            self.profiles
                .record_handoff(p, state.prev_cell, from, to, now);
            // `from`'s history just changed under every memo read there.
            self.cell_revs[from.index()] += 1;
            #[cfg(test)]
            match self.twin {
                Twin::Mutant(Mutant::HandoffBumpsNoRevision) => self.cell_revs[from.index()] -= 1,
                Twin::Mutant(Mutant::DestinationRevisionBumped) => {
                    self.cell_revs[from.index()] -= 1;
                    self.cell_revs[to.index()] += 1;
                }
                _ => {}
            }
        }
        *self.slot_outflow.entry(from).or_insert(0) += 1;
        // Meeting-room arrival/departure counters.
        if let Some(policy) = self.meeting_policy_mut(to) {
            policy.on_arrival(now);
        }
        if let Some(policy) = self.meeting_policy_mut(from) {
            policy.on_departure(now);
        }
        // Move the connections.
        let mut conns = std::mem::take(&mut self.scratch.moving);
        conns.clear();
        conns.extend(self.net.connections_of_portable(p).map(|c| c.id));
        let total_conns = conns.len();
        // A lost handoff signal means the advance reservations cannot
        // be consumed for this move: plain admission or drop.
        let claims_usable = !self.doomed_handoffs.remove(&p);
        if !claims_usable {
            self.handoff_signalling_failures += 1;
        }
        let mut dropped = Vec::new();
        for &id in &conns {
            self.metrics.handoff_attempts.incr();
            if self.handoff_connection(id, to, now, claims_usable) {
                self.metrics.handoff_successes.incr();
            } else {
                self.metrics.dropped.incr();
                self.multicast.teardown(&mut self.net, id);
                dropped.push(id);
            }
        }
        self.scratch.moving = conns;
        // Update the portable's position and mobility clock.
        self.track(
            p,
            PortableState {
                cell: to,
                prev_cell: Some(from),
                entered_at: now,
            },
        );
        self.sync_multicast_for(p, now);
        self.after_event(now);
        self.obs.emit_with(|| ObsEvent::HandoffOutcome {
            t: now,
            portable: p,
            from,
            to,
            carried: (total_conns - dropped.len()) as u64,
            dropped: dropped.len() as u64,
            cause: if claims_usable {
                "completed".to_string()
            } else {
                "signalling-failed".to_string()
            },
        });
        self.obs.phase_end(Phase::Handoff, handoff_tok, now);
        dropped
    }

    /// §4 multicast set-up for one portable, at its admission, handoff
    /// or accepted re-negotiation: a *mobile* portable's live
    /// connections get wired branches toward the current cell's
    /// neighbours; a static portable's branches are torn down ("no
    /// multicast routes … corresponding to this [B_dyn] fraction").
    fn sync_multicast_for(&mut self, p: PortableId, now: SimTime) {
        if !self.cfg.multicast {
            return;
        }
        let Some(state) = self.portables.get(&p).map(|t| t.state) else {
            return;
        };
        Self::collect_floors(&self.net, &mut self.scratch.floors, p);
        let mobile = !state.is_static(self.cfg.t_th, now);
        for &(id, b_min) in &self.scratch.floors {
            if mobile {
                self.multicast.establish(
                    &mut self.net,
                    id,
                    b_min,
                    &self.branch_legs[state.cell.index()],
                );
            } else {
                self.multicast.teardown(&mut self.net, id);
            }
        }
    }

    /// Slot boundary: feed the aggregate predictors, retire the §4
    /// multicast branches of every portable that is static now, and
    /// refresh claims.
    ///
    /// A mobile portable's branches are not touched: a branch is set up
    /// at admission, at handoff and at an accepted re-negotiation, and
    /// stands until its portable settles (here), moves, or the
    /// connection ends or is dropped. A branch refused for want of
    /// headroom or over a down link is therefore retried at the
    /// portable's next set-up, not every slot. The tick's multicast
    /// work is the settled portables' teardowns, and it allocates
    /// nothing in steady state.
    pub fn slot_tick(&mut self, now: SimTime) {
        let slot = now.ticks() / SLOT.ticks();
        self.obs
            .emit_with(|| ObsEvent::ReservationSlotRolled { t: now, slot });
        let pred_tok = self.obs.phase_start(now);
        let outflow = std::mem::take(&mut self.slot_outflow);
        for (cell, pred) in self.cafeteria_pred.iter_mut() {
            pred.observe(f64::from(outflow.get(cell).copied().unwrap_or(0)));
        }
        for (cell, pred) in self.default_pred.iter_mut() {
            pred.observe(f64::from(outflow.get(cell).copied().unwrap_or(0)));
        }
        self.obs.phase_end(Phase::PredictionUpdate, pred_tok, now);
        self.retire_settled_branches(now);
        self.after_event(now);
    }

    /// Tear down the branches of every connection whose portable is
    /// static at `now` (slot granularity is ample: `T_th` is minutes),
    /// in ascending portable order and each portable's connections
    /// ascending: a ledger's running sums depend on the order of its
    /// releases, and this is the order a per-portable sweep makes them
    /// in (`reference_resync_multicast`, the `WholeTableAndResync` twin).
    fn retire_settled_branches(&mut self, now: SimTime) {
        #[cfg(test)]
        if self.twin == Twin::WholeTableAndResync {
            return self.reference_resync_multicast(now);
        }
        #[cfg(test)]
        let now = now + SLOT * u64::from(self.twin.is(Mutant::RetireOneSlotEarly));
        if !self.cfg.multicast {
            return;
        }
        let t_th = self.cfg.t_th;
        let mut settled = std::mem::take(&mut self.scratch.settled);
        settled.clear();
        for id in self.multicast.connections() {
            let Some(p) = self.net.get(id).map(|c| c.portable) else {
                continue;
            };
            if self
                .portables
                .get(&p)
                .is_some_and(|t| t.state.is_static(t_th, now))
            {
                settled.push((p, id));
            }
        }
        settled.sort_unstable();
        for &(_, id) in &settled {
            self.multicast.teardown(&mut self.net, id);
        }
        self.scratch.settled = settled;
    }

    /// The wireless channel of `cell` changed: its effective capacity is
    /// now `effective_fraction` of nominal (§2.1's time-varying medium).
    ///
    /// The lost capacity is modelled as a [`ResvClaim::Channel`] claim.
    /// When the loss cannot be absorbed by squeezing excess allocations
    /// and releasing advance claims — i.e. `b'_av,l` would stay negative —
    /// connections are told to re-negotiate and, failing that, dropped
    /// youngest-first (§5.3: "if b'_av,l < 0, then some connections are
    /// notified to do re-negotiation"). Returns the dropped connections,
    /// or [`ControlError::BadChannelFraction`] for a fraction outside
    /// `(0, 1]` (scenario input, so an error rather than a panic).
    pub fn channel_change(
        &mut self,
        cell: CellId,
        effective_fraction: f64,
        now: SimTime,
    ) -> Result<Vec<ConnId>, ControlError> {
        if !(effective_fraction > 0.0 && effective_fraction <= 1.0) {
            return Err(ControlError::BadChannelFraction {
                cell,
                fraction: effective_fraction,
            });
        }
        let wl = self.net.topology().wireless_link(cell);
        let capacity = self.net.link(wl).capacity();
        let target_loss = capacity * (1.0 - effective_fraction);
        // Make room for the loss claim: shed the advance claims of this
        // link first — a faded medium cannot honour reservations anyway.
        let mut victims = Vec::new();
        loop {
            let link = self.net.link(wl);
            let other_resv = link.b_resv() - link.claim(ResvClaim::Channel);
            let headroom = capacity - link.sum_b_min() - other_resv;
            if target_loss <= headroom + 1e-9 {
                break;
            }
            // Drop the youngest connection on the link (the model of
            // §6.3: "the connection with a later arrival time is
            // dropped").
            let deficit = target_loss - headroom;
            let mut vs = arm_qos::adaptation::renegotiation_victims(&self.net, wl, deficit);
            if vs.is_empty() {
                break; // only claims remain; set_claim will cap-release them
            }
            let v = vs.remove(0);
            self.multicast.teardown(&mut self.net, v);
            self.net.finish(v);
            self.channel_renegotiations += 1;
            victims.push(v);
        }
        self.net
            .link_mut(wl)
            .set_claim(ResvClaim::Channel, target_loss);
        self.after_event(now);
        Ok(victims)
    }

    // ------------------------------------------------------------------
    // Fault injection entry points
    // ------------------------------------------------------------------

    /// Is this link currently failed?
    pub fn is_link_down(&self, l: LinkId) -> bool {
        self.down_links.contains(&l)
    }

    /// A link (wired or wireless) fails. Connections riding it are
    /// re-routed around the failure where the topology allows and
    /// squeezed to `b_min` otherwise, to ride out the outage at their
    /// guaranteed floor; none is dropped. The link's remaining headroom
    /// is sealed with a [`ResvClaim::Outage`] claim so nothing new is
    /// admitted until restoration. Idempotent: a second failure of a
    /// down link is a no-op.
    pub fn link_failed(&mut self, link: LinkId, now: SimTime) {
        if !self.down_links.insert(link) {
            return;
        }
        self.link_failures += 1;
        self.obs.emit_with(|| ObsEvent::FaultInjected {
            t: now,
            fault: format!("link-failed:{link}"),
        });
        // Owned copy: the loop below re-routes, mutating the membership
        // index the slice borrows (cold path, failure only).
        let ids = self.net.conn_ids_on_link(link).to_vec();
        for id in ids {
            if !self.try_reroute(id) {
                // Ride out the outage at the guaranteed floor.
                let b_min = self.net.get(id).invariant("live connection").qos.b_min;
                self.net
                    .set_conn_rate(id, b_min)
                    .invariant("shrinking to b_min never overcommits");
            }
        }
        Self::seal_link(&mut self.net, link);
        self.after_event(now);
    }

    /// The link comes back. Its outage seal is lifted and connections
    /// are re-routed back onto their shortest paths. Squeezed rates
    /// re-grow at the next adaptation round, whichever event opens it:
    /// `conflict::resolve_network` returns every static connection to
    /// its maxmin target. Idempotent.
    pub fn link_restored(&mut self, link: LinkId, now: SimTime) {
        if !self.down_links.remove(&link) {
            return;
        }
        self.obs.emit_with(|| ObsEvent::FaultInjected {
            t: now,
            fault: format!("link-restored:{link}"),
        });
        self.net.link_mut(link).release_claim(ResvClaim::Outage);
        let ids: Vec<ConnId> = self.net.live_connections().map(|c| c.id).collect();
        for id in ids {
            self.try_reroute(id);
        }
        self.after_event(now);
    }

    /// A zone's profile server stops answering: predictions for its
    /// cells fall back to the even-spread default and profile updates
    /// are lost until [`profile_server_up`](Self::profile_server_up).
    /// Idempotent.
    pub fn profile_server_down(&mut self, zone: ZoneId, now: SimTime) {
        if self.down_zones.insert(zone) {
            self.obs.emit_with(|| ObsEvent::FaultInjected {
                t: now,
                fault: format!("profile-server-down:{zone}"),
            });
            self.after_event(now);
        }
    }

    /// The zone's profile server recovers (with whatever state it had
    /// when it went down — updates during the outage are lost).
    pub fn profile_server_up(&mut self, zone: ZoneId, now: SimTime) {
        if self.down_zones.remove(&zone) {
            self.obs.emit_with(|| ObsEvent::FaultInjected {
                t: now,
                fault: format!("profile-server-up:{zone}"),
            });
            self.after_event(now);
        }
    }

    /// The next handoff attempted by `p` loses its signalling: advance
    /// claims cannot be consumed for it and its connections must pass
    /// plain admission at the destination or be dropped.
    pub fn fail_next_handoff(&mut self, p: PortableId) {
        self.doomed_handoffs.insert(p);
    }

    /// Claim the failed link's remaining headroom so nothing new is
    /// admitted on it (`set_claim` caps the grant to what exists).
    fn seal_link(net: &mut Network, link: LinkId) {
        let cap = net.link(link).capacity();
        net.link_mut(link).set_claim(ResvClaim::Outage, cap);
    }

    /// Move `id` onto the shortest route that avoids every down link, if
    /// that differs from its current route and has room; true on success.
    fn try_reroute(&mut self, id: ConnId) -> bool {
        let (cell, old_route, b_min) = {
            let c = self.net.get(id).invariant("live connection");
            (c.cell, c.route.clone(), c.qos.b_min)
        };
        let new_route = {
            let topo = self.net.topology();
            shortest_path_avoiding(
                topo,
                topo.air_node(cell),
                self.server_node,
                &self.down_links,
            )
        };
        let Some(new_route) = new_route else {
            return false;
        };
        if new_route == old_route {
            return false;
        }
        self.net.release_route(id, &old_route);
        {
            let c = self.net.get_mut(id).invariant("live connection");
            c.route = new_route;
            c.b_current = b_min;
        }
        if self
            .admit(id, MobilityClass::Mobile, RequestKind::Handoff)
            .is_ok()
        {
            return true;
        }
        // The detour has no room. Fall back to the old route — its
        // resources were just freed, so restoring cannot fail — and let
        // the caller squeeze instead.
        {
            let c = self.net.get_mut(id).invariant("live connection");
            c.route = old_route;
            c.b_current = b_min;
        }
        self.admit(id, MobilityClass::Mobile, RequestKind::Handoff)
            .invariant("restoring the previous reservation always fits");
        false
    }

    /// Is the profile server owning `cell` currently out?
    fn zone_down(&self, cell: CellId) -> bool {
        Self::zone_is_down(&self.down_zones, &self.profiles, cell)
    }

    /// [`zone_down`](Self::zone_down) over fields, for the refresh loop
    /// that holds `portables` mutably.
    fn zone_is_down(down_zones: &BTreeSet<ZoneId>, profiles: &ZonedProfiles, cell: CellId) -> bool {
        !down_zones.is_empty() && down_zones.contains(&profiles.zone_of(cell))
    }

    // ------------------------------------------------------------------
    // Handoff machinery
    // ------------------------------------------------------------------

    /// Move one connection into `to`; true on success. §4.3/§5.1: the
    /// handoff may use advance-reserved resources — its own predicted
    /// claim first, then the destination's aggregate claim, the source
    /// cell's departure claim, and finally the `B_dyn` pool. With
    /// `claims_usable` false (handoff signalling lost) none of that
    /// machinery is reachable: the connection must pass plain admission
    /// at the destination or be dropped.
    fn handoff_connection(
        &mut self,
        id: ConnId,
        to: CellId,
        now: SimTime,
        claims_usable: bool,
    ) -> bool {
        let (b_min, from) = {
            let c = self.net.get(id).invariant("live connection");
            (c.qos.b_min, c.cell)
        };
        // The old cell's resources are released as the portable leaves
        // it.
        self.release_current_route(id);
        {
            let new_route = Self::uplink_route(&self.uplinks, to);
            let c = self.net.get_mut(id).invariant("live connection");
            // Field by field: `Vec::clone_from` reuses the old route's
            // buffers.
            c.route.nodes.clone_from(&new_route.nodes);
            c.route.links.clone_from(&new_route.links);
            c.cell = to;
            c.b_current = b_min;
        }
        let kind = if claims_usable {
            RequestKind::Handoff
        } else {
            // Without signalling even the connection's own predicted
            // claim is unreachable.
            RequestKind::New
        };
        if self.admit(id, MobilityClass::Mobile, kind).is_ok() {
            return true;
        }
        if !claims_usable {
            self.net.finish(id);
            return false;
        }
        // Draw down consumable aggregate claims, most specific first.
        let wl = self.net.topology().wireless_link(to);
        for (key, source) in [
            (ResvClaim::Cell(to), ClaimSource::CellTo),
            (ResvClaim::Cell(from), ClaimSource::CellFrom),
            (ResvClaim::DynPool, ClaimSource::DynPool),
        ] {
            let available = self.net.link(wl).claim(key);
            if available <= 0.0 {
                continue;
            }
            let drawn = available.min(b_min);
            self.net.link_mut(wl).set_claim(key, available - drawn);
            if self
                .admit(id, MobilityClass::Mobile, RequestKind::Handoff)
                .is_ok()
            {
                self.metrics.claims_consumed.incr();
                self.obs.emit_with(|| ObsEvent::ClaimConsumed {
                    t: now,
                    cell: to,
                    conn: id,
                    kbps: drawn,
                    source,
                });
                return true;
            }
            // Put the drawn amount back; it didn't help.
            let cur = self.net.link(wl).claim(key);
            self.net.link_mut(wl).set_claim(key, cur + drawn);
        }
        self.net.finish(id);
        false
    }

    /// Route from a cell's air interface to the backbone hub: the
    /// resident copy of the shortest path (the topology is static, so a
    /// Dijkstra run per connection would find the same one).
    fn uplink_route(uplinks: &[Option<Route>], cell: CellId) -> &Route {
        uplinks[cell.index()]
            .as_ref()
            .invariant("star backbone is connected")
    }

    /// The booking-calendar policy of `c`, if `c` is a meeting room.
    fn meeting_policy_mut(&mut self, c: CellId) -> Option<&mut MeetingRoomPolicy> {
        let is_meeting_room = matches!(
            self.env.cell(c).class,
            CellClass::Lounge(LoungeKind::MeetingRoom)
        );
        self.meeting_policies
            .get_mut(&c)
            .filter(|_| is_meeting_room)
    }

    // ------------------------------------------------------------------
    // Claim refresh
    // ------------------------------------------------------------------

    fn after_event(&mut self, now: SimTime) {
        self.refresh_claims(now);
        if self.cfg.resolve_excess && self.adaptation_triggered() {
            self.adaptation_rounds += 1;
            let round_tok = self.obs.phase_start(now);
            // The engine counters feed only the `MaxminRound` event.
            let before = self.obs.is_on().then_some(self.maxmin.stats);
            // Kept by the refresh above, at the same `now`.
            #[cfg(test)]
            if self.twin.is(Mutant::NoStaticsDiff) {
                self.round_feed.statics.clone_from(&self.statics);
            }
            self.round_feed.fill(&self.net, &self.statics);
            #[cfg(test)]
            if self.twin.whole_table() {
                self.round_feed.conns = self.net.live_connections().map(|c| c.id).collect();
            }
            let statics = &self.statics;
            let is_static = |p: PortableId| statics.binary_search(&p).is_ok();
            arm_qos::conflict::resolve_network(
                &mut self.net,
                &is_static,
                &self.round_feed.conns,
                &mut self.maxmin,
                &mut self.resolve_scratch,
            );
            self.obs.phase_end(Phase::Maxmin, round_tok, now);
            if let Some(before) = before {
                let after = self.maxmin.stats;
                self.obs.emit(ObsEvent::MaxminRound {
                    t: now,
                    conns_resolved: after.conns_resolved - before.conns_resolved,
                    conns_reused: after.conns_reused - before.conns_reused,
                    cause: "eqn2-adaptation".to_string(),
                });
            }
            // Record the post-round excess as eqn 2's t⁻ state.
            for (c, _) in self.env.cells() {
                let wl = self.net.topology().wireless_link(c);
                self.last_excess
                    .insert(wl, self.net.link(wl).excess_available());
            }
        }
        debug_assert!(self.net.check_invariants().is_ok());
    }

    /// The eqn-2 trigger across all wireless links: shrinkage always
    /// fires; growth fires only when it exceeds δ and some connection on
    /// the link could use it (`M(l) ≠ ∅`).
    fn adaptation_triggered(&self) -> bool {
        use arm_qos::adaptation::{decide, AdaptDecision};
        for (cell, _) in self.env.cells() {
            let wl = self.net.topology().wireless_link(cell);
            let new_excess = self.net.link(wl).excess_available();
            let prev_excess = match self.last_excess.get(&wl) {
                Some(v) => *v,
                None => return true, // first sight of this link
            };
            let shares: f64 = self
                .net
                .conns_on_link(wl)
                .map(|c| (c.b_current - c.qos.b_min).max(0.0))
                .sum();
            let unsatisfied = self
                .net
                .conns_on_link(wl)
                .any(|c| c.b_current < c.qos.b_max - 1e-9);
            match decide(prev_excess, new_excess, shares, unsatisfied, self.cfg.delta) {
                AdaptDecision::None => {}
                _ => return true,
            }
        }
        false
    }

    /// Recompute every advance claim from current state: build every
    /// wireless link's plan — what wiping the claims the manager owns
    /// and re-installing them would write there — then run the one
    /// guarded apply step (`claim_plan::Plans::apply`). The `Channel`
    /// claim is the channel monitor's and the `Outage` claim the fault
    /// path's; both model capacity committed elsewhere and survive the
    /// wipe.
    fn refresh_claims(&mut self, now: SimTime) {
        // Drained at every refresh, whatever the strategy reads of it,
        // and kept for the next adaptation round when rounds can run.
        let all_changed = self.net.drain_changed_portables(&mut self.scratch.changed);
        if self.cfg.resolve_excess {
            #[cfg(test)]
            if self.twin.is(Mutant::FeedForgetsNewNetwork) {
                self.round_feed.all = false;
            }
            self.round_feed.note(&self.scratch.changed, all_changed);
        }
        #[cfg(test)]
        if self.twin.whole_table() {
            self.collect_statics(now);
            return self.reference_refresh_claims(now);
        }
        // The statics are for the `B_dyn` pass and for the adaptation
        // round `after_event` may run next, at the same `now`; the
        // paper's dispatch pass keeps them itself, inside the span.
        if !matches!(self.cfg.strategy, Strategy::Paper) {
            self.collect_statics(now);
        }
        let refresh_tok = self.obs.phase_start(now);
        self.refresh_stats.refreshes += 1;
        self.plans.begin();
        // Each outage seal is its link's first write: terminations during
        // an outage must not open phantom headroom on a dead link, and a
        // sealed link grants 0 to every claim set after it. A wired link
        // has no plan; its seal is re-tightened here.
        for l in &self.down_links {
            let cell = self.net.topology().link(*l).wireless_cell;
            match cell.and_then(|c| self.plans.link(c)) {
                Some(plan) => plan.seal(),
                None => Self::seal_link(&mut self.net, *l),
            }
        }
        match self.cfg.strategy {
            Strategy::None => {}
            Strategy::Paper => self.plan_paper(now, all_changed),
            Strategy::BruteForce => self.plan_brute_force(),
            Strategy::Aggregate => self.plan_aggregate(),
            Strategy::StaticFraction(f) => {
                for (c, _) in self.env.cells() {
                    let wl = self.net.topology().wireless_link(c);
                    let amount = self.net.link(wl).capacity() * f;
                    self.plans
                        .push(c, ClaimWrite::Set(ResvClaim::Cell(c), amount));
                }
            }
        }
        self.plans.apply(
            &mut self.net,
            &mut self.refresh_stats,
            #[cfg(test)]
            self.twin,
        );
        self.obs.phase_end(Phase::ClaimRefresh, refresh_tok, now);
    }

    /// The paper's strategy: per-portable claims via the §6.4 dispatcher,
    /// lounge aggregate claims via the class policies, plus `B_dyn`.
    ///
    /// The dispatch pass looks at the portables the network recorded as
    /// changed and at every member of each cell its [`CellWatch`] says
    /// to look at, and dispatches again exactly those whose kept
    /// dispatch no longer holds ([`Tracked::dispatch_holds`]). Every
    /// other portable's writes stand in the plans from its last
    /// dispatch. With an observer recording, the pass walks every
    /// portable in ascending order and emits each kept decision, so the
    /// obs stream is that of a dispatch per portable. `all_changed`
    /// counts every portable's connections as changed, so every cell is
    /// looked at.
    fn plan_paper(&mut self, now: SimTime, all_changed: bool) {
        // A pass at an earlier instant than the last may find statics
        // mobile again: it looks at every cell.
        let backwards = self.last_pass.is_some_and(|t| now < t);
        self.last_pass = Some(now);
        for (i, w) in self.watch.iter_mut().enumerate() {
            let zone_down =
                Self::zone_is_down(&self.down_zones, &self.profiles, CellId::from_index(i));
            w.due = all_changed
                || backwards
                || w.pending
                || zone_down
                || w.seen_rev != self.cell_revs[i]
                || now >= w.next_flip;
            if w.due {
                // Looked at again once the zone's server is back.
                w.pending = zone_down;
                w.seen_rev = self.cell_revs[i];
                w.next_flip = SimTime::MAX;
            }
        }
        let ResourceManager {
            portables,
            env,
            profiles,
            net,
            cfg,
            obs,
            plans,
            scratch,
            cell_revs,
            down_zones,
            watch,
            statics,
            refresh_stats,
            stale_profile_fallbacks,
            ..
        } = self;
        let mut pass = DispatchPass {
            now,
            t_th: cfg.t_th,
            env,
            profiles,
            net,
            down_zones,
            cell_revs,
            changed: &scratch.changed,
            obs,
            plans,
            watch,
            statics,
            floors: &mut scratch.floors,
            fresh: &mut scratch.fresh,
            stats: refresh_stats,
            fallbacks: stale_profile_fallbacks,
            all_changed,
            #[cfg(test)]
            twin: self.twin,
        };
        // A portable is looked at once: with its due cell, or else for
        // its changed connections.
        let changed = pass.changed;
        if pass.obs.is_on() {
            for (p, t) in portables.iter_mut() {
                if pass.watch[t.state.cell.index()].due || changed.binary_search(p).is_ok() {
                    pass.look(*p, t);
                } else if let Some(Dispatched::Decided(decision)) = t.dispatched {
                    pass.emit_kept(*p, decision);
                }
            }
        } else {
            for i in 0..pass.watch.len() {
                if !pass.watch[i].due {
                    continue;
                }
                // By index: looking writes the watch's `next_flip`.
                for k in 0..pass.watch[i].members.len() {
                    let p = pass.watch[i].members[k];
                    if let Some(t) = portables.get_mut(&p) {
                        pass.look(p, t);
                    }
                }
            }
            for p in changed {
                if let Some(t) = portables.get_mut(p) {
                    if !pass.watch[t.state.cell.index()].due {
                        pass.look(*p, t);
                    }
                }
            }
        }
        debug_assert_eq!(self.watch_is_exact(now), Ok(()), "watch_is_exact");
        // Lounge class policies.
        self.plan_lounges(now);
        // B_dyn pools: every cell's largest static allocation, folded
        // over the static portables' own connections, then each cell's
        // pool from its neighbours' maxima. `max` is exact, so the
        // visiting order cannot move a bit. The statics are few (16 of
        // 240 portables on an average `wing_rush` refresh), so each is
        // looked up in the portable index rather than merge-joined with
        // the whole of it.
        if let Some(policy) = self.cfg.dyn_pool {
            let static_max = &mut self.scratch.static_max;
            static_max.clear();
            static_max.resize(self.net.topology().cell_count(), 0.0);
            for p in &self.statics {
                for c in self.net.connections_of_portable(*p) {
                    let m = &mut static_max[c.cell.index()];
                    *m = m.max(c.b_current);
                }
            }
            for (c, info) in self.env.cells() {
                let max_alloc = info
                    .neighbors
                    .iter()
                    .fold(0.0_f64, |m, n| m.max(static_max[n.index()]));
                let wl = self.net.topology().wireless_link(c);
                let pool = policy.target_pool(self.net.link(wl).capacity(), max_alloc);
                self.plans.set_dyn_pool(c, pool);
            }
        }
    }

    /// What the dispatch pass at `now` must have left: every portable it
    /// did not look at (its cell was not due, its connections did not
    /// change) still holds its kept dispatch, `statics` is the static
    /// portables, and each cell's watch lists its members. The scan the
    /// pass replaces, run in debug builds after every pass.
    fn watch_is_exact(&self, now: SimTime) -> Result<(), String> {
        let t_th = self.cfg.t_th;
        // Compared in place: the pass runs after every event, and a
        // passing check allocates nothing (`tests/zero_alloc.rs` counts
        // debug builds too).
        let statics = || {
            self.portables
                .iter()
                .filter(|(_, t)| t.state.is_static(t_th, now))
                .map(|(p, _)| *p)
        };
        if !statics().eq(self.statics.iter().copied()) {
            let statics: Vec<PortableId> = statics().collect();
            return Err(format!("statics {:?}, kept {:?}", statics, self.statics));
        }
        for (p, t) in &self.portables {
            let cell = t.state.cell;
            if self.watch[cell.index()].members.binary_search(p).is_err() {
                return Err(format!("{p:?} missing from the watch of {cell:?}"));
            }
            let looked_at =
                self.watch[cell.index()].due || self.scratch.changed.binary_search(p).is_ok();
            if looked_at {
                continue;
            }
            let mobile = !t.state.is_static(t_th, now);
            let zone_down = Self::zone_is_down(&self.down_zones, &self.profiles, cell);
            if !t.dispatch_holds(mobile, false, zone_down, self.cell_revs[cell.index()]) {
                return Err(format!("{p:?} needed a dispatch and was not looked at"));
            }
        }
        let watched: usize = self.watch.iter().map(|w| w.members.len()).sum();
        if watched != self.portables.len() {
            return Err(format!(
                "{watched} watched, {} tracked",
                self.portables.len()
            ));
        }
        Ok(())
    }

    /// Aggregate claims from the lounge policies (meeting calendar,
    /// cafeteria least-squares, default one-step).
    fn plan_lounges(&mut self, now: SimTime) {
        let mut lounges = std::mem::take(&mut self.scratch.lounges);
        lounges.clear();
        // Meeting rooms.
        lounges.extend(
            self.meeting_policies
                .iter_mut()
                .map(|(m, policy)| (*m, policy.room_demand(now), policy.neighbor_demand(now))),
        );
        let meeting_rooms = lounges.len();
        // Cafeterias and default lounges: predicted outbound handoffs.
        let caf = self.cafeteria_pred.iter().map(|(c, p)| (*c, p.predict()));
        let def = self.default_pred.iter().map(|(c, p)| (*c, p.predict()));
        lounges.extend(caf.chain(def).map(|(c, n)| (c, n * PER_USER_KBPS, 0.0)));
        for &(m, room, neighbor) in &lounges[..meeting_rooms] {
            if room > 0.0 {
                self.plans
                    .push(m, ClaimWrite::Set(ResvClaim::Cell(m), room));
            }
            if neighbor > 0.0 {
                self.spread_to_neighbors(m, neighbor);
            }
        }
        for &(c, demand, _) in &lounges[meeting_rooms..] {
            if demand > 0.0 {
                self.spread_to_neighbors(c, demand);
            }
        }
        self.scratch.lounges = lounges;
    }

    /// Split an aggregate demand from `source` over its neighbours by the
    /// profile transition row (even split without history), adding to
    /// their `Cell(source)` claims.
    fn spread_to_neighbors(&mut self, source: CellId, demand: f64) {
        let neighbors = &self.env.cell(source).neighbors;
        if neighbors.is_empty() {
            return;
        }
        // A profile-server outage hides the transition row; the empty
        // row below degrades to the even split.
        let row = &mut self.scratch.row;
        row.clear();
        if !Self::zone_is_down(&self.down_zones, &self.profiles, source) {
            if let Some(cp) = self.profiles.cell(source) {
                cp.aggregate_row_into(row);
            }
        }
        let get = |n: &CellId| {
            row.binary_search_by_key(n, |(c, _)| *c)
                .ok()
                .map(|i| &row[i].1)
        };
        let known: f64 = neighbors.iter().filter_map(get).sum();
        for n in neighbors {
            let share = if known > 0.0 {
                get(n).copied().unwrap_or(0.0) / known
            } else {
                1.0 / neighbors.len() as f64
            };
            let amount = demand * share;
            if amount > 0.0 {
                self.plans
                    .push(*n, ClaimWrite::Add(ResvClaim::Cell(source), amount));
            }
        }
    }

    /// Even-split spread used when profile data is unavailable (zone
    /// profile-server outage): no transition row can be read, so the
    /// demand is divided uniformly over the neighbours. Appended to
    /// `out` by neighbour, for the dispatch pass that holds `portables`.
    fn spread_evenly(
        env: &IndoorEnvironment,
        source: CellId,
        demand: f64,
        out: &mut Vec<(CellId, ClaimWrite)>,
    ) {
        let neighbors = &env.cell(source).neighbors;
        if neighbors.is_empty() || demand <= 0.0 {
            return;
        }
        let share = demand / neighbors.len() as f64;
        let add = ClaimWrite::Add(ResvClaim::Cell(source), share);
        out.extend(neighbors.iter().map(|n| (*n, add)));
    }

    fn plan_brute_force(&mut self) {
        let demands = self.mobile_demands();
        for (p, cell) in demands {
            Self::collect_floors(&self.net, &mut self.scratch.floors, p);
            for n in self.env.neighbors(cell) {
                for (id, b) in &self.scratch.floors {
                    self.plans
                        .push(n, ClaimWrite::Set(ResvClaim::Conn(*id), *b));
                }
            }
        }
    }

    fn plan_aggregate(&mut self) {
        let demands = self.mobile_demands();
        for (p, cell) in demands {
            let total: f64 = self
                .net
                .connections_of_portable(p)
                .map(|c| c.qos.b_min)
                .sum();
            if total > 0.0 {
                self.spread_to_neighbors(cell, total);
            }
        }
    }

    /// Collect the `(connection, b_min)` floors of a portable's live
    /// connections into `floors` (the resident buffer). Over fields, not
    /// `&mut self`, so a loop that borrows `portables` can call it.
    fn collect_floors(net: &Network, floors: &mut Vec<(ConnId, f64)>, p: PortableId) {
        floors.clear();
        floors.extend(net.connections_of_portable(p).map(|c| (c.id, c.qos.b_min)));
    }

    /// Every portable with live connections and its cell (the baselines
    /// reserve for all of them, making no static/mobile distinction —
    /// which is exactly their weakness). Ordered by when each portable
    /// entered its current cell: reservations are first-come-first-served,
    /// so when a link's claim headroom runs out, the latest movers lose —
    /// exactly the race that drops late classroom arrivals under the
    /// brute-force scheme.
    fn mobile_demands(&self) -> Vec<(PortableId, CellId)> {
        let mut v: Vec<(SimTime, PortableId, CellId)> = self
            .portables
            .iter()
            .filter(|(p, _)| self.net.connections_of_portable(**p).next().is_some())
            .map(|(p, t)| (t.state.entered_at, *p, t.state.cell))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        v.into_iter().map(|(_, p, c)| (p, c)).collect()
    }
}

#[cfg(test)]
#[path = "manager_reference.rs"]
mod reference;
#[cfg(test)]
pub(crate) use reference::{Mutant, Twin};

#[cfg(test)]
#[path = "manager_tests.rs"]
mod tests;

#[cfg(test)]
#[path = "manager_twins.rs"]
mod twins;
