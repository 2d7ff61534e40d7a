//! The integrated resource manager (the paper's Figure 1).
//!
//! One [`ResourceManager`] owns the network, the zone's profile server,
//! the per-cell class policies, and the metrics. Every driver enters it
//! the same way: [`apply`](ResourceManager::apply) takes one
//! [`ManagerEvent`], refuses a malformed one with a typed [`Refused`]
//! before it touches anything ([`check`](ResourceManager::check)), and
//! otherwise runs the event's arm and reports an [`Outcome`]. The arms:
//!
//! * `Request` — §5.1 admission (with conflict resolution squeezing
//!   ongoing connections within their bounds),
//! * `Move` — handoff processing: profile updates, per-connection
//!   handoff admission that may consume advance claims (its own
//!   predicted claim, the destination cell's aggregate claim, the source
//!   cell's departure claim, or the `B_dyn` pool — in that order), drop
//!   accounting, and reservation refresh,
//! * `Terminate` — normal teardown,
//! * `SlotTick` — aggregate-policy bookkeeping: feed the
//!   cafeteria/default predictors, retire the multicast branches of
//!   portables that settled, refresh claims,
//! * `Appear`, `Renegotiate`, `ChannelChange` and the fault events.
//!
//! Claims are recomputed after every event from the current state, as
//! if every manager-owned claim were wiped and re-installed in a fixed
//! order, so a link's ledger is a function of the state and not of the
//! path that led to it. Each wireless link keeps a *plan* — the writes
//! that wholesale wipe-and-reinstall would make on it — which a refresh
//! edits only where an input of it changed, and one guarded apply step
//! (`claim_plan`) re-writes only the links whose plan or ledger changed
//! since a run that changed nothing, looking at no other link. In
//! steady state a refresh allocates nothing. It reads seven resident
//! structures, the first three kept where their source lives:
//!
//! * `Network`'s per-portable connection index (derived from the
//!   connection table in `install`/`finish`/`mark_blocked`) — a
//!   portable's floors without a scan of every record — and its change
//!   logs of the portables whose connections changed, the connections
//!   ended and the wireless links whose ledger was written
//!   (`arm_net::ChangeLog`, DESIGN §7);
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
//!   tracked portables, with two logs of the cells the next pass must
//!   look at: those a member arrived in or turned static in, and those
//!   whose handoff history moved, whose epochs stamp the memos;
//! * the portables static at the last refresh, and a queue of the
//!   instants at which the mobile ones turn static ([`Statics`]);
//! * every wireless link's plan, how the link last ran it with the
//!   ledger revision that run left, and the log of links the next
//!   apply step looks at (`claim_plan::Plans`);
//! * each lounge's aggregate writes with the demand and transition-row
//!   stamp they were built from (`claim_plan::Spreads`), and each cell's
//!   largest static allocation, `B_dyn`'s input (`claim_plan::Pools`).
//!
//! None of it is snapshotted: a restored manager re-dispatches every
//! portable, re-runs every link, rebuilds every spread and pool and
//! rebuilds the static set by one scan at its first refresh. What else
//! the
//! manager keeps between events ([`RefreshScratch`]) is buffers only:
//! every one is cleared before it is filled.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use arm_mobility::environment::IndoorEnvironment;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, LinkId, NodeId, PortableId, ZoneId};
use arm_net::link::ResvClaim;
use arm_net::routing::{neighbor_legs, shortest_path_avoiding, uplink_routes, NeighborLegs};
use arm_net::{sorted_insert, sorted_remove, ChangeLog, Connection, Network, Route, Traffic};
use arm_obs::{AdmitCause, ClaimSource, Fault, HandoffCause, Obs, ObsEvent, Phase};
use arm_profiles::prediction::Prediction;
use arm_profiles::{CellClass, LoungeKind, ZonedProfiles};
use arm_qos::adaptation::{DynPoolPolicy, StaticMobileTest};
use arm_qos::admission::{
    admit_with, AdmissionRequest, AdmissionScratch, Discipline, MobilityClass, RequestKind,
};
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use arm_reservation::cafeteria::CafeteriaPredictor;
use arm_reservation::default_cell::OneStepMemory;
use arm_reservation::dispatch::{decide_traced, ReservationDecision};
use arm_reservation::meeting::{BookingCalendar, MeetingRoomPolicy};
use arm_sim::{Audited, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::claim_plan::{ClaimWrite, Plans, Pools, RefreshStats, Spreads};
use crate::error::ControlError;
use crate::event::{check_qos, known, Decision, ManagerEvent, Outcome, Refused};
use crate::metrics::Metrics;
use crate::multicast::MulticastState;
use crate::snapshot::{ManagerSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
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

    /// The instant from which [`is_static`](Self::is_static) holds, at
    /// or after `entered_at`: `None` when it lies past [`SimTime::MAX`],
    /// so that the portable never turns static.
    fn turns_static_at(&self, t_th: SimDuration) -> Option<SimTime> {
        let ticks = self.entered_at.ticks().checked_add(t_th.ticks())?;
        Some(SimTime::from_ticks(ticks))
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
///   handoff out of `cell`, which logs `cell` in the manager's
///   `handoffs` log and so moves its epoch away from the stamp below.
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
    /// `handoffs.epoch(cell)` when the inputs were read.
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

/// The dispatch pass of `ResourceManager::plan_paper`, which holds
/// `portables`, `members` and the pass's cell and portable lists out of
/// the manager while it runs.
impl ResourceManager {
    /// Look at `p`: dispatch it again unless its kept dispatch holds.
    /// `floors_changed`: the network logged `p`'s connections as changed.
    fn look(&mut self, now: SimTime, p: PortableId, t: &mut Tracked, floors_changed: bool) {
        let cell = t.state.cell;
        let mobile = self.statics.list.binary_search(&p).is_err();
        let zone_down = Self::zone_is_down(&self.down_zones, &self.profiles, cell);
        let cell_rev = self.handoffs.epoch(cell);
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
                self.emit_kept(now, p, decision);
            }
            return;
        }
        self.refresh_stats.redispatched += 1;
        let (floors, fresh) = (&mut self.scratch.floors, &mut self.scratch.fresh);
        fresh.clear();
        t.dispatched = if !mobile {
            Some(Dispatched::Static) // B_dyn covers sudden movement of statics
        } else {
            Self::collect_floors(&self.net, floors, p);
            if floors.is_empty() {
                Some(Dispatched::NoFloors)
            } else if zone_down {
                // Stale-profile fallback: the zone's profile server is
                // out, so neither occupancy nor a movement prediction can
                // be read. Reserve the portable's floors probabilistically
                // — spread evenly over all neighbours, the default
                // algorithm's no-history behaviour — rather than not at
                // all.
                self.stale_profile_fallbacks += 1;
                let total: f64 = floors.iter().map(|(_, b)| b).sum();
                Self::spread_evenly(&self.env, cell, total, fresh);
                None
            } else {
                let class = self.env.cell(cell).class;
                // The dispatcher's inputs: kept while nothing they were
                // read from has changed (see `DispatchMemo`); level 2b
                // alone read again when only the cell's history moved
                // under an answer from it; all read afresh — one
                // resolution of zone, server and profiles — otherwise.
                let prev_cell = t.state.prev_cell;
                let kept = match t.memo {
                    Some(kept) if kept.holds_at(cell_rev) => kept,
                    Some(kept) => *t.memo.insert(DispatchMemo {
                        cell_rev,
                        is_occupant: kept.is_occupant,
                        prediction: self.profiles.aggregate_prediction(prev_cell, cell),
                    }),
                    None => {
                        let (is_occupant, prediction) =
                            self.profiles.dispatch_inputs(p, prev_cell, cell);
                        *t.memo.insert(DispatchMemo {
                            cell_rev,
                            is_occupant,
                            prediction,
                        })
                    }
                };
                let (occupant, prediction) = (kept.is_occupant, kept.prediction);
                let decision = decide_traced(class, occupant, prediction, now, p, &mut self.obs);
                if let ReservationDecision::PerConnection(target) = decision {
                    if target != cell {
                        let conn = |&(id, b): &(ConnId, f64)| {
                            (target, ClaimWrite::Set(ResvClaim::Conn(id), b))
                        };
                        fresh.extend(floors.iter().map(conn));
                    }
                }
                Some(Dispatched::Decided(decision))
            }
        };
        self.plans.set_portable_writes(p, &self.scratch.fresh);
    }

    /// Emit a kept decision as the dispatch would have.
    fn emit_kept(&mut self, now: SimTime, p: PortableId, decision: ReservationDecision) {
        #[cfg(test)]
        if self.twin.is(Mutant::KeptDispatchUnemitted) {
            return;
        }
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
    /// Portables whose connections changed, then those whose static
    /// status flipped, since the last refresh or, for the adaptation
    /// round, since the last round; ascending.
    changed: Vec<PortableId>,
    flipped: Vec<PortableId>,
    /// Connections ended since the last round, ascending.
    ended: Vec<ConnId>,
    /// The round's candidate connections, ascending.
    conns: Vec<ConnId>,
    /// Cells whose wireless link was written since the last refresh
    /// (`Network::read_written`).
    written: Vec<CellId>,
    /// The cells whose handoff history moved, being merged; then the
    /// cells the dispatch pass looks at, ascending.
    moved: Vec<CellId>,
    due: Vec<CellId>,
    /// Writes of the baseline strategies, `(cell, write)` in the order
    /// made.
    staged: Vec<(CellId, ClaimWrite)>,
    /// The transition row of the cell whose aggregate demand is being
    /// spread (`CellProfile::aggregate_row_into`), ascending by cell.
    row: Vec<(CellId, f64)>,
    /// Connections of the portable being handed off.
    moving: Vec<ConnId>,
    /// `(portable, connection)` of every branched connection whose
    /// portable settled, for the slot tick's retirement, ascending.
    settled: Vec<(PortableId, ConnId)>,
}

/// The portables static at the last refresh's `now`, kept as they
/// change rather than collected at every refresh (DESIGN §7). A
/// portable's status changes at two kinds of instant only: where
/// `ResourceManager::track` restarts its dwell clock, which takes it out
/// of `list`, and where that dwell reaches `T_th`, which `flips` holds
/// until a refresh reaches it. Each change is logged in `flipped` as it
/// is made. Derived, never snapshotted: the first refresh after `new` or
/// `restore` rebuilds the list and the queue by one scan
/// (`ResourceManager::collect_statics`), as does a refresh at an earlier
/// instant than the last, which may find statics mobile again; a rebuild
/// logs no flip and sets the log's `all`.
#[derive(Debug, Default)]
struct Statics {
    /// The portables static at `at`, ascending.
    list: Vec<PortableId>,
    /// `(entered_at + T_th, p)` of every track whose flip was not yet due
    /// at `at`, ascending. Tracks come in time order and `T_th` is fixed,
    /// so a new entry goes last; only one made after a refresh back in
    /// time can go before others. An entry whose portable was tracked
    /// again since is stale: its instant is no longer the portable's flip.
    flips: VecDeque<(SimTime, PortableId)>,
    /// Portables whose status flipped: each one `keep_statics` added to
    /// `list` and each one `track` took out. Read by the refresh
    /// ([`REFRESH`]) and by the adaptation round ([`ROUND`]).
    flipped: ChangeLog<PortableId, 2>,
    /// The `now` of the last refresh; `None` until the first rebuild.
    at: Option<SimTime>,
}

/// The reader of a two-reader change log that reads at every refresh.
const REFRESH: usize = 0;
/// The reader of a two-reader change log that reads only when an
/// adaptation round runs.
const ROUND: usize = 1;

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
    ///
    /// Shared with every [`ManagerSnapshot`] taken since the last write:
    /// [`snapshot`](Self::snapshot) captures it by a reference count,
    /// and each of the three writers goes through [`Arc::make_mut`],
    /// which copies the profiles only while such a snapshot is still
    /// alive (DESIGN.md §10.2).
    profiles: Arc<ZonedProfiles>,
    cfg: ManagerConfig,
    /// Run metrics.
    pub metrics: Metrics,
    portables: BTreeMap<PortableId, Tracked>,
    /// The cells a handoff was recorded out of. Its epochs stamp
    /// [`DispatchMemo`] and the lounge spreads; the dispatch pass reads
    /// it. Not snapshotted: memos are not either, so a restored manager
    /// starts a new log.
    handoffs: ChangeLog<CellId>,
    /// The booking-calendar policies by cell: every meeting room's from
    /// `new`, any cell's from `set_calendar`.
    meeting_policies: BTreeMap<CellId, MeetingRoomPolicy>,
    cafeteria_pred: BTreeMap<CellId, CafeteriaPredictor>,
    default_pred: BTreeMap<CellId, OneStepMemory>,
    /// Handoffs out of each cell in the current slot.
    slot_outflow: BTreeMap<CellId, u32>,
    /// §4 multicast branches per connection, read through
    /// [`multicast`](Self::multicast).
    multicast: MulticastState,
    /// The excess each cell's wireless link had at the end of the last
    /// adaptation round (`b'_av,l(t⁻)` of eqn 2), indexed by cell;
    /// `None` before the first round. The snapshot keys it by link.
    last_excess: Vec<Option<f64>>,
    /// Adaptation rounds actually run (eqn-2 triggered).
    pub adaptation_rounds: u64,
    /// Resident maxmin engine, read through [`maxmin`](Self::maxmin)
    /// (drivers and tests inspect its work-saved counters). A cache over
    /// `net`, never snapshotted: every round diff-syncs it first, so a
    /// restored manager's empty engine ends its first round holding the
    /// bits a warm one would.
    maxmin: IncrementalMaxmin,
    /// Resident buffers for the adaptation round's conflict resolver.
    /// Pure scratch (cleared before each use), never snapshotted.
    resolve_scratch: arm_qos::conflict::ResolveScratch,
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
    /// Portables static at the last refresh's `now`, and when the mobile
    /// ones turn static: what the dispatch pass, the `B_dyn` pass and the
    /// adaptation round that follows in the same `after_event` read.
    /// Kept by `track` and at the start of every refresh. Derived, never
    /// snapshotted.
    statics: Statics,
    /// Per cell (index = cell): its tracked portables, ascending.
    /// Derived from `portables` by `track`, never snapshotted.
    members: Vec<Vec<PortableId>>,
    /// Cells whose members the next dispatch pass must look at whatever
    /// else holds: a member arrived or turned static, or the zone's
    /// profile server is out. Derived, never snapshotted.
    pend: ChangeLog<CellId>,
    /// `B_dyn`'s kept input: every cell's largest static allocation.
    /// Derived, never snapshotted.
    pools: Pools,
    /// Every lounge's aggregate writes and what they were built from.
    /// Derived, never snapshotted.
    spreads: Spreads,
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
        let lounges = |kind| {
            let cells = env
                .cells()
                .filter(move |(_, c)| c.class == CellClass::Lounge(kind));
            cells.map(|(id, _)| id)
        };
        let room = || MeetingRoomPolicy::new(BookingCalendar::new(), PER_USER_KBPS);
        let meeting_policies = lounges(LoungeKind::MeetingRoom)
            .map(|c| (c, room()))
            .collect();
        let cafeteria = lounges(LoungeKind::Cafeteria).map(|c| (c, CafeteriaPredictor::new()));
        let cafeteria_pred = cafeteria.collect();
        let default_pred = lounges(LoungeKind::Default).map(|c| (c, OneStepMemory::new()));
        let default_pred = default_pred.collect();
        Self::from_snapshot(
            ManagerSnapshot {
                schema: SNAPSHOT_SCHEMA_VERSION,
                net,
                env,
                profiles: Arc::new(profiles),
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
                channel_renegotiations: 0,
                // The backbone star's hub (node 0 by construction).
                server_node: NodeId(0),
                down_links: BTreeSet::new(),
                down_zones: BTreeSet::new(),
                doomed_handoffs: BTreeSet::new(),
                link_failures: 0,
                stale_profile_fallbacks: 0,
                lost_profile_updates: 0,
                handoff_signalling_failures: 0,
            },
            Obs::off(),
        )
    }

    /// The zones and their profile servers, read-only.
    pub fn profiles(&self) -> &ZonedProfiles {
        &self.profiles
    }

    /// The §4 multicast branches, read-only.
    pub fn multicast(&self) -> &MulticastState {
        &self.multicast
    }

    /// The resident maxmin engine, read-only.
    pub fn maxmin(&self) -> &IncrementalMaxmin {
        &self.maxmin
    }

    /// Encode every handoff history's rows recorded since the last call
    /// ([`ZonedProfiles::cache_rows`]), so that the next snapshot's text
    /// copies them: called by a server about to checkpoint. Moves no
    /// decision and no byte of any snapshot.
    pub fn cache_history_rows(&mut self) {
        Arc::make_mut(&mut self.profiles).cache_rows();
    }

    /// What the claim refresh has done since this manager was built or
    /// restored: refreshes run, wireless links re-written and let stand,
    /// portables re-dispatched, portables the static set's keeper looked
    /// at.
    pub fn refresh_stats(&self) -> RefreshStats {
        self.refresh_stats
    }

    /// Every change log's name and [`Traffic`] since this manager was
    /// built or restored: the network's three, then the manager's own
    /// (DESIGN §7.1 tabulates them per event).
    pub fn log_traffic(&self) -> [(&'static str, Traffic); 10] {
        let [changed, ended, written] = self.net.log_traffic();
        [
            changed,
            ended,
            written,
            ("statics.flipped", self.statics.flipped.traffic()),
            ("watch.pend", self.pend.traffic()),
            ("watch.handoffs", self.handoffs.traffic()),
            ("plans.due", self.plans.due.traffic()),
            ("pools.refold", self.pools.refold.traffic()),
            ("pools.repool", self.pools.repool.traffic()),
            ("spreads.restage", self.spreads.restage.traffic()),
        ]
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
        let topo = self.net.topology();
        ManagerSnapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            net: self.net.clone(),
            env: self.env.clone(),
            profiles: Arc::clone(&self.profiles),
            cfg: self.cfg.clone(),
            metrics: self.metrics.clone(),
            portables: self.portables.iter().map(|(p, t)| (*p, t.state)).collect(),
            meeting_policies: self.meeting_policies.clone(),
            cafeteria_pred: self.cafeteria_pred.clone(),
            default_pred: self.default_pred.clone(),
            slot_outflow: self.slot_outflow.clone(),
            multicast: self.multicast.clone(),
            last_excess: self
                .last_excess
                .iter()
                .enumerate()
                .filter_map(|(i, v)| Some((topo.wireless_link(CellId::from_index(i)), (*v)?)))
                .collect(),
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
        Ok(Self::from_snapshot(snap, obs))
    }

    /// A manager holding `snap`'s state, with everything derived from it
    /// built afresh: the body of [`new`](Self::new) and, once the
    /// snapshot is validated, of [`restore`](Self::restore).
    fn from_snapshot(snap: ManagerSnapshot, obs: Obs) -> Self {
        let uplinks = uplink_routes(snap.net.topology(), snap.server_node);
        let branch_legs = neighbor_legs(snap.net.topology(), |c| snap.env.neighbors(c));
        let cells = snap.env.cell_count();
        let portables: BTreeMap<PortableId, Tracked> = snap
            .portables
            .into_iter()
            .map(|(p, state)| (p, Tracked::new(state)))
            .collect();
        let mut members = vec![Vec::new(); cells];
        for (p, t) in &portables {
            if let Some(m) = members.get_mut(t.state.cell.index()) {
                m.push(*p);
            }
        }
        // `validate` refused a key that is no cell's wireless link.
        let mut last_excess = vec![None; cells];
        for (l, excess) in &snap.last_excess {
            let cell = snap.net.topology().link(*l).wireless_cell;
            last_excess[cell.invariant("validated").index()] = Some(*excess);
        }
        let mut manager = ResourceManager {
            handoffs: ChangeLog::dense(cells),
            plans: Plans::new(cells),
            statics: Statics::default(),
            members,
            pend: ChangeLog::dense(cells),
            pools: Pools::new(&snap.env),
            spreads: Spreads::new(cells),
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
            last_excess,
            adaptation_rounds: snap.adaptation_rounds,
            maxmin: IncrementalMaxmin::new(),
            resolve_scratch: arm_qos::conflict::ResolveScratch::default(),
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
        };
        manager.list_spreads();
        manager
    }

    /// Replace a meeting room's booking calendar.
    pub fn set_calendar(&mut self, cell: CellId, calendar: BookingCalendar) {
        let policy = MeetingRoomPolicy::new(calendar, PER_USER_KBPS);
        self.meeting_policies.insert(cell, policy);
        self.list_spreads();
    }

    /// List the lounges' spreads again, in plan order: at construction
    /// and whenever a calendar is set.
    fn list_spreads(&mut self) {
        let rooms = self.meeting_policies.keys();
        let predicted = self.cafeteria_pred.keys().chain(self.default_pred.keys());
        let sources = rooms.chain(predicted).copied();
        self.spreads.list_again(&self.env, sources);
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

    /// Rebuild [`Statics`] at `now` by one scan of every portable: the
    /// static ones into the list, ascending, and each mobile one's flip
    /// into the queue. Run at the first refresh after `new` or
    /// `restore` and at a refresh at an earlier instant than the last —
    /// every other refresh only pops the flips that are due
    /// ([`keep_statics`](Self::keep_statics)) — and, as the reference,
    /// at every refresh of the whole-table twin. It logs no flip and sets
    /// the flip log's `all`, so the refresh and the round after it are
    /// whole.
    fn collect_statics(&mut self, now: SimTime) {
        let (t_th, s) = (self.cfg.t_th, &mut self.statics);
        s.list.clear();
        s.flips.clear();
        s.flipped.set_all();
        for (p, t) in &self.portables {
            if t.state.is_static(t_th, now) {
                s.list.push(*p);
            } else if let Some(flip) = t.state.turns_static_at(t_th) {
                s.flips.push_back((flip, *p));
            }
        }
        s.flips.make_contiguous().sort_unstable();
        s.at = Some(now);
        self.refresh_stats.statics_looked += self.portables.len() as u64;
    }

    /// Bring [`Statics`] from the last refresh's instant to `now`: pop
    /// every flip due by `now`, add its portable to the list and the flip
    /// log and log its cell in `pend`, unless the portable was tracked
    /// again since (the entry is stale: `track` took it out, logged that,
    /// queued its new flip and logged its new cell).
    /// Rebuilds instead when there is no last refresh or `now` is earlier
    /// than it.
    fn keep_statics(&mut self, now: SimTime) {
        if self.statics.at.map_or(true, |at| now < at) {
            return self.collect_statics(now);
        }
        let (t_th, s) = (self.cfg.t_th, &mut self.statics);
        s.at = Some(now);
        while let Some(&(flip, p)) = s.flips.front() {
            if flip > now {
                break;
            }
            s.flips.pop_front();
            self.refresh_stats.statics_looked += 1;
            let tracked = self.portables.get(&p);
            let current = tracked.filter(|t| t.state.turns_static_at(t_th) == Some(flip));
            #[cfg(test)]
            let current = current.or(tracked.filter(|_| self.twin.is(Mutant::StaleFlipHonoured)));
            if let Some(t) = current {
                if sorted_insert(&mut s.list, p) {
                    s.flipped.log(p);
                }
                // The dispatch pass looks at a portable that turned static.
                #[cfg(test)]
                if self.twin.is(Mutant::FlipNotPending) {
                    continue;
                }
                self.pend.log(t.state.cell);
            }
        }
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
        self.net.release_route(id, &self.route_scratch);
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

    /// Would [`apply`](Self::apply) take `ev`? Refuses what an arm would
    /// panic on or silently corrupt state with: an unknown cell, link or
    /// zone; an untracked portable; a move to its own cell; a bad
    /// fraction or rate; a second open connection; a `Terminate` or
    /// `Renegotiate` with no open connection; an `Appear` for a portable
    /// that still holds one. No time-order rule: an event may lie before
    /// the last one (a server keeps its own). Touches nothing.
    pub fn check(&self, ev: &ManagerEvent) -> Result<(), Refused> {
        let topo = self.net.topology();
        let cell_known = |c: CellId| known("cell", c.0, topo.cell_count());
        match *ev {
            ManagerEvent::Appear { portable, cell, .. } => {
                cell_known(cell)?;
                match self.connection_of(portable) {
                    Some(_) => Err(Refused::StillConnected(portable)),
                    None => Ok(()),
                }
            }
            ManagerEvent::Request { portable, qos, .. } => {
                self.cell_of(portable)?;
                check_qos(&qos)?;
                match self.connection_of(portable) {
                    Some(_) => Err(Refused::Connected(portable)),
                    None => Ok(()),
                }
            }
            ManagerEvent::Renegotiate { portable, qos, .. } => {
                self.open_connection(portable)?;
                check_qos(&qos)
            }
            ManagerEvent::Terminate { portable, .. } => self.open_connection(portable).map(drop),
            ManagerEvent::Move { portable, to, .. } => {
                let cell = self.cell_of(portable)?;
                cell_known(to)?;
                if cell == to {
                    return Err(Refused::SameCell(portable, cell));
                }
                Ok(())
            }
            ManagerEvent::ChannelChange { cell, fraction, .. } => {
                cell_known(cell)?;
                if !fraction.is_finite() {
                    return Err(Refused::NonFinite { what: "fraction" });
                }
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(Refused::BadFraction(fraction));
                }
                Ok(())
            }
            ManagerEvent::LinkDown { link, .. } | ManagerEvent::LinkUp { link, .. } => {
                known("link", link.0, topo.link_count())
            }
            // A floor with no zone set still has zone 0.
            ManagerEvent::ProfileServerDown { zone, .. }
            | ManagerEvent::ProfileServerUp { zone, .. } => {
                known("zone", zone.0, self.profiles.zone_count().max(1))
            }
            ManagerEvent::FailNextHandoff { .. } | ManagerEvent::SlotTick { .. } => Ok(()),
        }
    }

    /// [`check`](Self::check) `ev`, then run it. A refused event changes
    /// nothing.
    pub fn apply(&mut self, ev: &ManagerEvent) -> Result<Outcome, Refused> {
        self.check(ev)?;
        let rounds = self.adaptation_rounds;
        let mut decision = Decision::Applied;
        match *ev {
            ManagerEvent::Appear { t, portable, cell } => self.portable_appears(portable, cell, t),
            ManagerEvent::Request { t, portable, qos } => {
                let admitted = self.request_connection(portable, qos, t);
                decision = admitted.map_or_else(Decision::Blocked, Decision::Admitted);
            }
            ManagerEvent::Renegotiate { t, portable, qos } => {
                let id = self.open_connection(portable).invariant("checked");
                let accepted = self.renegotiate(id, qos, t);
                decision = accepted.map_or_else(Decision::Blocked, |()| Decision::Admitted(id));
            }
            ManagerEvent::Terminate { t, portable } => {
                let id = self.open_connection(portable).invariant("checked");
                self.terminate(id, t);
            }
            ManagerEvent::Move { t, portable, to } => {
                let signalling_failed = self.doomed_handoffs.contains(&portable);
                let dropped = self.portable_moved(portable, to, t);
                decision = Decision::Handoff {
                    dropped,
                    signalling_failed,
                };
            }
            ManagerEvent::ChannelChange { t, cell, fraction } => {
                let dropped = self.channel_change(cell, fraction, t).invariant("checked");
                decision = Decision::Faded { dropped };
            }
            ManagerEvent::LinkDown { t, link } => self.link_failed(link, t),
            ManagerEvent::LinkUp { t, link } => self.link_restored(link, t),
            ManagerEvent::ProfileServerDown { t, zone } => self.profile_server_down(zone, t),
            ManagerEvent::ProfileServerUp { t, zone } => self.profile_server_up(zone, t),
            ManagerEvent::FailNextHandoff { portable, .. } => self.fail_next_handoff(portable),
            ManagerEvent::SlotTick { t } => self.slot_tick(t),
        }
        Ok(Outcome {
            decision,
            round_ran: self.adaptation_rounds > rounds,
        })
    }

    /// The cell of a tracked portable.
    fn cell_of(&self, p: PortableId) -> Result<CellId, Refused> {
        self.portable_cell(p).ok_or(Refused::Untracked(p))
    }

    /// The open connection of a tracked portable.
    fn open_connection(&self, p: PortableId) -> Result<ConnId, Refused> {
        self.cell_of(p)?;
        self.connection_of(p).ok_or(Refused::NotConnected(p))
    }

    /// The connection `p` holds, if any: at most one, since
    /// [`check`](Self::check) refuses a second `Request`.
    fn connection_of(&self, p: PortableId) -> Option<ConnId> {
        self.net.conn_ids_of_portable(p).first().copied()
    }

    /// Replace `p`'s tracked state with its entry into `cell` from
    /// `prev_cell` at `now` — the one place an entry is written, so its
    /// memo and kept dispatch go with the old state — and file `p` among
    /// its new cell's `members`, logged in `pend` for the next pass.
    fn track(&mut self, p: PortableId, cell: CellId, prev_cell: Option<CellId>, now: SimTime) {
        let state = PortableState {
            cell,
            prev_cell,
            entered_at: now,
        };
        if let Some(old) = self.portables.insert(p, Tracked::new(state)) {
            #[cfg(test)]
            if self.twin.is(Mutant::MemoCarriedAcrossMove) {
                self.portables.get_mut(&p).invariant("just tracked").memo = old.memo;
            }
            sorted_remove(&mut self.members[old.state.cell.index()], &p);
        }
        // Its dwell clock restarts: mobile until its flip.
        let found = self.statics.list.binary_search(&p).ok();
        #[cfg(test)]
        let found = found.filter(|_| !self.twin.is(Mutant::TrackKeepsStatic));
        if let Some(at) = found {
            self.statics.list.remove(at);
            self.statics.flipped.log(p);
        }
        if let Some(flip) = state.turns_static_at(self.cfg.t_th) {
            let flips = &mut self.statics.flips;
            flips.insert(flips.partition_point(|&(f, _)| f <= flip), (flip, p));
        }
        sorted_insert(&mut self.members[state.cell.index()], p);
        #[cfg(test)]
        if self.twin.is(Mutant::ArrivalNotPending) {
            return;
        }
        self.pend.log(state.cell);
    }

    /// A portable appears (powers on) in a cell: `apply`'s `Appear` arm.
    /// Public for one outside caller, the frozen benchmark's
    /// `adapt_rush` driver; every other driver goes through `apply`.
    pub fn portable_appears(&mut self, p: PortableId, cell: CellId, now: SimTime) {
        self.track(p, cell, None, now);
        if self.zone_down(cell) {
            // The zone's profile server is out: the first-sighting
            // update is lost (the profile stays stale after recovery).
            self.lost_profile_updates += 1;
        } else {
            Arc::make_mut(&mut self.profiles).portable_entered(p, cell);
        }
        if let Some(policy) = self.meeting_policies.get_mut(&cell) {
            policy.on_arrival(now);
        }
        self.refresh_claims(now);
    }

    /// A new-connection request from a tracked portable (§5.1):
    /// `apply`'s `Request` arm. Public for the frozen benchmark's
    /// `adapt_rush` driver alone.
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
            cause: if admitted {
                AdmitCause::Admitted
            } else {
                AdmitCause::Blocked
            },
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
    fn renegotiate(
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
        let set_qos = |net: &mut Network, qos: QosRequest| {
            let c = net.get_mut(id).invariant("checked above");
            c.qos = qos;
            c.b_current = qos.b_min;
        };
        // Release the current reservation, swap in the new bounds.
        self.release_current_route(id);
        set_qos(&mut self.net, new_qos);
        let mobility = self.mobility_class(p, now);
        let outcome = self.admit(id, mobility, RequestKind::New);
        let admitted = outcome.is_ok();
        if admitted {
            self.sync_multicast_for(p, now);
        } else {
            self.metrics.blocked.incr();
            // Restore the previous bounds; the resources were just
            // freed, so re-admission under them cannot fail.
            set_qos(&mut self.net, old_qos);
            self.admit(id, mobility, RequestKind::New)
                .invariant("restoring the previous reservation always fits");
        }
        self.after_event(now);
        let cell = self.net.get(id).map_or(CellId(0), |c| c.cell);
        self.obs.emit_with(|| ObsEvent::AdmitDecision {
            t: now,
            conn: id,
            cell,
            cause: if admitted {
                AdmitCause::RenegotiateAccepted
            } else {
                AdmitCause::RenegotiateRejected
            },
        });
        self.obs.phase_end(Phase::Admission, admit_tok, now);
        outcome
    }

    /// Normal connection teardown: `apply`'s `Terminate` arm. Public for
    /// the frozen benchmark's `adapt_rush` driver alone.
    pub fn terminate(&mut self, id: ConnId, now: SimTime) {
        if self.net.get(id).is_some() {
            self.multicast.teardown(&mut self.net, id);
            self.net.finish(id);
            self.metrics.completed.incr();
            self.after_event(now);
        }
    }

    /// A tracked portable hands off `from → to`: `apply`'s `Move` arm.
    /// Returns the ids of connections dropped in the process. Public for
    /// the frozen benchmark's `adapt_rush` driver alone.
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
            Arc::make_mut(&mut self.profiles).record_handoff(p, state.prev_cell, from, to, now);
            // `from`'s history just changed under every memo read there.
            let moved = Some(from);
            #[cfg(test)]
            let moved = match self.twin {
                Twin::Mutant(Mutant::HandoffBumpsNoRevision) => None,
                Twin::Mutant(Mutant::DestinationRevisionBumped) => Some(to),
                _ => moved,
            };
            if let Some(c) = moved {
                self.handoffs.log(c);
            }
        }
        *self.slot_outflow.entry(from).or_insert(0) += 1;
        // Meeting-room arrival/departure counters.
        if let Some(policy) = self.meeting_policies.get_mut(&to) {
            policy.on_arrival(now);
        }
        if let Some(policy) = self.meeting_policies.get_mut(&from) {
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
        self.track(p, to, Some(from), now);
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
                HandoffCause::Completed
            } else {
                HandoffCause::SignallingFailed
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
    ///
    /// `apply`'s `SlotTick` arm; public for the frozen benchmark's
    /// `adapt_rush` driver alone.
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
    /// `(0, 1]`.
    ///
    /// `apply`'s `ChannelChange` arm; public for the frozen benchmark's
    /// `adapt_rush` driver alone.
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
            let vs = arm_qos::adaptation::renegotiation_victims(&self.net, wl, deficit);
            let Some(&v) = vs.first() else {
                break; // only claims remain; set_claim will cap-release them
            };
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

    /// Report an injected fault to the observer.
    fn fault_injected(&mut self, now: SimTime, fault: Fault) {
        self.obs
            .emit_with(|| ObsEvent::FaultInjected { t: now, fault });
    }

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
    fn link_failed(&mut self, link: LinkId, now: SimTime) {
        if !self.down_links.insert(link) {
            return;
        }
        self.link_failures += 1;
        self.fault_injected(now, Fault::LinkFailed(link));
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
    fn link_restored(&mut self, link: LinkId, now: SimTime) {
        if !self.down_links.remove(&link) {
            return;
        }
        self.fault_injected(now, Fault::LinkRestored(link));
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
    fn profile_server_down(&mut self, zone: ZoneId, now: SimTime) {
        if self.down_zones.insert(zone) {
            self.fault_injected(now, Fault::ProfileServerDown(zone));
            // Its cells are looked at while it is out; each pass that
            // finds one still out logs it again.
            for (c, _) in self.env.cells() {
                if self.profiles.zone_of(c) == zone {
                    self.pend.log(c);
                }
            }
            self.after_event(now);
        }
    }

    /// The zone's profile server recovers (with whatever state it had
    /// when it went down — updates during the outage are lost).
    fn profile_server_up(&mut self, zone: ZoneId, now: SimTime) {
        if self.down_zones.remove(&zone) {
            self.fault_injected(now, Fault::ProfileServerUp(zone));
            self.after_event(now);
        }
    }

    /// The next handoff attempted by `p` loses its signalling: advance
    /// claims cannot be consumed for it and its connections must pass
    /// plain admission at the destination or be dropped.
    fn fail_next_handoff(&mut self, p: PortableId) {
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
        let set_route = |net: &mut Network, route: Route| {
            let c = net.get_mut(id).invariant("live connection");
            c.route = route;
            c.b_current = b_min;
        };
        self.net.release_route(id, &old_route.links);
        set_route(&mut self.net, new_route);
        if self
            .admit(id, MobilityClass::Mobile, RequestKind::Handoff)
            .is_ok()
        {
            return true;
        }
        // The detour has no room. Fall back to the old route — its
        // resources were just freed, so restoring cannot fail — and let
        // the caller squeeze instead.
        set_route(&mut self.net, old_route);
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
            let whole = self.feed_round();
            #[cfg(test)]
            let whole = whole || self.twin.whole_table();
            #[cfg(test)]
            if self.twin.whole_table() {
                self.scratch.conns = self.net.live_connections().map(|c| c.id).collect();
            }
            // Kept by the refresh above, at the same `now`.
            let statics = &self.statics.list;
            let is_static = |p: PortableId| statics.binary_search(&p).is_ok();
            arm_qos::conflict::resolve_network(
                &mut self.net,
                &is_static,
                &self.scratch.conns,
                (!whole).then_some(self.scratch.ended.as_slice()),
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
                });
            }
            // Record the post-round excess as eqn 2's t⁻ state.
            for (c, _) in self.env.cells() {
                let wl = self.net.topology().wireless_link(c);
                self.last_excess[c.index()] = Some(self.net.link(wl).excess_available());
            }
        }
        debug_assert!(self.net.check_invariants().is_ok());
    }

    /// What the adaptation round must look at, read as the [`ROUND`]
    /// reader of the network's logs and of the statics' flip log (DESIGN
    /// §7): `scratch.conns` gets the connections of every portable with a
    /// connection-record write or a static/mobile flip since the last
    /// round, ascending, and `scratch.ended` the connections ended since.
    /// Every other connection is where the last round left it. True when
    /// the round is whole — a log says `all`: the network was built,
    /// decoded or cloned, the statics were rebuilt, or this is the first
    /// round — and then `conns` holds every live connection.
    fn feed_round(&mut self) -> bool {
        let s = &mut self.scratch;
        let whole = self.net.read_changed(ROUND, &mut s.changed)
            | self.net.read_ended(&mut s.ended)
            | self.statics.flipped.read(ROUND, &mut s.flipped);
        #[cfg(test)]
        let whole = whole && !self.twin.is(Mutant::FeedForgetsNewNetwork);
        #[cfg(test)]
        match self.twin {
            Twin::Mutant(Mutant::FlipNotFed) => s.flipped.clear(),
            Twin::Mutant(Mutant::EndedNotFed) => s.ended.clear(),
            Twin::Mutant(Mutant::RoundCursorSkips) if !s.changed.is_empty() => {
                s.changed.remove(0);
            }
            _ => {}
        }
        s.conns.clear();
        if whole {
            s.conns.extend(self.net.live_connections().map(|c| c.id));
        } else {
            for p in s.changed.iter().chain(&s.flipped) {
                s.conns.extend_from_slice(self.net.conn_ids_of_portable(*p));
            }
        }
        s.conns.sort_unstable();
        s.conns.dedup();
        whole
    }

    /// The eqn-2 trigger across all wireless links: shrinkage always
    /// fires; growth fires only when it exceeds δ and some connection on
    /// the link could use it (`M(l) ≠ ∅`).
    fn adaptation_triggered(&self) -> bool {
        use arm_qos::adaptation::{decide, AdaptDecision};
        for (cell, _) in self.env.cells() {
            let wl = self.net.topology().wireless_link(cell);
            let new_excess = self.net.link(wl).excess_available();
            let Some(prev_excess) = self.last_excess[cell.index()] else {
                return true; // first sight of this link
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

    /// Recompute every advance claim from current state: bring every
    /// wireless link's plan — what wiping the claims the manager owns
    /// and re-installing them would write there — up to date where an
    /// input of it changed, then run the one guarded apply step
    /// (`claim_plan::Plans::apply`) over the links that can need it.
    /// The `Channel` claim is the channel monitor's and the `Outage`
    /// claim the fault path's; both model capacity committed elsewhere
    /// and survive the wipe.
    fn refresh_claims(&mut self, now: SimTime) {
        // Read at every refresh, whatever the strategy reads of them.
        let all_changed = self.net.read_changed(REFRESH, &mut self.scratch.changed);
        let all_written = self.net.read_written(&mut self.scratch.written);
        #[cfg(test)]
        if self.twin.is(Mutant::WriteUnlogged) {
            self.scratch.written.clear();
        }
        #[cfg(test)]
        if self.twin.whole_table() {
            self.collect_statics(now);
            return self.reference_refresh_claims(now);
        }
        // The statics are for the dispatch pass, the `B_dyn` pass and the
        // adaptation round `after_event` may run next, at the same `now`.
        self.keep_statics(now);
        let rebuilt = self
            .statics
            .flipped
            .read(REFRESH, &mut self.scratch.flipped);
        let refresh_tok = self.obs.phase_start(now);
        self.refresh_stats.refreshes += 1;
        // Each outage seal is its link's first write: terminations during
        // an outage must not open phantom headroom on a dead link, and a
        // sealed link grants 0 to every claim set after it. A wired link
        // has no plan; its seal is re-tightened here.
        let topo = self.net.topology();
        let wireless = |l: &LinkId| topo.link(*l).wireless_cell;
        self.plans
            .reseal(self.down_links.iter().filter_map(wireless));
        for l in &self.down_links {
            if self.net.topology().link(*l).wireless_cell.is_none() {
                Self::seal_link(&mut self.net, *l);
            }
        }
        match self.cfg.strategy {
            Strategy::None => {}
            Strategy::Paper => self.plan_paper(now, all_changed, all_changed || rebuilt),
            Strategy::BruteForce => self.plan_brute_force(),
            Strategy::Aggregate => self.plan_aggregate(),
            Strategy::StaticFraction(f) => {
                self.scratch.staged.clear();
                for (c, _) in self.env.cells() {
                    let wl = self.net.topology().wireless_link(c);
                    let amount = self.net.link(wl).capacity() * f;
                    let w = ClaimWrite::Set(ResvClaim::Cell(c), amount);
                    self.scratch.staged.push((c, w));
                }
                self.commit_staged();
            }
        }
        self.plans.apply(
            &mut self.net,
            &self.scratch.written,
            all_written,
            &mut self.refresh_stats,
            #[cfg(test)]
            self.twin,
        );
        // What the apply step wrote, each run recorded as its link's
        // last: nothing for the next refresh to look at.
        self.net.read_written(&mut self.scratch.written);
        self.obs.phase_end(Phase::ClaimRefresh, refresh_tok, now);
        debug_assert_eq!(self.refresh_is_exact(), Ok(()), "refresh_is_exact");
    }

    /// What the refresh must have left: every link the apply step did not
    /// look at would have passed the full guard, and under the paper's
    /// strategy every `B_dyn` pool is the one computed from scratch. The
    /// walks the refresh replaces, run in debug builds after every
    /// refresh; a passing check allocates nothing.
    fn refresh_is_exact(&self) -> Result<(), String> {
        self.plans.unlooked_would_stand(&self.net)?;
        match (self.cfg.strategy, self.cfg.dyn_pool) {
            (Strategy::Paper, Some(policy)) => {
                let statics = &self.statics.list;
                self.pools
                    .check(&self.env, &self.net, statics, policy, &self.plans)
            }
            _ => Ok(()),
        }
    }

    /// The paper's strategy: per-portable claims via the §6.4 dispatcher,
    /// lounge aggregate claims via the class policies, plus `B_dyn`.
    ///
    /// The dispatch pass looks at the portables the network logged as
    /// changed and at every member of each due cell, and dispatches again
    /// exactly those whose kept dispatch no longer holds
    /// ([`Tracked::dispatch_holds`]). A cell is due when it was logged in
    /// `pend` or `handoffs` since the last pass; every other portable's
    /// writes stand in the plans from its last dispatch. With an observer
    /// recording, the pass walks every portable in ascending order and
    /// emits each kept decision, so the obs stream is that of a dispatch
    /// per portable. `all_changed` counts every portable's connections
    /// as changed. With `whole` every cell is due: the network is new,
    /// or the statics were rebuilt — at the first refresh, or at one at
    /// an earlier instant than the last, which may find statics mobile
    /// again.
    fn plan_paper(&mut self, now: SimTime, all_changed: bool, whole: bool) {
        let s = &mut self.scratch;
        let whole = self.pend.read(0, &mut s.due) | self.handoffs.read(0, &mut s.moved) || whole;
        if whole {
            s.due.clear();
            s.due
                .extend((0..self.members.len()).map(CellId::from_index));
        } else if !s.moved.is_empty() {
            s.due.extend_from_slice(&s.moved);
            s.due.sort_unstable();
            s.due.dedup();
        }
        // A cell in a zone whose profile server is out is looked at again
        // once the server is back.
        if !self.down_zones.is_empty() {
            for &c in &s.due {
                if Self::zone_is_down(&self.down_zones, &self.profiles, c) {
                    self.pend.log(c);
                }
            }
        }
        let mut portables = std::mem::take(&mut self.portables);
        let members = std::mem::take(&mut self.members);
        let due = std::mem::take(&mut self.scratch.due);
        let changed = std::mem::take(&mut self.scratch.changed);
        // A portable is looked at once: with its due cell, or else for
        // its changed connections.
        let is_due = |c: CellId| due.binary_search(&c).is_ok();
        let is_changed = |p: &PortableId| all_changed || changed.binary_search(p).is_ok();
        if self.obs.is_on() {
            for (p, t) in portables.iter_mut() {
                if is_due(t.state.cell) || is_changed(p) {
                    self.look(now, *p, t, is_changed(p));
                } else if let Some(Dispatched::Decided(decision)) = t.dispatched {
                    self.emit_kept(now, *p, decision);
                }
            }
        } else {
            for c in &due {
                for p in &members[c.index()] {
                    if let Some(t) = portables.get_mut(p) {
                        self.look(now, *p, t, is_changed(p));
                    }
                }
            }
            for p in &changed {
                if let Some(t) = portables.get_mut(p) {
                    if !is_due(t.state.cell) {
                        self.look(now, *p, t, true);
                    }
                }
            }
        }
        self.portables = portables;
        self.members = members;
        self.scratch.due = due;
        self.scratch.changed = changed;
        debug_assert_eq!(self.watch_is_exact(now), Ok(()), "watch_is_exact");
        // Lounge class policies.
        self.plan_lounges(now);
        // B_dyn pools, where a static allocation around them moved.
        if let Some(policy) = self.cfg.dyn_pool {
            let touched = self.scratch.changed.iter().chain(&self.scratch.flipped);
            self.pools.keep(
                &self.env,
                &self.net,
                &self.statics.list,
                touched.copied(),
                &self.scratch.written,
                whole,
                policy,
                &mut self.plans,
                &mut self.refresh_stats,
                #[cfg(test)]
                self.twin,
            );
        }
    }

    /// What the dispatch pass at `now` must have left: every portable it
    /// did not look at (its cell was not due, its connections did not
    /// change) still holds its kept dispatch, `statics` is the static
    /// portables, and each cell's `members` lists exactly its tracked
    /// portables. The scan the pass replaces, run in debug builds after
    /// every pass.
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
        if !statics().eq(self.statics.list.iter().copied()) {
            let statics: Vec<PortableId> = statics().collect();
            return Err(format!(
                "statics {:?}, kept {:?}",
                statics, self.statics.list
            ));
        }
        for (p, t) in &self.portables {
            let cell = t.state.cell;
            if self.members[cell.index()].binary_search(p).is_err() {
                return Err(format!("{p:?} missing from the members of {cell:?}"));
            }
            let looked_at = self.scratch.due.binary_search(&cell).is_ok()
                || self.scratch.changed.binary_search(p).is_ok();
            if looked_at {
                continue;
            }
            let mobile = !t.state.is_static(t_th, now);
            let zone_down = Self::zone_is_down(&self.down_zones, &self.profiles, cell);
            if !t.dispatch_holds(mobile, false, zone_down, self.handoffs.epoch(cell)) {
                return Err(format!("{p:?} needed a dispatch and was not looked at"));
            }
        }
        let watched: usize = self.members.iter().map(Vec::len).sum();
        if watched != self.portables.len() {
            return Err(format!(
                "{watched} watched, {} tracked",
                self.portables.len()
            ));
        }
        Ok(())
    }

    /// Aggregate claims from the lounge policies (meeting calendar,
    /// cafeteria least-squares, default one-step). Every lounge's demand
    /// is read at every refresh — a meeting room's moves with `now` —
    /// and its spread is rebuilt only where the demand bits or the
    /// transition row's stamp moved (`claim_plan::Spreads`).
    fn plan_lounges(&mut self, now: SimTime) {
        // `[own cell, neighbours]`: a meeting room's rules (a) and (b);
        // a cafeteria's or default lounge's predicted outbound handoffs.
        let rooms = self
            .meeting_policies
            .values_mut()
            .map(|policy| [policy.room_demand(now), policy.neighbor_demand(now)]);
        let predicted = self
            .cafeteria_pred
            .values()
            .map(CafeteriaPredictor::predict);
        let predicted = predicted.chain(self.default_pred.values().map(OneStepMemory::predict));
        let demands = rooms.chain(predicted.map(|n| [0.0, n * PER_USER_KBPS]));
        let (env, profiles, row) = (&self.env, &self.profiles, &mut self.scratch.row);
        for (k, demand) in demands.enumerate() {
            let source = self.spreads.source(k);
            let zone_down = Self::zone_is_down(&self.down_zones, profiles, source);
            let stamp = (self.handoffs.epoch(source), zone_down);
            self.spreads.rebuild_if_moved(k, demand, stamp, |out| {
                let [own, spread] = demand;
                if own > 0.0 {
                    out.push((source, ClaimWrite::Set(ResvClaim::Cell(source), own)));
                }
                if spread > 0.0 {
                    Self::spread_to_neighbors(env, profiles, zone_down, row, source, spread, out);
                }
            });
        }
        self.spreads.restage(&mut self.plans);
    }

    /// Split an aggregate demand from `source` over its neighbours by the
    /// profile transition row (even split without history), appending
    /// each neighbour's `Cell(source)` share to `out`. A profile-server
    /// outage (`zone_down`) hides the row, and the spread degrades to the
    /// even split. `row` is the resident buffer the row is read into.
    fn spread_to_neighbors(
        env: &IndoorEnvironment,
        profiles: &ZonedProfiles,
        zone_down: bool,
        row: &mut Vec<(CellId, f64)>,
        source: CellId,
        demand: f64,
        out: &mut Vec<(CellId, ClaimWrite)>,
    ) {
        let neighbors = &env.cell(source).neighbors;
        if neighbors.is_empty() {
            return;
        }
        row.clear();
        if !zone_down {
            if let Some(cp) = profiles.cell(source) {
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
                out.push((*n, ClaimWrite::Add(ResvClaim::Cell(source), amount)));
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

    /// Stage a baseline's writes (`scratch.staged`, in the order made) on
    /// their links and commit every link: a baseline rebuilds every
    /// link's aggregate writes at every refresh.
    fn commit_staged(&mut self) {
        for &(c, w) in &self.scratch.staged {
            self.plans.link(c).stage(w);
        }
        self.plans.commit_all();
    }

    fn plan_brute_force(&mut self) {
        let demands = self.mobile_demands();
        self.scratch.staged.clear();
        for (p, cell) in demands {
            Self::collect_floors(&self.net, &mut self.scratch.floors, p);
            for n in self.env.neighbors(cell) {
                for (id, b) in &self.scratch.floors {
                    let w = ClaimWrite::Set(ResvClaim::Conn(*id), *b);
                    self.scratch.staged.push((n, w));
                }
            }
        }
        self.commit_staged();
    }

    fn plan_aggregate(&mut self) {
        let demands = self.mobile_demands();
        self.scratch.staged.clear();
        for (p, cell) in demands {
            let total: f64 = self
                .net
                .connections_of_portable(p)
                .map(|c| c.qos.b_min)
                .sum();
            if total > 0.0 {
                let zone_down = self.zone_down(cell);
                let (env, profiles, scratch) = (&self.env, &self.profiles, &mut self.scratch);
                let (row, out) = (&mut scratch.row, &mut scratch.staged);
                Self::spread_to_neighbors(env, profiles, zone_down, row, cell, total, out);
            }
        }
        self.commit_staged();
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
