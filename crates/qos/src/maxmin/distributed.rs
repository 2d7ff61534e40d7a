//! The event-driven distributed rate-allocation protocol (§5.3.1).
//!
//! Adapted from Charny/Clark/Jain's explicit-rate congestion-control
//! scheme \[8\], re-cast by the paper as an *event-driven* protocol that
//! initiates adaptation "upon handoffs and dynamically changing network
//! capacities" rather than periodically.
//!
//! Mechanics implemented here, per the paper's description:
//!
//! * every link keeps **recorded rates** (last stamped rate fixed for
//!   each of its connections) and derives its **advertised rate** from
//!   them; the rate quoted *to* a connection is computed "under the
//!   assumption that this switch is a bottleneck for this connection"
//!   (the subject is never classified restricted —
//!   [`advertised_rate_for`](super::advertised::advertised_rate_for)),
//! * a switch detecting a bandwidth change **initiates two ADVERTISE
//!   packets per affected connection** (upstream + downstream); each
//!   carries a **stamped rate** that every link on the path clamps down
//!   to its own advertised rate, and each is forwarded back to the
//!   initiator from the source/destination,
//! * the initiator repeats the round trip — **four round trips** per the
//!   paper's convergence argument — then emits **UPDATE** packets fixing
//!   the connection's rate to the minimum of the two latest returned
//!   stamped rates,
//! * **`M(l)` maintenance**: a link adds the connection to its bottleneck
//!   set when the stamp was clamped at this link (`μ_l < b_stamp`) and
//!   removes it when the stamp arrived already lower (`μ_l > b_stamp`),
//! * **secondary initiations**: when a link's advertised rate moves, it
//!   initiates ADVERTISE processes for other connections — *all* of them
//!   in the [`Variant::Flooding`] base version; only those that can
//!   actually change (the bottlenecked set on upgrades, the
//!   over-consuming set on downgrades) in the [`Variant::Refined`]
//!   version.
//!
//! ## Serialization of adaptation processes
//!
//! The paper equips ADVERTISE packets with "a global ID and a sequence
//! number … to avoid possible infinite loop due to the flooding
//! mechanism", without spelling the mechanism out. We realise that
//! ordering requirement by serialising adaptation processes: one
//! (initiator, connection) session's packets are in flight at a time,
//! and further initiations queue FIFO. In a deterministic simulator this
//! is not merely convenient — fully concurrent sessions can lock into a
//! sustained oscillation (two sessions repeatedly observing each other's
//! optimistic transients at exactly the same virtual instants), which is
//! an artifact no real network with jittered latencies would exhibit.
//! Serialised, the protocol is a Gauss–Seidel iteration on the maxmin
//! fixed point and converges; Theorem 1's claim — convergence to the
//! maxmin optimum in finitely many steps — is asserted against the
//! centralized solver in this module's tests.
//!
//! The protocol is control-plane only: it converges on an excess rate per
//! connection ([`DistributedMaxmin::rates`]), which the caller applies to
//! the ledgers (see `centralized::apply_allocation`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use arm_net::ids::{ConnId, LinkId};
use arm_obs::{ObsEvent, SharedObs};
use arm_sim::engine::{Ctx, Model};
use arm_sim::{Audited, SimDuration, SimRng};

use super::advertised::advertised_rate_for_iter;

/// Rate agreement tolerance: changes smaller than this don't trigger
/// further control traffic (prevents float-noise loops).
const TOL: f64 = 1e-7;

/// Base (flooding) algorithm or the `M(l)`-restricted refinement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// "Essentially floods the network with ADVERTISE packets."
    Flooding,
    /// Initiates only toward connections that can actually change.
    Refined,
}

/// Direction of travel along a connection's route (index order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    /// Toward route index 0 (the source).
    Up,
    /// Toward the last route index (the destination).
    Down,
}

/// Leg of the round trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leg {
    /// Outbound from the initiator toward the end of the route.
    Out,
    /// Bouncing back toward the initiator.
    Back,
}

/// An in-flight control packet.
#[derive(Clone, Debug)]
pub struct Packet {
    conn: ConnId,
    /// Stamped rate (excess kbps).
    stamped: f64,
    /// Index into the connection's link list the packet is delivered at.
    pos: usize,
    dir: Dir,
    leg: Leg,
    origin: LinkId,
    /// Global id of the adaptation process this packet belongs to.
    gid: u64,
    /// Round-trip phase (1–4) the packet belongs to; a retransmitted
    /// round ignores stragglers from the aborted one.
    phase: u32,
    /// Retransmission attempt of that phase the packet was sent in.
    attempt: u32,
    /// The packet has not yet had its fault fate rolled. Faults are
    /// decided once per packet (end-to-end), not per hop, so the loss
    /// probability seen by a round trip is independent of route length.
    fresh: bool,
    is_update: bool,
}

/// Protocol events.
#[derive(Clone, Debug)]
pub enum Ev {
    /// Deliver a control packet to the link at its `pos`.
    Deliver(Packet),
    /// A link's excess capacity changed (wireless fade, handoff,
    /// admission, departure).
    ChangeExcess {
        /// Affected link.
        link: LinkId,
        /// New excess capacity `b'_av,l`.
        excess: f64,
    },
    /// Retransmission timer for one phase attempt of a session. Armed
    /// only when a fault drops one of that attempt's ADVERTISE packets,
    /// so the event never exists in a fault-free run.
    Timeout {
        /// Session the timer guards.
        gid: u64,
        /// Phase the lost packet belonged to.
        phase: u32,
        /// Attempt the lost packet belonged to.
        attempt: u32,
    },
}

/// Seeded control-plane fault state (loss + reordering delay).
#[derive(Clone, Debug)]
struct ControlFaults {
    rng: SimRng,
    loss: f64,
    delay_prob: f64,
}

/// What fault injection decided for one delivery.
enum Fate {
    Deliver,
    Drop,
    Delay(SimDuration),
}

/// Per-link control state.
#[derive(Clone, Debug, Default)]
struct LinkCtl {
    excess: f64,
    conns: BTreeSet<ConnId>,
    /// Last fixed (UPDATEd) stamped rate per connection.
    recorded: BTreeMap<ConnId, f64>,
    /// `M(l)`: connections that consider this link their bottleneck.
    bottleneck_set: BTreeSet<ConnId>,
}

impl LinkCtl {
    /// The rate this link quotes to `subject` (treated as unrestricted).
    /// Allocation-free: the recorded rates are re-walked per fixed-point
    /// round instead of collected, since this runs per packet.
    fn mu_for(&self, subject: ConnId) -> f64 {
        let n_others = self.conns.len() - usize::from(self.conns.contains(&subject));
        advertised_rate_for_iter(self.excess, n_others, || {
            self.conns
                .iter()
                .filter(move |c| **c != subject)
                .map(|c| self.recorded.get(c).copied().unwrap_or(0.0))
        })
    }
}

/// One four-round-trip adaptation process.
#[derive(Clone, Debug)]
struct Session {
    origin: LinkId,
    conn: ConnId,
    phase: u32,
    /// Retransmission attempt of the current phase (0 = original send).
    attempt: u32,
    up_returned: Option<f64>,
    down_returned: Option<f64>,
    gid: u64,
}

/// Per-connection control state.
#[derive(Clone, Debug)]
struct ConnCtl {
    links: Vec<LinkId>,
    demand: f64,
}

/// Counters for the flooding-vs-refined overhead comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// ADVERTISE packet hop deliveries.
    pub advertise_hops: u64,
    /// UPDATE packet hop deliveries.
    pub update_hops: u64,
    /// Adaptation processes run.
    pub sessions: u64,
    /// Control packets killed by fault injection.
    pub(crate) packets_lost: u64,
    /// Control packets given a fault-injected extra delay.
    pub(crate) packets_delayed: u64,
    /// Phase retransmissions after a loss-recovery timeout.
    pub(crate) retransmits: u64,
}

/// The protocol state machine; drive it with [`arm_sim::Engine`].
#[derive(Clone, Debug)]
pub struct DistributedMaxmin {
    variant: Variant,
    hop_latency: SimDuration,
    links: BTreeMap<LinkId, LinkCtl>,
    conns: BTreeMap<ConnId, ConnCtl>,
    /// The one process whose packets are in flight.
    active: Option<Session>,
    /// FIFO of processes waiting their turn (deduplicated).
    pending: VecDeque<(LinkId, ConnId)>,
    /// Sorted mirror of `pending`'s membership — binary-searched for the
    /// dedup test, reusing its capacity instead of churning tree nodes.
    pending_set: Vec<(LinkId, ConnId)>,
    /// A wake-up arrived for the active session; rerun it on completion.
    active_restart: bool,
    /// Source-visible converged excess rate per connection.
    rates: BTreeMap<ConnId, f64>,
    next_gid: u64,
    stats: ProtocolStats,
    /// Fault injection; `None` (the default) leaves every code path and
    /// event sequence bit-identical to the pristine protocol.
    faults: Option<ControlFaults>,
    /// Passive observer; `None` (the default) costs one branch per
    /// packet and never perturbs the protocol.
    obs: Option<SharedObs>,
    /// Resident wake-candidate buffer for [`Self::wake_inconsistent`].
    wake_buf: Vec<ConnId>,
}

impl DistributedMaxmin {
    /// A protocol instance with the given variant and per-hop control
    /// latency.
    pub fn new(variant: Variant, hop_latency: SimDuration) -> Self {
        DistributedMaxmin {
            variant,
            hop_latency,
            links: BTreeMap::new(),
            conns: BTreeMap::new(),
            active: None,
            pending: VecDeque::new(),
            pending_set: Vec::new(),
            active_restart: false,
            rates: BTreeMap::new(),
            next_gid: 0,
            stats: ProtocolStats::default(),
            faults: None,
            obs: None,
            wake_buf: Vec::new(),
        }
    }

    /// Attach a shared observer; ADVERTISE sends and UPDATE receives
    /// are emitted as typed events from then on.
    pub fn attach_obs(&mut self, obs: SharedObs) {
        self.obs = Some(obs);
    }

    /// Install (or retune) seeded control-plane fault injection: each
    /// control packet is independently dropped end-to-end with
    /// probability `loss` and, surviving that, delayed — reordering it
    /// against its peers — with probability `delay_prob`. Lost
    /// ADVERTISE packets are recovered by per-phase retransmission with
    /// capped exponential backoff, so the protocol still converges
    /// under any `loss < 1`. Retuning keeps the existing fault rng
    /// stream so a scenario stays deterministic across windows.
    pub fn set_control_faults(&mut self, seed: u64, loss: f64, delay_prob: f64) {
        let loss = loss.clamp(0.0, 0.999);
        let delay_prob = delay_prob.clamp(0.0, 0.999);
        match &mut self.faults {
            Some(f) => {
                f.loss = loss;
                f.delay_prob = delay_prob;
            }
            None => {
                self.faults = Some(ControlFaults {
                    rng: SimRng::new(seed).split("ctrl-faults"),
                    loss,
                    delay_prob,
                });
            }
        }
    }

    /// Decide a packet's fate under the installed faults. Rolled only
    /// at its first delivery (`fresh`), once per packet.
    fn roll_fault(&mut self, pkt: &Packet) -> Fate {
        let Some(f) = &mut self.faults else {
            return Fate::Deliver;
        };
        if !pkt.fresh {
            return Fate::Deliver;
        }
        if f.loss > 0.0 && f.rng.chance(f.loss) {
            return Fate::Drop;
        }
        if f.delay_prob > 0.0 && f.rng.chance(f.delay_prob) {
            let extra_hops = 1 + f.rng.int_range(0, 3);
            return Fate::Delay(self.hop_latency * extra_hops);
        }
        Fate::Deliver
    }

    /// A fault killed `pkt`. If it was an ADVERTISE of the active
    /// session, arm the recovery timer that will retransmit the phase;
    /// stale packets and UPDATEs (whose recorded rates were already
    /// fixed synchronously) need no recovery.
    fn arm_recovery(&mut self, pkt: &Packet, ctx: &mut Ctx<'_, Ev>) {
        if pkt.is_update {
            return;
        }
        let live = self
            .active
            .as_ref()
            .is_some_and(|s| s.gid == pkt.gid && s.phase == pkt.phase);
        if live {
            ctx.schedule_after(
                self.retransmit_backoff(pkt.conn, pkt.attempt),
                Ev::Timeout {
                    gid: pkt.gid,
                    phase: pkt.phase,
                    attempt: pkt.attempt,
                },
            );
        }
    }

    /// Capped exponential backoff before retransmitting a phase: a
    /// generous round-trip estimate, doubled per attempt up to 2⁵×.
    fn retransmit_backoff(&self, conn: ConnId, attempt: u32) -> SimDuration {
        let hops = self.conns.get(&conn).map_or(1, |c| c.links.len()) as u64;
        let base = self.hop_latency * (2 * hops + 4);
        base.saturating_mul(1u64 << attempt.min(5))
    }

    /// Declare a link and its initial excess capacity.
    pub fn add_link(&mut self, link: LinkId, excess: f64) {
        self.links.entry(link).or_default().excess = excess.max(0.0);
    }

    /// Register a connection with its route (link sequence) and excess
    /// demand `b_max − b_min`. Its initial recorded rate is 0 everywhere.
    pub fn add_conn(&mut self, conn: ConnId, links: Vec<LinkId>, demand: f64) {
        for l in &links {
            let ctl = self.links.entry(*l).or_default();
            ctl.conns.insert(conn);
            ctl.recorded.insert(conn, 0.0);
        }
        self.conns.insert(
            conn,
            ConnCtl {
                links,
                demand: demand.max(0.0),
            },
        );
        self.rates.insert(conn, 0.0);
    }

    /// Converged excess rates (meaningful once the event queue drains).
    pub fn rates(&self) -> &BTreeMap<ConnId, f64> {
        &self.rates
    }

    /// Message/session counters.
    pub fn stats(&self) -> ProtocolStats {
        self.stats
    }

    /// Current `M(l)` of a link.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "kept for the EXPLAIN answer of ROADMAP item 6(b), which decides whether it is read"
        )
    )]
    pub(crate) fn bottleneck_set(&self, link: LinkId) -> Vec<ConnId> {
        self.links
            .get(&link)
            .map(|l| l.bottleneck_set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Is the protocol quiescent (no process active or queued)?
    pub fn is_quiescent(&self) -> bool {
        self.active.is_none() && self.pending.is_empty()
    }

    // ------------------------------------------------------------------
    // Process scheduling
    // ------------------------------------------------------------------

    /// Request an adaptation process for `conn` initiated at `origin`.
    fn request_session(&mut self, origin: LinkId, conn: ConnId, ctx: &mut Ctx<'_, Ev>) {
        let key = (origin, conn);
        if let Some(active) = &self.active {
            if (active.origin, active.conn) == key {
                // Don't disturb the in-flight process; rerun afterwards.
                self.active_restart = true;
                return;
            }
        }
        if let Err(at) = self.pending_set.binary_search(&key) {
            self.pending_set.insert(at, key);
            self.pending.push_back(key);
        }
        self.maybe_activate(ctx);
    }

    /// Start the next queued process if none is active.
    fn maybe_activate(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.active.is_some() {
            return;
        }
        while let Some((origin, conn)) = self.pending.pop_front() {
            if let Ok(at) = self.pending_set.binary_search(&(origin, conn)) {
                self.pending_set.remove(at);
            }
            // Skip stale requests for gone connections or detached pairs.
            let valid = self
                .conns
                .get(&conn)
                .is_some_and(|c| c.links.contains(&origin));
            if !valid {
                continue;
            }
            let gid = self.next_gid;
            self.next_gid += 1;
            self.stats.sessions += 1;
            self.active = Some(Session {
                origin,
                conn,
                phase: 1,
                attempt: 0,
                up_returned: None,
                down_returned: None,
                gid,
            });
            self.active_restart = false;
            self.launch_phase(ctx);
            return;
        }
    }

    /// Send the two ADVERTISE packets of the active session's phase.
    fn launch_phase(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let (origin, conn, gid, phase, attempt) = {
            let s = self.active.as_ref().invariant("launch with active session");
            (s.origin, s.conn, s.gid, s.phase, s.attempt)
        };
        let cctl = self.conns.get(&conn).invariant("validated at activation");
        let pos = cctl
            .links
            .iter()
            .position(|l| *l == origin)
            .invariant("validated at activation");
        let n = cctl.links.len();
        // The initiator stamps its own quote for the connection, capped
        // by the connection's residual demand (the paper's artificial
        // `b_max` entry link).
        let stamped = self.links[&origin].mu_for(conn).min(cctl.demand);
        let up = Packet {
            conn,
            stamped,
            pos,
            dir: Dir::Up,
            leg: if pos == 0 { Leg::Back } else { Leg::Out },
            origin,
            gid,
            phase,
            attempt,
            fresh: true,
            is_update: false,
        };
        let down = Packet {
            conn,
            stamped,
            pos,
            dir: Dir::Down,
            leg: if pos + 1 == n { Leg::Back } else { Leg::Out },
            origin,
            gid,
            phase,
            attempt,
            fresh: true,
            is_update: false,
        };
        ctx.schedule_after(self.hop_latency, Ev::Deliver(up));
        ctx.schedule_after(self.hop_latency, Ev::Deliver(down));
        if let Some(o) = &self.obs {
            let t = ctx.now();
            let mut o = o.borrow_mut();
            // One event per ADVERTISE packet sent (upstream + downstream).
            for _ in 0..2 {
                o.emit_with(|| ObsEvent::AdvertiseSent {
                    t,
                    conn,
                    link: origin,
                    rate_kbps: stamped,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Packet processing
    // ------------------------------------------------------------------

    fn process_advertise(&mut self, mut pkt: Packet, ctx: &mut Ctx<'_, Ev>) {
        self.stats.advertise_hops += 1;
        // Stale packets of finished/cancelled processes are dropped.
        let live = self.active.as_ref().is_some_and(|s| s.gid == pkt.gid);
        if !live {
            self.maybe_activate(ctx);
            return;
        }
        // Borrow only the scalars the hop needs — no per-packet clone of
        // the connection control block.
        let (lid, n, origin_pos) = match self.conns.get(&pkt.conn) {
            Some(c) => (
                c.links[pkt.pos],
                c.links.len(),
                c.links.iter().position(|l| *l == pkt.origin).unwrap_or(0),
            ),
            None => {
                self.maybe_activate(ctx);
                return;
            }
        };
        {
            let ctl = self.links.get_mut(&lid).invariant("link registered");
            let mu = ctl.mu_for(pkt.conn);
            // `M(l)` maintenance: add j if μ_l ≤ b_stamp (this link binds
            // the connection), remove j if μ_l > b_stamp (it is clamped
            // harder elsewhere).
            if mu <= pkt.stamped + TOL {
                ctl.bottleneck_set.insert(pkt.conn);
            } else {
                ctl.bottleneck_set.remove(&pkt.conn);
            }
            // Clamp the stamped rate down to the advertised rate.
            if pkt.stamped >= mu {
                pkt.stamped = mu;
            }
        }
        self.forward(pkt, n, origin_pos, ctx);
    }

    fn forward(&mut self, mut pkt: Packet, n: usize, origin_pos: usize, ctx: &mut Ctx<'_, Ev>) {
        match (pkt.leg, pkt.dir) {
            (Leg::Out, Dir::Up) => {
                if pkt.pos == 0 {
                    // Bounced at the source; head back to the initiator.
                    pkt.leg = Leg::Back;
                    if pkt.pos == origin_pos {
                        self.arrive_back(pkt, ctx);
                    } else {
                        pkt.pos += 1;
                        ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
                    }
                } else {
                    pkt.pos -= 1;
                    ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
                }
            }
            (Leg::Out, Dir::Down) => {
                if pkt.pos + 1 == n {
                    pkt.leg = Leg::Back;
                    if pkt.pos == origin_pos {
                        self.arrive_back(pkt, ctx);
                    } else {
                        pkt.pos -= 1;
                        ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
                    }
                } else {
                    pkt.pos += 1;
                    ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
                }
            }
            (Leg::Back, Dir::Up) => {
                if pkt.pos >= origin_pos {
                    self.arrive_back(pkt, ctx);
                } else {
                    pkt.pos += 1;
                    ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
                }
            }
            (Leg::Back, Dir::Down) => {
                if pkt.pos <= origin_pos {
                    self.arrive_back(pkt, ctx);
                } else {
                    pkt.pos -= 1;
                    ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
                }
            }
        }
    }

    /// A returned ADVERTISE reaches its initiator.
    fn arrive_back(&mut self, pkt: Packet, ctx: &mut Ctx<'_, Ev>) {
        let session = match &mut self.active {
            // Stragglers from an earlier phase or an aborted attempt
            // (possible only under fault injection) are ignored; the
            // retransmitted round supersedes them.
            Some(s) if s.gid == pkt.gid && s.phase == pkt.phase && s.attempt == pkt.attempt => s,
            _ => return,
        };
        match pkt.dir {
            Dir::Up => session.up_returned = Some(pkt.stamped),
            Dir::Down => session.down_returned = Some(pkt.stamped),
        }
        if let (Some(u), Some(d)) = (session.up_returned, session.down_returned) {
            if session.phase < 4 {
                session.phase += 1;
                session.attempt = 0;
                session.up_returned = None;
                session.down_returned = None;
                self.launch_phase(ctx);
            } else {
                let (origin, conn) = (session.origin, session.conn);
                let rate = u.min(d);
                self.active = None;
                self.complete_session(origin, conn, rate, ctx);
            }
        }
    }

    /// Fix the converged rate: update every link's recorded rate, emit
    /// UPDATE packets, wake affected connections, start the next process.
    fn complete_session(&mut self, origin: LinkId, conn: ConnId, rate: f64, ctx: &mut Ctx<'_, Ev>) {
        // Take the route out of the control block for the duration (and
        // restore it below) instead of cloning it. The loops in between
        // touch other connections' blocks only: `wake_inconsistent`
        // excludes `conn` itself from re-requests.
        let links = match self.conns.get_mut(&conn) {
            Some(c) => std::mem::take(&mut c.links),
            None => {
                self.maybe_activate(ctx);
                return;
            }
        };
        let old_rate = self.rates.insert(conn, rate).unwrap_or(0.0);
        // Synchronously fix the recorded rates (the UPDATE packets below
        // carry the same value; any switch receiving UPDATE and ADVERTISE
        // simultaneously acts on the UPDATE first — trivially satisfied).
        let changed = (rate - old_rate).abs() > TOL;
        for l in &links {
            let ctl = self.links.get_mut(l).invariant("link registered");
            ctl.recorded.insert(conn, rate);
        }
        if changed {
            // UPDATE packets for accounting and latency realism.
            self.send_updates(origin, conn, rate, &links, ctx);
            // Wake-ups per the variant's policy on every link the rate
            // change touched.
            for l in &links {
                self.wake_inconsistent(*l, Some(conn), ctx);
            }
        }
        // Restore the route before anything re-inspects this connection.
        let demand = {
            let c = self.conns.get_mut(&conn).invariant("not removed above");
            c.links = links;
            c.demand
        };
        // Honour wake-ups that arrived while this process was in flight.
        if self.active_restart {
            self.active_restart = false;
            let want = self.links[&origin].mu_for(conn).min(demand);
            if (rate - want).abs() > TOL {
                self.request_session(origin, conn, ctx);
            }
        }
        self.maybe_activate(ctx);
    }

    /// Initiate processes toward the connections at `lid` the variant's
    /// policy selects after a state change there: all of them under
    /// flooding; under the refinement only those whose rate can actually
    /// change — the bottlenecked set that could take more (the paper's
    /// `M(l)` upgrade targets) and the over-consumers that must shrink.
    fn wake_inconsistent(&mut self, lid: LinkId, exclude: Option<ConnId>, ctx: &mut Ctx<'_, Ev>) {
        // The candidate list is staged in a resident buffer (taken out of
        // `self` so `request_session(&mut self)` can run per candidate);
        // its capacity survives across calls, so the steady-state wake
        // path allocates nothing.
        let mut candidates = std::mem::take(&mut self.wake_buf);
        candidates.clear();
        if let Some(ctl) = self.links.get(&lid) {
            match self.variant {
                Variant::Flooding => candidates.extend(ctl.conns.iter().copied()),
                Variant::Refined => candidates.extend(
                    ctl.conns
                        .iter()
                        .filter(|c| {
                            let r = ctl.recorded.get(c).copied().unwrap_or(0.0);
                            let demand = self.conns.get(c).map_or(0.0, |cc| cc.demand);
                            let mu = ctl.mu_for(**c);
                            (r < mu - TOL && r < demand - TOL) || r > mu + TOL
                        })
                        .copied(),
                ),
            }
        }
        for t in candidates.iter().copied() {
            if Some(t) != exclude {
                self.request_session(lid, t, ctx);
            }
        }
        self.wake_buf = candidates;
    }

    /// Emit UPDATE packets fixing `conn`'s rate along its whole route
    /// (`links`, passed by the caller who already holds it).
    fn send_updates(
        &mut self,
        origin: LinkId,
        conn: ConnId,
        rate: f64,
        links: &[LinkId],
        ctx: &mut Ctx<'_, Ev>,
    ) {
        let Some(pos) = links.iter().position(|l| *l == origin) else {
            return;
        };
        let gid = self.next_gid;
        self.next_gid += 1;
        let n = links.len();
        if pos > 0 {
            ctx.schedule_after(
                self.hop_latency,
                Ev::Deliver(Packet {
                    conn,
                    stamped: rate,
                    pos: pos - 1,
                    dir: Dir::Up,
                    leg: Leg::Out,
                    origin,
                    gid,
                    phase: 0,
                    attempt: 0,
                    fresh: true,
                    is_update: true,
                }),
            );
        }
        if pos + 1 < n {
            ctx.schedule_after(
                self.hop_latency,
                Ev::Deliver(Packet {
                    conn,
                    stamped: rate,
                    pos: pos + 1,
                    dir: Dir::Down,
                    leg: Leg::Out,
                    origin,
                    gid,
                    phase: 0,
                    attempt: 0,
                    fresh: true,
                    is_update: true,
                }),
            );
        }
    }

    fn process_update(&mut self, mut pkt: Packet, ctx: &mut Ctx<'_, Ev>) {
        self.stats.update_hops += 1;
        // Only the link at the packet's position and the route length are
        // needed — borrow, don't clone.
        let (lid, n) = match self.conns.get(&pkt.conn) {
            Some(c) => (c.links[pkt.pos], c.links.len()),
            None => return,
        };
        if let Some(o) = &self.obs {
            let t = ctx.now();
            o.borrow_mut().emit_with(|| ObsEvent::UpdateRecv {
                t,
                conn: pkt.conn,
                link: lid,
                rate_kbps: pkt.stamped,
            });
        }
        // Recording is idempotent (complete_session already fixed it);
        // the packet exists for overhead accounting and latency realism.
        if let Some(ctl) = self.links.get_mut(&lid) {
            ctl.recorded.insert(pkt.conn, pkt.stamped);
        }
        match pkt.dir {
            Dir::Up if pkt.pos > 0 => {
                pkt.pos -= 1;
                ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
            }
            Dir::Down if pkt.pos + 1 < n => {
                pkt.pos += 1;
                ctx.schedule_after(self.hop_latency, Ev::Deliver(pkt));
            }
            _ => {}
        }
    }
}

impl Model for DistributedMaxmin {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Deliver(mut pkt) => {
                match self.roll_fault(&pkt) {
                    Fate::Drop => {
                        self.stats.packets_lost += 1;
                        if let Some(o) = &self.obs {
                            let t = ctx.now();
                            o.borrow_mut().emit_with(|| ObsEvent::FaultInjected {
                                t,
                                fault: arm_obs::Fault::ControlPacketLost,
                            });
                        }
                        self.arm_recovery(&pkt, ctx);
                        return;
                    }
                    Fate::Delay(extra) => {
                        self.stats.packets_delayed += 1;
                        pkt.fresh = false;
                        ctx.schedule_after(extra, Ev::Deliver(pkt));
                        return;
                    }
                    Fate::Deliver => {}
                }
                pkt.fresh = false;
                if pkt.is_update {
                    self.process_update(pkt, ctx);
                } else {
                    self.process_advertise(pkt, ctx);
                }
            }
            Ev::Timeout {
                gid,
                phase,
                attempt,
            } => {
                let stalled = self
                    .active
                    .as_ref()
                    .is_some_and(|s| s.gid == gid && s.phase == phase && s.attempt == attempt);
                if stalled {
                    let s = self.active.as_mut().invariant("checked above");
                    s.attempt += 1;
                    s.up_returned = None;
                    s.down_returned = None;
                    self.stats.retransmits += 1;
                    self.launch_phase(ctx);
                }
            }
            Ev::ChangeExcess { link, excess } => {
                {
                    let ctl = self.links.entry(link).or_default();
                    ctl.excess = excess.max(0.0);
                }
                self.wake_inconsistent(link, None, ctx);
                self.maybe_activate(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::centralized::{ConnDemand, MaxminProblem};
    use arm_sim::{Engine, SimTime};

    fn lid(i: u32) -> LinkId {
        LinkId(i)
    }
    fn cid(i: u32) -> ConnId {
        ConnId(i)
    }

    /// Build protocol + reference problem from the same description, fire
    /// ChangeExcess on every link at t=0, run to quiescence, and compare.
    fn run_and_compare(
        variant: Variant,
        links: &[(u32, f64)],
        conns: &[(u32, f64, &[u32])],
    ) -> (BTreeMap<ConnId, f64>, ProtocolStats) {
        let mut proto = DistributedMaxmin::new(variant, SimDuration::from_millis(1));
        let mut problem = MaxminProblem::default();
        for (l, cap) in links {
            proto.add_link(lid(*l), *cap);
            problem.link_excess.insert(lid(*l), *cap);
        }
        for (c, demand, ls) in conns {
            let route: Vec<LinkId> = ls.iter().map(|l| lid(*l)).collect();
            proto.add_conn(cid(*c), route.clone(), *demand);
            problem.conns.insert(
                cid(*c),
                ConnDemand {
                    demand: *demand,
                    links: route,
                },
            );
        }
        let mut engine = Engine::new(proto).with_event_budget(2_000_000);
        for (l, cap) in links {
            engine.schedule_at(
                SimTime::ZERO,
                Ev::ChangeExcess {
                    link: lid(*l),
                    excess: *cap,
                },
            );
        }
        let stop = engine.run();
        assert_eq!(
            stop,
            arm_sim::StopCondition::QueueEmpty,
            "protocol quiesces"
        );
        assert!(engine.model().is_quiescent());
        let expect = problem.solve();
        let got = engine.model().rates().clone();
        for (c, x) in &expect {
            let g = got.get(c).copied().unwrap_or(0.0);
            assert!(
                (g - x).abs() < 1e-6,
                "{variant:?}: {c:?} got {g}, want {x}\nall: {got:?}\nexpect: {expect:?}"
            );
        }
        (got, engine.model().stats())
    }

    #[test]
    fn single_link_even_split_converges() {
        for v in [Variant::Flooding, Variant::Refined] {
            run_and_compare(
                v,
                &[(0, 30.0)],
                &[(0, 100.0, &[0]), (1, 100.0, &[0]), (2, 100.0, &[0])],
            );
        }
    }

    #[test]
    fn finite_demands_respected() {
        for v in [Variant::Flooding, Variant::Refined] {
            run_and_compare(
                v,
                &[(0, 30.0)],
                &[(0, 4.0, &[0]), (1, 100.0, &[0]), (2, 100.0, &[0])],
            );
        }
    }

    #[test]
    fn classic_two_link_chain_converges() {
        for v in [Variant::Flooding, Variant::Refined] {
            run_and_compare(
                v,
                &[(0, 10.0), (1, 4.0)],
                &[(0, 100.0, &[0, 1]), (1, 100.0, &[0]), (2, 100.0, &[1])],
            );
        }
    }

    #[test]
    fn three_link_mesh_converges() {
        for v in [Variant::Flooding, Variant::Refined] {
            run_and_compare(
                v,
                &[(0, 12.0), (1, 6.0), (2, 9.0)],
                &[
                    (0, 100.0, &[0, 1, 2]),
                    (1, 100.0, &[0]),
                    (2, 100.0, &[1]),
                    (3, 100.0, &[2]),
                ],
            );
        }
    }

    #[test]
    fn five_link_parking_lot_converges() {
        // The classic parking-lot topology that exercises bottleneck
        // hierarchies: one long flow over all links plus one cross flow
        // per link, with mixed capacities and finite demands.
        for v in [Variant::Flooding, Variant::Refined] {
            run_and_compare(
                v,
                &[(0, 20.0), (1, 7.0), (2, 15.0), (3, 9.0), (4, 30.0)],
                &[
                    (0, 100.0, &[0, 1, 2, 3, 4]),
                    (1, 100.0, &[0]),
                    (2, 2.0, &[1]),
                    (3, 100.0, &[2]),
                    (4, 100.0, &[3]),
                    (5, 6.0, &[4]),
                ],
            );
        }
    }

    #[test]
    fn refined_variant_uses_fewer_messages() {
        let mesh_links: &[(u32, f64)] = &[(0, 12.0), (1, 6.0), (2, 9.0), (3, 20.0)];
        let mesh_conns: &[(u32, f64, &[u32])] = &[
            (0, 100.0, &[0, 1, 2, 3]),
            (1, 100.0, &[0, 1]),
            (2, 100.0, &[1, 2]),
            (3, 100.0, &[2, 3]),
            (4, 100.0, &[0]),
            (5, 100.0, &[3]),
        ];
        let (_, flood) = run_and_compare(Variant::Flooding, mesh_links, mesh_conns);
        let (_, refined) = run_and_compare(Variant::Refined, mesh_links, mesh_conns);
        assert!(
            refined.advertise_hops <= flood.advertise_hops,
            "refined {refined:?} should not exceed flooding {flood:?}"
        );
        assert!(refined.sessions <= flood.sessions);
    }

    #[test]
    fn capacity_increase_after_steady_state_upgrades() {
        let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
        proto.add_link(lid(0), 10.0);
        proto.add_conn(cid(0), vec![lid(0)], 100.0);
        proto.add_conn(cid(1), vec![lid(0)], 100.0);
        let mut engine = Engine::new(proto).with_event_budget(1_000_000);
        engine.schedule_at(
            SimTime::ZERO,
            Ev::ChangeExcess {
                link: lid(0),
                excess: 10.0,
            },
        );
        engine.run();
        assert!((engine.model().rates()[&cid(0)] - 5.0).abs() < 1e-6);
        engine.schedule_at(
            engine.now(),
            Ev::ChangeExcess {
                link: lid(0),
                excess: 30.0,
            },
        );
        engine.run();
        assert!(
            (engine.model().rates()[&cid(0)] - 15.0).abs() < 1e-6,
            "rates: {:?}",
            engine.model().rates()
        );
        assert!((engine.model().rates()[&cid(1)] - 15.0).abs() < 1e-6);
    }

    #[test]
    fn capacity_decrease_after_steady_state_downgrades() {
        let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
        proto.add_link(lid(0), 30.0);
        proto.add_conn(cid(0), vec![lid(0)], 100.0);
        proto.add_conn(cid(1), vec![lid(0)], 100.0);
        let mut engine = Engine::new(proto).with_event_budget(1_000_000);
        engine.schedule_at(
            SimTime::ZERO,
            Ev::ChangeExcess {
                link: lid(0),
                excess: 30.0,
            },
        );
        engine.run();
        engine.schedule_at(
            engine.now(),
            Ev::ChangeExcess {
                link: lid(0),
                excess: 8.0,
            },
        );
        engine.run();
        assert!((engine.model().rates()[&cid(0)] - 4.0).abs() < 1e-6);
        assert!((engine.model().rates()[&cid(1)] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn bottleneck_sets_identify_the_binding_link() {
        let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
        proto.add_link(lid(0), 12.0);
        proto.add_link(lid(1), 4.0);
        proto.add_conn(cid(0), vec![lid(0), lid(1)], 100.0);
        proto.add_conn(cid(1), vec![lid(0)], 5.0);
        proto.add_conn(cid(2), vec![lid(1)], 100.0);
        let mut engine = Engine::new(proto).with_event_budget(1_000_000);
        for (l, e) in [(0, 12.0), (1, 4.0)] {
            engine.schedule_at(
                SimTime::ZERO,
                Ev::ChangeExcess {
                    link: lid(l),
                    excess: e,
                },
            );
        }
        engine.run();
        // Conn 0's bottleneck is link 1 (it gets 2 there; link 0 would
        // quote it 7).
        assert!(engine.model().bottleneck_set(lid(1)).contains(&cid(0)));
        assert!(!engine.model().bottleneck_set(lid(0)).contains(&cid(0)));
    }

    #[test]
    fn four_round_trips_per_session() {
        // One conn, one link: a session is 4 phases × 2 packets × 1 hop.
        let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
        proto.add_link(lid(0), 10.0);
        proto.add_conn(cid(0), vec![lid(0)], 100.0);
        let mut engine = Engine::new(proto).with_event_budget(10_000);
        engine.schedule_at(
            SimTime::ZERO,
            Ev::ChangeExcess {
                link: lid(0),
                excess: 10.0,
            },
        );
        engine.run();
        let stats = engine.model().stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.advertise_hops, 8);
        assert!((engine.model().rates()[&cid(0)] - 10.0).abs() < 1e-9);
    }

    /// Like [`run_and_compare`] but with control-plane faults installed,
    /// verifying Theorem 1 survives loss and reordering.
    fn run_lossy_and_compare(
        variant: Variant,
        seed: u64,
        loss: f64,
        delay_prob: f64,
        links: &[(u32, f64)],
        conns: &[(u32, f64, &[u32])],
    ) -> ProtocolStats {
        let mut proto = DistributedMaxmin::new(variant, SimDuration::from_millis(1));
        proto.set_control_faults(seed, loss, delay_prob);
        let mut problem = MaxminProblem::default();
        for (l, cap) in links {
            proto.add_link(lid(*l), *cap);
            problem.link_excess.insert(lid(*l), *cap);
        }
        for (c, demand, ls) in conns {
            let route: Vec<LinkId> = ls.iter().map(|l| lid(*l)).collect();
            proto.add_conn(cid(*c), route.clone(), *demand);
            problem.conns.insert(
                cid(*c),
                ConnDemand {
                    demand: *demand,
                    links: route,
                },
            );
        }
        let mut engine = Engine::new(proto).with_event_budget(5_000_000);
        for (l, cap) in links {
            engine.schedule_at(
                SimTime::ZERO,
                Ev::ChangeExcess {
                    link: lid(*l),
                    excess: *cap,
                },
            );
        }
        let stop = engine.run();
        assert_eq!(
            stop,
            arm_sim::StopCondition::QueueEmpty,
            "lossy protocol quiesces (seed {seed}, loss {loss})"
        );
        assert!(engine.model().is_quiescent());
        let expect = problem.solve();
        let got = engine.model().rates().clone();
        for (c, x) in &expect {
            let g = got.get(c).copied().unwrap_or(0.0);
            assert!(
                (g - x).abs() < 1e-6,
                "seed {seed} loss {loss}: {c:?} got {g}, want {x}\nall: {got:?}"
            );
        }
        engine.model().stats()
    }

    #[test]
    fn lossy_parking_lot_converges_to_oracle() {
        let links: &[(u32, f64)] = &[(0, 20.0), (1, 7.0), (2, 15.0), (3, 9.0), (4, 30.0)];
        let conns: &[(u32, f64, &[u32])] = &[
            (0, 100.0, &[0, 1, 2, 3, 4]),
            (1, 100.0, &[0]),
            (2, 2.0, &[1]),
            (3, 100.0, &[2]),
            (4, 100.0, &[3]),
            (5, 6.0, &[4]),
        ];
        for seed in 0..8 {
            for v in [Variant::Flooding, Variant::Refined] {
                run_lossy_and_compare(v, seed, 0.3, 0.3, links, conns);
            }
        }
    }

    #[test]
    fn heavy_loss_still_converges() {
        let links: &[(u32, f64)] = &[(0, 10.0), (1, 4.0)];
        let conns: &[(u32, f64, &[u32])] =
            &[(0, 100.0, &[0, 1]), (1, 100.0, &[0]), (2, 100.0, &[1])];
        for seed in 0..4 {
            let stats = run_lossy_and_compare(Variant::Refined, seed, 0.7, 0.5, links, conns);
            assert!(
                stats.packets_lost > 0,
                "70% loss must actually drop packets"
            );
            assert!(stats.retransmits > 0, "drops must force retransmissions");
        }
    }

    #[test]
    fn zero_probability_faults_change_nothing() {
        // Installing the hook with p=0 must not perturb the event
        // sequence: the rng is only consulted for non-zero probabilities.
        let links: &[(u32, f64)] = &[(0, 12.0), (1, 6.0), (2, 9.0)];
        let conns: &[(u32, f64, &[u32])] = &[
            (0, 100.0, &[0, 1, 2]),
            (1, 100.0, &[0]),
            (2, 100.0, &[1]),
            (3, 100.0, &[2]),
        ];
        let (rates, stats) = run_and_compare(Variant::Refined, links, conns);
        let lossless = run_lossy_and_compare(Variant::Refined, 99, 0.0, 0.0, links, conns);
        assert_eq!(lossless.advertise_hops, stats.advertise_hops);
        assert_eq!(lossless.sessions, stats.sessions);
        assert_eq!(lossless.packets_lost, 0);
        assert_eq!(lossless.retransmits, 0);
        let _ = rates;
    }

    #[test]
    fn clearing_faults_mid_run_drains_cleanly() {
        let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
        proto.set_control_faults(5, 0.5, 0.5);
        proto.add_link(lid(0), 10.0);
        proto.add_conn(cid(0), vec![lid(0)], 100.0);
        proto.add_conn(cid(1), vec![lid(0)], 100.0);
        let mut engine = Engine::new(proto).with_event_budget(1_000_000);
        engine.schedule_at(
            SimTime::ZERO,
            Ev::ChangeExcess {
                link: lid(0),
                excess: 10.0,
            },
        );
        engine.run();
        // Retuning to zero loss and delay clears the faults.
        engine.model_mut().set_control_faults(5, 0.0, 0.0);
        engine.schedule_at(
            engine.now(),
            Ev::ChangeExcess {
                link: lid(0),
                excess: 24.0,
            },
        );
        let stop = engine.run();
        assert_eq!(stop, arm_sim::StopCondition::QueueEmpty);
        assert!((engine.model().rates()[&cid(0)] - 12.0).abs() < 1e-6);
        assert!((engine.model().rates()[&cid(1)] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn quiescent_protocol_stays_quiescent() {
        // Re-firing an unchanged excess produces no further sessions in
        // the refined variant (nothing can change).
        let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
        proto.add_link(lid(0), 10.0);
        proto.add_conn(cid(0), vec![lid(0)], 100.0);
        let mut engine = Engine::new(proto).with_event_budget(10_000);
        engine.schedule_at(
            SimTime::ZERO,
            Ev::ChangeExcess {
                link: lid(0),
                excess: 10.0,
            },
        );
        engine.run();
        let sessions_before = engine.model().stats().sessions;
        engine.schedule_at(
            engine.now(),
            Ev::ChangeExcess {
                link: lid(0),
                excess: 10.0,
            },
        );
        engine.run();
        assert_eq!(engine.model().stats().sessions, sessions_before);
    }
}
