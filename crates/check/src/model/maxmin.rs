//! Explicit transition system of the distributed maxmin protocol.
//!
//! A faithful re-statement of `arm_qos::maxmin::distributed` — the
//! serialized ADVERTISE/UPDATE explicit-rate protocol (§5.3.1, after
//! Charny's ABR allocation scheme) — with its nondeterminism reified as
//! checker actions:
//!
//! * the interleaving of the two ADVERTISE packets' hop deliveries
//!   within a phase,
//! * the arrival order of the initial `ChangeExcess` events,
//! * bounded control-plane loss (PR 1's fault hooks): any in-flight
//!   ADVERTISE may be dropped while the loss budget lasts, recovered by
//!   the phase-retransmission timer.
//!
//! Deterministic protocol machinery — phase advancement after both
//! packets return, session completion, the refined wake policy, FIFO
//! activation — is folded into action application (`MaxminSystem::settle`), so the
//! state space contains exactly the schedules a real deployment could
//! exhibit.
//!
//! The advertised-rate quote reuses the *production* fixed-point kernel
//! [`advertised_rate_for_iter`], and convergence is judged against the
//! *production* centralized solver [`MaxminProblem::solve`] — the model
//! abstracts time, not arithmetic.
//!
//! Properties:
//! * **invariant** — sessions never exceed 4 phases (Theorem 1's
//!   four-round-trip argument, structurally), rates stay finite and
//!   non-negative (the `b_min` floor in excess-rate space), and the
//!   session count stays bounded (livelock detection);
//! * **at quiescence** — the converged rates equal the centralized
//!   maxmin optimum, and every link's recorded rates sum to at most its
//!   excess capacity (ledger conservation).
//!
//! [`advertised_rate_for_iter`]: arm_qos::maxmin::advertised::advertised_rate_for_iter
//! [`MaxminProblem::solve`]: arm_qos::maxmin::centralized::MaxminProblem

use std::collections::BTreeMap;

use arm_net::ids::{ConnId, LinkId};
use arm_qos::maxmin::advertised::advertised_rate_for_iter;
use arm_qos::maxmin::centralized::{ConnDemand, MaxminProblem};

use super::TransitionSystem;

/// Rate agreement tolerance, mirroring the production protocol.
const TOL: f64 = 1e-7;

/// Known-bad protocol variants the checker must catch (see module docs
/// of [`super`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaxminMutant {
    /// The correct protocol.
    #[default]
    None,
    /// The UPDATE handler skips the recorded-rate/bottleneck-set
    /// recomputation on every link except the initiator's: downstream
    /// switches keep quoting from stale recorded rates, so the network
    /// either converges to a non-maxmin allocation, overcommits a link,
    /// or livelocks re-adapting. Theorem 1's proof leans exactly on
    /// this recomputation.
    SkipUpdateRecompute,
}

/// An f64 rate with total order and exact equality, so protocol states
/// are `Ord` keys. All rates here are finite and non-negative, where
/// bit order equals numeric order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct R(u64);

impl R {
    fn new(x: f64) -> Self {
        debug_assert!(
            x.is_finite() && x >= 0.0,
            "precondition: rate {x} must be finite and non-negative"
        );
        R(x.to_bits())
    }
    fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl std::fmt::Debug for R {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Which way a packet travels along the route (index order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Dir {
    /// Toward route index 0.
    Up,
    /// Toward the last route index.
    Down,
}

/// Outbound toward the route end, or bouncing back to the initiator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Leg {
    Out,
    Back,
}

/// One of the session's two ADVERTISE packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Pkt {
    /// In flight: next delivery at route position `pos`.
    Flight { pos: u8, leg: Leg, stamped: R },
    /// Returned to the initiator carrying its final stamp.
    Returned(R),
    /// Killed by fault injection; awaits the retransmission timer.
    Dropped,
}

/// The active four-round-trip adaptation process.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Sess {
    origin: u8,
    conn: u8,
    phase: u8,
    up: Pkt,
    down: Pkt,
}

/// Full protocol state (everything mutable; topology lives in
/// [`MaxminSystem`]).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct St {
    /// Current excess per link (0 until its `ChangeExcess` fires).
    excess: Vec<R>,
    /// Initial `ChangeExcess` events not yet delivered.
    unfired: Vec<bool>,
    /// Recorded (last UPDATEd) rate per `[link][conn]`.
    recorded: Vec<Vec<R>>,
    /// Bottleneck set `M(l)` per link, as a conn bitmask.
    bottleneck: Vec<u8>,
    /// Source-visible converged excess rate per connection.
    rates: Vec<R>,
    active: Option<Sess>,
    /// FIFO of queued (origin, conn) processes, deduplicated.
    pending: Vec<(u8, u8)>,
    /// A wake-up arrived for the active session; rerun on completion.
    active_restart: bool,
    /// Adaptation processes run so far (livelock bound).
    sessions: u16,
    /// Remaining fault-injection drops.
    losses_left: u8,
}

/// A ≤3-link / ≤4-connection instance of the distributed maxmin
/// protocol plus checker configuration.
#[derive(Clone, Debug)]
pub struct MaxminSystem {
    /// Final excess capacity per link (delivered by `ChangeExcess`).
    pub link_excess: Vec<f64>,
    /// Route (link indices) per connection.
    pub routes: Vec<Vec<u8>>,
    /// Excess demand `b_max − b_min` per connection.
    pub demands: Vec<f64>,
    /// Total ADVERTISE drops the checker may inject.
    pub loss_budget: u8,
    /// Sessions allowed before declaring livelock.
    pub max_sessions: u16,
    /// Seeded fault, if any.
    pub mutant: MaxminMutant,
}

impl MaxminSystem {
    /// A well-formed instance with sane defaults (no loss, no mutant).
    pub fn new(link_excess: Vec<f64>, routes: Vec<Vec<u8>>, demands: Vec<f64>) -> Self {
        assert!(link_excess.len() <= 3, "precondition: at most 3 links");
        assert!(routes.len() <= 4, "precondition: at most 4 connections");
        assert_eq!(routes.len(), demands.len());
        for r in &routes {
            assert!(!r.is_empty(), "precondition: routes must be non-empty");
            for l in r {
                assert!((*l as usize) < link_excess.len());
            }
        }
        MaxminSystem {
            link_excess,
            routes,
            demands,
            loss_budget: 0,
            max_sessions: 200,
            mutant: MaxminMutant::None,
        }
    }

    /// Checker-injected control-plane loss (bounded).
    pub fn with_loss_budget(mut self, drops: u8) -> Self {
        self.loss_budget = drops;
        self
    }

    /// Install a known-bad handler variant.
    pub fn with_mutant(mut self, m: MaxminMutant) -> Self {
        self.mutant = m;
        self
    }

    fn n_links(&self) -> usize {
        self.link_excess.len()
    }

    fn n_conns(&self) -> usize {
        self.routes.len()
    }

    /// Connections traversing link `l`.
    fn conns_on(&self, l: u8) -> impl Iterator<Item = u8> + '_ {
        (0..self.n_conns() as u8).filter(move |c| self.routes[*c as usize].contains(&l))
    }

    /// The rate link `l` quotes to `subject` — the production
    /// advertised-rate kernel over the model's recorded rates, with the
    /// subject never classified restricted.
    fn mu_for(&self, st: &St, l: u8, subject: u8) -> f64 {
        let others = || {
            self.conns_on(l)
                .filter(move |c| *c != subject)
                .map(|c| st.recorded[l as usize][c as usize].get())
        };
        advertised_rate_for_iter(st.excess[l as usize].get(), others().count(), others)
    }

    /// Queue an adaptation process (origin, conn), as
    /// `DistributedMaxmin::request_session`.
    fn request_session(&self, st: &mut St, origin: u8, conn: u8) {
        if let Some(s) = &st.active {
            if (s.origin, s.conn) == (origin, conn) {
                st.active_restart = true;
                return;
            }
        }
        if !st.pending.contains(&(origin, conn)) {
            st.pending.push((origin, conn));
        }
    }

    /// The refined variant's wake policy at link `l`: only connections
    /// whose rate can actually change.
    fn wake_inconsistent(&self, st: &mut St, l: u8, exclude: Option<u8>) {
        let candidates: Vec<u8> = self
            .conns_on(l)
            .filter(|c| {
                let r = st.recorded[l as usize][*c as usize].get();
                let demand = self.demands[*c as usize];
                let mu = self.mu_for(st, l, *c);
                (r < mu - TOL && r < demand - TOL) || r > mu + TOL
            })
            .collect();
        for c in candidates {
            if Some(c) != exclude {
                self.request_session(st, l, c);
            }
        }
    }

    /// Launch (or relaunch) the active session's current phase: stamp
    /// the initiator's quote and put both packets in flight.
    fn launch_phase(&self, st: &mut St) {
        let s = st
            .active
            .clone()
            .expect("invariant: launch with active session");
        let route = &self.routes[s.conn as usize];
        let pos = route
            .iter()
            .position(|l| *l == s.origin)
            .expect("invariant: origin on route") as u8;
        let n = route.len() as u8;
        let stamped = R::new(
            self.mu_for(st, s.origin, s.conn)
                .min(self.demands[s.conn as usize])
                .max(0.0),
        );
        let up = Pkt::Flight {
            pos,
            leg: if pos == 0 { Leg::Back } else { Leg::Out },
            stamped,
        };
        let down = Pkt::Flight {
            pos,
            leg: if pos + 1 == n { Leg::Back } else { Leg::Out },
            stamped,
        };
        let s = st.active.as_mut().expect("invariant: checked above");
        s.up = up;
        s.down = down;
    }

    /// Deliver one hop of the active session's `dir` packet: `M(l)`
    /// maintenance, stamp clamping, and movement (mirrors
    /// `process_advertise` + `forward`).
    fn deliver(&self, st: &mut St, dir: Dir) {
        let s = st
            .active
            .clone()
            .expect("invariant: deliver needs a session");
        let (mut pos, leg, mut stamped) = match (dir, &s.up, &s.down) {
            (Dir::Up, Pkt::Flight { pos, leg, stamped }, _)
            | (Dir::Down, _, Pkt::Flight { pos, leg, stamped }) => (*pos, *leg, *stamped),
            _ => return,
        };
        let route = &self.routes[s.conn as usize];
        let n = route.len() as u8;
        let origin_pos = route
            .iter()
            .position(|l| *l == s.origin)
            .expect("invariant: origin on route") as u8;
        let lid = route[pos as usize];
        // M(l) maintenance + clamp.
        let mu = self.mu_for(st, lid, s.conn);
        if mu <= stamped.get() + TOL {
            st.bottleneck[lid as usize] |= 1 << s.conn;
        } else {
            st.bottleneck[lid as usize] &= !(1 << s.conn);
        }
        if stamped.get() >= mu {
            stamped = R::new(mu.max(0.0));
        }
        // Movement.
        let mut leg = leg;
        let mut arrived = false;
        match (leg, dir) {
            (Leg::Out, Dir::Up) => {
                if pos == 0 {
                    leg = Leg::Back;
                    if pos == origin_pos {
                        arrived = true;
                    } else {
                        pos += 1;
                    }
                } else {
                    pos -= 1;
                }
            }
            (Leg::Out, Dir::Down) => {
                if pos + 1 == n {
                    leg = Leg::Back;
                    if pos == origin_pos {
                        arrived = true;
                    } else {
                        pos -= 1;
                    }
                } else {
                    pos += 1;
                }
            }
            (Leg::Back, Dir::Up) => {
                if pos >= origin_pos {
                    arrived = true;
                } else {
                    pos += 1;
                }
            }
            (Leg::Back, Dir::Down) => {
                if pos <= origin_pos {
                    arrived = true;
                } else {
                    pos -= 1;
                }
            }
        }
        let pkt = if arrived {
            Pkt::Returned(stamped)
        } else {
            Pkt::Flight { pos, leg, stamped }
        };
        let s = st.active.as_mut().expect("invariant: still active");
        match dir {
            Dir::Up => s.up = pkt,
            Dir::Down => s.down = pkt,
        }
        self.settle(st);
    }

    /// Run every deterministic step to exhaustion: phase advances,
    /// session completion (with the UPDATE recompute — or the mutant's
    /// broken version), wake-ups, FIFO activation.
    fn settle(&self, st: &mut St) {
        loop {
            if let Some(s) = st.active.clone() {
                // In flight or dropped: nondeterminism pending.
                let (Pkt::Returned(u), Pkt::Returned(d)) = (s.up, s.down) else {
                    return;
                };
                if s.phase < 4 {
                    let sm = st.active.as_mut().expect("invariant: checked above");
                    sm.phase += 1;
                    self.launch_phase(st);
                    continue;
                }
                // Completion: fix the rate, recompute recorded rates
                // along the route, wake affected connections.
                let rate = u.min(d);
                let old = st.rates[s.conn as usize];
                st.rates[s.conn as usize] = rate;
                st.active = None;
                let changed = (rate.get() - old.get()).abs() > TOL;
                let route = &self.routes[s.conn as usize];
                for l in route {
                    let skip = self.mutant == MaxminMutant::SkipUpdateRecompute && *l != s.origin;
                    if !skip {
                        st.recorded[*l as usize][s.conn as usize] = rate;
                    }
                }
                if changed {
                    for l in route.clone() {
                        self.wake_inconsistent(st, l, Some(s.conn));
                    }
                }
                if st.active_restart {
                    st.active_restart = false;
                    let want = self
                        .mu_for(st, s.origin, s.conn)
                        .min(self.demands[s.conn as usize]);
                    if (rate.get() - want).abs() > TOL {
                        self.request_session(st, s.origin, s.conn);
                    }
                }
                continue;
            }
            // Activate the next queued process, if any.
            if st.pending.is_empty() {
                return;
            }
            let (origin, conn) = st.pending.remove(0);
            st.sessions = st.sessions.saturating_add(1);
            st.active = Some(Sess {
                origin,
                conn,
                phase: 1,
                up: Pkt::Dropped,
                down: Pkt::Dropped,
            });
            st.active_restart = false;
            if st.sessions > self.max_sessions {
                // Leave the over-budget marker for the invariant; no
                // point launching more packets.
                return;
            }
            self.launch_phase(st);
        }
    }

    /// Production-solver oracle over the final capacities.
    fn oracle(&self) -> BTreeMap<ConnId, f64> {
        let mut p = MaxminProblem::default();
        for (i, x) in self.link_excess.iter().enumerate() {
            p.link_excess.insert(LinkId(i as u32), *x);
        }
        for (i, r) in self.routes.iter().enumerate() {
            p.conns.insert(
                ConnId(i as u32),
                ConnDemand {
                    demand: self.demands[i],
                    links: r.iter().map(|l| LinkId(*l as u32)).collect(),
                },
            );
        }
        p.solve()
    }
}

impl TransitionSystem for MaxminSystem {
    type State = St;

    fn initial(&self) -> St {
        St {
            excess: vec![R::new(0.0); self.n_links()],
            unfired: vec![true; self.n_links()],
            recorded: vec![vec![R::new(0.0); self.n_conns()]; self.n_links()],
            bottleneck: vec![0; self.n_links()],
            rates: vec![R::new(0.0); self.n_conns()],
            active: None,
            pending: Vec::new(),
            active_restart: false,
            sessions: 0,
            losses_left: self.loss_budget,
        }
    }

    fn successors(&self, st: &St) -> Vec<(String, St)> {
        let mut out = Vec::new();
        if st.sessions > self.max_sessions {
            // Frozen: the invariant reports the livelock.
            return out;
        }
        // Initial capacity events, in any order.
        for l in 0..self.n_links() {
            if st.unfired[l] {
                let mut next = st.clone();
                next.unfired[l] = false;
                next.excess[l] = R::new(self.link_excess[l].max(0.0));
                self.wake_inconsistent(&mut next, l as u8, None);
                self.settle(&mut next);
                out.push((format!("change-excess L{l}={}", self.link_excess[l]), next));
            }
        }
        if let Some(s) = &st.active {
            // Partial-order reduction: within one session the two
            // ADVERTISE deliveries commute — each writes only its own
            // packet, both read the same (unchanged) recorded rates,
            // and the M(l) bit they set is identical — so their
            // interleaving is unobservable by any property. Once every
            // ChangeExcess has fired and the loss budget is spent there
            // is no event left for a delivery to race against, and one
            // representative order (up first) suffices.
            let reduced = st.unfired.iter().all(|u| !u) && st.losses_left == 0;
            // Hop deliveries, either packet first.
            for (dir, pkt) in [(Dir::Up, &s.up), (Dir::Down, &s.down)] {
                if let Pkt::Flight { pos, .. } = pkt {
                    let lid = self.routes[s.conn as usize][*pos as usize];
                    let mut next = st.clone();
                    self.deliver(&mut next, dir);
                    out.push((
                        format!(
                            "deliver {dir:?} ADVERTISE(C{},phase {}) at L{lid}",
                            s.conn, s.phase
                        ),
                        next,
                    ));
                    if reduced {
                        break;
                    }
                    // Bounded loss: kill this packet instead.
                    if st.losses_left > 0 {
                        let mut next = st.clone();
                        next.losses_left -= 1;
                        let sm = next.active.as_mut().expect("invariant: active cloned");
                        match dir {
                            Dir::Up => sm.up = Pkt::Dropped,
                            Dir::Down => sm.down = Pkt::Dropped,
                        }
                        out.push((
                            format!("DROP {dir:?} ADVERTISE(C{},phase {})", s.conn, s.phase),
                            next,
                        ));
                    }
                }
            }
            // Retransmission timer: fires once the phase is stalled
            // (no packet in flight, at least one dropped).
            let stalled = !matches!(s.up, Pkt::Flight { .. })
                && !matches!(s.down, Pkt::Flight { .. })
                && (s.up == Pkt::Dropped || s.down == Pkt::Dropped);
            if stalled {
                let mut next = st.clone();
                self.launch_phase(&mut next);
                out.push((format!("retransmit phase {} of C{}", s.phase, s.conn), next));
            }
        }
        out
    }

    fn invariant(&self, st: &St) -> Result<(), String> {
        if let Some(s) = &st.active {
            if s.phase > 4 {
                return Err(format!(
                    "session for C{} exceeded 4 round trips (phase {})",
                    s.conn, s.phase
                ));
            }
        }
        if st.sessions > self.max_sessions {
            return Err(format!(
                "protocol did not converge within {} adaptation sessions — livelock",
                self.max_sessions
            ));
        }
        for (i, r) in st.rates.iter().enumerate() {
            let x = r.get();
            if !x.is_finite() || x < -TOL {
                return Err(format!(
                    "C{i} rate {x} escapes [0, demand] — b_min floor violated in excess space"
                ));
            }
            if x > self.demands[i] + TOL {
                return Err(format!("C{i} rate {x} exceeds demand {}", self.demands[i]));
            }
        }
        Ok(())
    }

    fn on_quiescent(&self, st: &St) -> Result<(), String> {
        // Ledger conservation: recorded rates fit the excess capacity.
        for l in 0..self.n_links() {
            let sum: f64 = self
                .conns_on(l as u8)
                .map(|c| st.recorded[l][c as usize].get())
                .sum();
            if sum > st.excess[l].get() + 1e-6 {
                return Err(format!(
                    "ledger conservation violated at L{l}: recorded sum {sum} > excess {}",
                    st.excess[l].get()
                ));
            }
        }
        // Theorem 1: the protocol's fixed point is the maxmin optimum.
        for (c, want) in self.oracle() {
            let got = st.rates[c.0 as usize].get();
            if (got - want).abs() > 1e-6 {
                return Err(format!(
                    "converged rate for C{} is {got}, maxmin optimum is {want}",
                    c.0
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Checker;

    #[test]
    fn single_link_two_conns_verifies() {
        let sys = MaxminSystem::new(vec![10.0], vec![vec![0], vec![0]], vec![100.0, 100.0]);
        let stats = Checker::default().run("maxmin", &sys).expect("verified");
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn chain_with_cross_traffic_verifies() {
        let sys = MaxminSystem::new(
            vec![10.0, 4.0],
            vec![vec![0, 1], vec![0], vec![1]],
            vec![100.0, 100.0, 100.0],
        );
        Checker::default().run("maxmin", &sys).expect("verified");
    }

    #[test]
    fn loss_budget_still_converges() {
        let sys = MaxminSystem::new(vec![9.0], vec![vec![0], vec![0]], vec![100.0, 100.0])
            .with_loss_budget(2);
        Checker::default().run("maxmin", &sys).expect("verified");
    }

    #[test]
    fn finite_demand_respected() {
        let sys = MaxminSystem::new(vec![12.0], vec![vec![0], vec![0]], vec![2.0, 100.0]);
        Checker::default().run("maxmin", &sys).expect("verified");
    }

    #[test]
    fn update_recompute_mutant_is_caught() {
        let sys = MaxminSystem::new(
            vec![10.0, 4.0],
            vec![vec![0, 1], vec![0], vec![1]],
            vec![100.0, 100.0, 100.0],
        )
        .with_mutant(MaxminMutant::SkipUpdateRecompute);
        let cx = Checker::default()
            .run("maxmin", &sys)
            .expect_err("mutant must fail");
        assert!(
            cx.property.contains("maxmin optimum")
                || cx.property.contains("ledger conservation")
                || cx.property.contains("livelock"),
            "unexpected property: {}",
            cx.property
        );
        assert!(!cx.steps.is_empty(), "trace must replay the schedule");
    }
}
