//! Chaos harness: replay a [`FaultSchedule`] against a scenario run.
//!
//! The fault layer (`arm_sim::faults`) emits time-sorted, seeded fault
//! events over opaque `u32` indices. This module maps those indices onto
//! the scenario's concrete links, zones, and portables, interleaves the
//! fault events with the mobility trace, and drives the manager's fault
//! entry points — asserting the degradation invariants after **every**
//! event:
//!
//! * the network ledger stays consistent (no oversubscription,
//!   `Σ b_min + b_resv ≤ C` on every link),
//! * every live connection keeps at least its guaranteed floor `b_min`,
//! * a control-plane degradation window leaves the distributed maxmin
//!   protocol able to converge to the centralized oracle despite packet
//!   loss and reordering.
//!
//! [`scenario::run`](crate::scenario::run) delegates here with the empty
//! schedule, so a fault-free run takes exactly the same code path (and
//! produces bit-identical reports) whether or not the chaos layer is
//! compiled in the loop — the fault machinery costs nothing when the
//! schedule is empty.

use std::collections::{BTreeMap, BTreeSet};

use arm_mobility::WorkloadMix;
use arm_net::ids::{ConnId, LinkId, PortableId, ZoneId};
use arm_obs::{ChaosSummary, Obs};
use arm_qos::maxmin::centralized::{ConnDemand, MaxminProblem};
use arm_qos::maxmin::distributed::{DistributedMaxmin, Ev, Variant};
use arm_sim::{
    Engine, FaultEvent, FaultKind, FaultSchedule, SimDuration, SimRng, SimTime, StopCondition,
};

use crate::error::ControlError;
use crate::manager::{ResourceManager, SLOT};
use crate::scenario::{build_manager, Scenario, ScenarioReport, WorkloadSpec};

/// What a faulted run produced, beyond the ordinary report.
#[derive(Clone, Debug)]
#[must_use]
pub struct ChaosOutcome {
    /// The ordinary scenario report.
    pub report: ScenarioReport,
    /// Fault events applied.
    pub faults_applied: usize,
    /// Invariant sweeps performed (one per event when faults are on).
    pub invariant_checks: u64,
    /// Lossy distributed-maxmin convergence checks run (one per
    /// control-degradation window).
    pub lossy_maxmin_checks: u64,
    /// Link failures the manager processed.
    pub link_failures: u64,
    /// Stale-profile fallback reservations made.
    pub stale_profile_fallbacks: u64,
    /// Handoffs processed without signalling.
    pub handoff_signalling_failures: u64,
    /// Profile updates lost to server outages.
    pub lost_profile_updates: u64,
}

impl ChaosOutcome {
    /// This outcome as the run-report chaos section. `schedules` is the
    /// number of independent fault schedules the caller replayed to
    /// produce it (1 for a single [`run_with_faults`] call).
    pub fn summary(&self, schedules: u64) -> ChaosSummary {
        ChaosSummary {
            schedules,
            faults_applied: self.faults_applied as u64,
            invariant_checks: self.invariant_checks,
            lossy_maxmin_checks: self.lossy_maxmin_checks,
            link_failures: self.link_failures,
            stale_profile_fallbacks: self.stale_profile_fallbacks,
            handoff_signalling_failures: self.handoff_signalling_failures,
            lost_profile_updates: self.lost_profile_updates,
        }
    }
}

/// Maps the schedule's opaque indices onto the scenario's entities.
struct FaultMap {
    links: u32,
    zones: u32,
    portables: Vec<PortableId>,
}

impl FaultMap {
    fn link(&self, idx: u32) -> Option<LinkId> {
        (self.links > 0).then(|| LinkId(idx % self.links))
    }

    fn zone(&self, idx: u32) -> Option<ZoneId> {
        // Zones are numbered contiguously from 0 by the environment
        // builders.
        (self.zones > 0).then(|| ZoneId(idx % self.zones))
    }

    fn portable(&self, idx: u32) -> Option<PortableId> {
        if self.portables.is_empty() {
            return None;
        }
        Some(self.portables[idx as usize % self.portables.len()])
    }
}

/// Run a scenario with a fault schedule interleaved, asserting the
/// degradation invariants after every event. With the empty schedule
/// this is exactly [`scenario::run`](crate::scenario::run) (same event
/// order, same RNG draws, bit-identical report) and no invariant sweeps
/// are performed.
///
/// Invariant violations panic — they are bugs in the resource manager,
/// not inputs; [`ControlError`] covers only malformed scenarios.
pub fn run_with_faults(
    sc: &Scenario,
    faults: &FaultSchedule,
) -> Result<ChaosOutcome, ControlError> {
    run_with_faults_obs(sc, faults, Obs::off()).map(|(out, _)| out)
}

/// [`run_with_faults`] with a trace observer installed in the resource
/// manager for the duration of the run. Returns the observer alongside
/// the outcome so callers can read its event counts, phase timers, and
/// sink snapshot. Passing [`Obs::off()`] is exactly [`run_with_faults`]:
/// observation is strictly passive, so the outcome is bit-identical
/// whatever observer is installed (asserted by
/// `tests/obs_differential.rs`).
pub fn run_with_faults_obs(
    sc: &Scenario,
    faults: &FaultSchedule,
    obs: Obs,
) -> Result<(ChaosOutcome, Obs), ControlError> {
    let (mut mgr, trace) = build_manager(sc)?;
    mgr.set_obs(obs);
    let checking = !faults.is_empty();
    let map = FaultMap {
        links: mgr.net.topology().link_count() as u32,
        zones: mgr.profiles().zone_count().max(1) as u32,
        portables: {
            let set: BTreeSet<PortableId> = trace.events().iter().map(|e| e.portable).collect();
            set.into_iter().collect()
        },
    };

    let mut rng = SimRng::new(sc.seed).split("scenario-workload");
    let mix = WorkloadMix::paper71();
    let mut open: BTreeMap<PortableId, ConnId> = BTreeMap::new();
    let mut next_slot = SimTime::ZERO + SLOT;
    let mut moves = 0u64;
    let mut faults_applied = 0usize;
    let mut invariant_checks = 0u64;
    let mut lossy_maxmin_checks = 0u64;
    let mut pending = faults.events().iter().peekable();
    // A portable's connection ends at its final trace event — the user
    // walks out of the modelled area (finite traces would otherwise pile
    // up phantom load at the map's edges).
    let mut last_event: BTreeMap<PortableId, SimTime> = BTreeMap::new();
    for ev in trace.events() {
        last_event.insert(ev.portable, ev.time);
    }
    let apply =
        |mgr: &mut ResourceManager, f: &FaultEvent, faults_applied: &mut usize, lossy: &mut u64| {
            *faults_applied += 1;
            match f.kind {
                FaultKind::LinkDown { link } => {
                    if let Some(l) = map.link(link) {
                        mgr.link_failed(l, f.time);
                    }
                }
                FaultKind::LinkUp { link } => {
                    if let Some(l) = map.link(link) {
                        mgr.link_restored(l, f.time);
                    }
                }
                FaultKind::ProfileServerDown { zone } => {
                    if let Some(z) = map.zone(zone) {
                        mgr.profile_server_down(z, f.time);
                    }
                }
                FaultKind::ProfileServerUp { zone } => {
                    if let Some(z) = map.zone(zone) {
                        mgr.profile_server_up(z, f.time);
                    }
                }
                FaultKind::HandoffSignallingFailure { portable } => {
                    if let Some(p) = map.portable(portable) {
                        mgr.fail_next_handoff(p);
                    }
                }
                FaultKind::ControlDegradeStart { loss, delay_prob } => {
                    *lossy += 1;
                    lossy_maxmin_check(mgr, sc.seed ^ *lossy, loss, delay_prob);
                }
                FaultKind::ControlDegradeEnd => {}
            }
        };

    for ev in trace.events() {
        // Faults due at or before this trace event land first, each at
        // its own timestamp.
        while let Some(f) = pending.peek() {
            if f.time > ev.time {
                break;
            }
            apply(&mut mgr, f, &mut faults_applied, &mut lossy_maxmin_checks);
            if checking {
                invariant_checks += 1;
                assert_invariants(&mgr, &format!("fault {:?}", f.kind));
            }
            pending.next();
        }
        while ev.time >= next_slot {
            mgr.slot_tick(next_slot);
            next_slot += SLOT;
        }
        match ev.from {
            None => {
                mgr.portable_appears(ev.portable, ev.to, ev.time);
                let qos = match &sc.workload {
                    WorkloadSpec::Paper71 => Some(mix.sample(&mut rng)),
                    WorkloadSpec::Fixed { kbps } => Some(
                        arm_net::flowspec::QosRequest::fixed(*kbps)
                            .with_delay(30.0)
                            .with_jitter(30.0)
                            .with_loss(1.0),
                    ),
                    WorkloadSpec::None => None,
                };
                if let Some(q) = qos {
                    if let Ok(id) = mgr.request_connection(ev.portable, q, ev.time) {
                        open.insert(ev.portable, id);
                    }
                }
            }
            Some(_) => {
                moves += 1;
                for id in mgr.portable_moved(ev.portable, ev.to, ev.time) {
                    open.retain(|_, c| *c != id);
                }
            }
        }
        if last_event[&ev.portable] == ev.time {
            if let Some(id) = open.remove(&ev.portable) {
                mgr.terminate(id, ev.time);
            }
        }
        if checking {
            invariant_checks += 1;
            assert_invariants(&mgr, &format!("move of {:?}", ev.portable));
        }
    }
    // Faults past the end of the trace still fire (e.g. the matching
    // LinkUp of a late outage).
    for f in pending {
        apply(&mut mgr, f, &mut faults_applied, &mut lossy_maxmin_checks);
        if checking {
            invariant_checks += 1;
            assert_invariants(&mgr, &format!("trailing fault {:?}", f.kind));
        }
    }

    let outcome = ChaosOutcome {
        report: ScenarioReport {
            name: sc.name.clone(),
            strategy: sc.strategy.label(),
            requests: mgr.metrics.requests.get(),
            blocked: mgr.metrics.blocked.get(),
            handoff_attempts: mgr.metrics.handoff_attempts.get(),
            dropped: mgr.metrics.dropped.get(),
            p_b: mgr.metrics.p_b(),
            p_d: mgr.metrics.p_d(),
            claims_consumed: mgr.metrics.claims_consumed.get(),
            moves,
        },
        faults_applied,
        invariant_checks,
        lossy_maxmin_checks,
        link_failures: mgr.link_failures,
        stale_profile_fallbacks: mgr.stale_profile_fallbacks,
        handoff_signalling_failures: mgr.handoff_signalling_failures,
        lost_profile_updates: mgr.lost_profile_updates,
    };
    Ok((outcome, mgr.take_obs()))
}

/// The degradation invariants, checked after every event of a faulted
/// run: ledger consistency (which includes no oversubscription) and the
/// guaranteed floor of every live connection.
fn assert_invariants(mgr: &ResourceManager, context: &str) {
    if let Err(e) = mgr.net.check_invariants() {
        panic!("invariant: ledger conservation violated after {context}: {e}");
    }
    for c in mgr.net.live_connections() {
        assert!(
            c.b_current >= c.qos.b_min - 1e-6,
            "live connection {:?} below its floor after {context}: {} < {}",
            c.id,
            c.b_current,
            c.qos.b_min
        );
    }
}

/// A control-plane degradation window opened: verify that the
/// distributed maxmin protocol, run over a snapshot of the current
/// network with this window's loss/delay probabilities injected, still
/// drains its queue and converges to the centralized oracle. This is the
/// chaos-side exercise of the retransmission machinery in
/// `arm_qos::maxmin::distributed`.
fn lossy_maxmin_check(mgr: &ResourceManager, seed: u64, loss: f64, delay_prob: f64) {
    let mut p = MaxminProblem::default();
    for c in mgr.net.live_connections() {
        let mut links = c.route.links.clone();
        links.sort_unstable();
        links.dedup();
        p.conns.insert(
            c.id,
            ConnDemand {
                demand: c.qos.b_max,
                links,
            },
        );
    }
    if p.conns.is_empty() {
        return;
    }
    // The re-allocation problem over full rates: each traversed link
    // offers what is not held back by advance claims.
    let links: BTreeSet<LinkId> = p
        .conns
        .values()
        .flat_map(|d| d.links.iter().copied())
        .collect();
    for l in links {
        let ls = mgr.net.link(l);
        p.link_excess
            .insert(l, (ls.capacity() - ls.b_resv()).max(0.0));
    }
    let expect = p.solve();
    let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
    proto.set_control_faults(seed, loss, delay_prob);
    for (l, cap) in &p.link_excess {
        proto.add_link(*l, *cap);
    }
    for (cid, d) in &p.conns {
        proto.add_conn(*cid, d.links.clone(), d.demand);
    }
    let mut engine = Engine::new(proto).with_event_budget(5_000_000);
    for (l, cap) in &p.link_excess {
        engine.schedule_at(
            SimTime::ZERO,
            Ev::ChangeExcess {
                link: *l,
                excess: *cap,
            },
        );
    }
    let stop = engine.run();
    assert_eq!(
        stop,
        StopCondition::QueueEmpty,
        "lossy maxmin exhausted its event budget (loss={loss}, delay={delay_prob})"
    );
    assert!(engine.model().is_quiescent(), "maxmin left non-quiescent");
    for (cid, want) in &expect {
        let got = engine.model().rates().get(cid).copied().unwrap_or(0.0);
        assert!(
            (got - want).abs() < 1e-6,
            "{cid:?}: lossy distributed maxmin got {got}, oracle says {want}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use arm_sim::FaultScheduleParams;

    fn office_scenario(seed: u64) -> Scenario {
        Scenario {
            name: "chaos-office".into(),
            environment: scenario::EnvSpec::Figure4,
            mobility: scenario::MobilitySpec::OfficeCase,
            workload: WorkloadSpec::Paper71,
            strategy: crate::Strategy::Paper,
            cell_throughput_kbps: 1600.0,
            backbone_kbps: 100_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed,
        }
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_the_plain_run() {
        let sc = office_scenario(7);
        let plain = scenario::run(&sc).expect("valid scenario");
        let chaos = run_with_faults(&sc, &FaultSchedule::empty()).expect("valid scenario");
        assert_eq!(format!("{plain:?}"), format!("{:?}", chaos.report));
        assert_eq!(chaos.faults_applied, 0);
        assert_eq!(chaos.invariant_checks, 0);
    }

    #[test]
    fn faulted_office_case_survives_one_schedule() {
        let sc = office_scenario(11);
        let params = FaultScheduleParams {
            span: SimDuration::from_mins(40 * 60), // the §7.1 workweek
            links: 20,
            zones: 1,
            portables: 30,
            ..FaultScheduleParams::default()
        };
        let sched = FaultSchedule::generate(&params, &arm_sim::SimRng::new(99));
        let out = run_with_faults(&sc, &sched).expect("valid scenario");
        assert_eq!(out.faults_applied, sched.len());
        assert!(out.invariant_checks > 0);
        assert!(out.link_failures > 0);
    }
}
