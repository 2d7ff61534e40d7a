//! Scenario replays and crash-recovery drills.
//!
//! A (scenario, fault schedule) pair is replayed one way:
//! [`events_from_scenario`] merges the scenario's mobility trace with
//! the schedule into one [`ServerEvent`] stream, and a [`Server`]
//! applies it — the same event loop `run_server` runs, so every event,
//! fault or trace, lands after the slot ticks due at or before its
//! time. Two harnesses drive that stream:
//!
//! * [`run_with_faults`] — the scenario replay; with a non-empty
//!   schedule it asserts the degradation invariants after every event;
//! * [`run_with_kill_restore`] — the crash-recovery drill, which proves
//!   restore + replay ≡ never crashed. It runs the same event sequence
//!   twice: **run A**, one server, uninterrupted; **run B**, a server
//!   killed after `kill_after` events (dropped on the floor, simulating
//!   a crash), a *new* server restored from the victim's serialized
//!   snapshot, and the remaining events replayed into it. Both runs
//!   then emit their [`RunReport`](arm_obs::RunReport) JSON, and the
//!   drill demands **byte equality** — not "close", not "same metrics
//!   to 6 digits": identical bytes, including with an active fault
//!   schedule in the event stream and a kill point inside a link
//!   outage. That is the strongest checkable statement of the
//!   snapshot's completeness; any forgotten field (an RNG, a dirty set,
//!   a counter) shows up as a byte diff. `tests/drill.rs` runs it in
//!   the suite, `expt_soak` in CI.
//!
//! `run_to_completion` is the primitive under the drill: it drives a
//! fresh server through an arbitrary event stream.

use arm_core::scenario::{build_manager, Scenario};
use arm_core::{ControlError, ResourceManager, SnapshotError};
use arm_mobility::MobilityTrace;
use arm_net::ids::{LinkId, PortableId, ZoneId};
use arm_obs::{ChaosSummary, Obs};
use arm_qos::maxmin::centralized::{ConnDemand, MaxminProblem};
use arm_qos::maxmin::distributed::{DistributedMaxmin, Ev, Variant};
use arm_sim::{Engine, FaultEvent, FaultKind, FaultSchedule, SimDuration, SimTime, StopCondition};
use std::collections::{BTreeMap, BTreeSet};

use crate::event::ServerEvent;
use crate::ingest::IngestError;
use crate::server::{Server, ServerConfig, ServerSnapshot};

/// Why a drill could not run. (Byte *mismatches* are asserted by the
/// callers, not reported here — a mismatch is a bug, not an input
/// problem.)
#[derive(Debug)]
pub enum DrillError {
    /// The scenario itself is invalid.
    Control(ControlError),
    /// A snapshot failed to serialize, parse, or validate.
    Snapshot(SnapshotError),
    /// A drill event was rejected — drill streams are generated from
    /// validated scenarios, so this indicates a generator bug.
    Ingest(IngestError),
}

impl std::fmt::Display for DrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrillError::Control(e) => write!(f, "drill scenario rejected: {e}"),
            DrillError::Snapshot(e) => write!(f, "drill snapshot failed: {e}"),
            DrillError::Ingest(e) => write!(f, "drill event rejected: {e}"),
        }
    }
}

impl std::error::Error for DrillError {}

impl From<ControlError> for DrillError {
    fn from(e: ControlError) -> Self {
        DrillError::Control(e)
    }
}

impl From<SnapshotError> for DrillError {
    fn from(e: SnapshotError) -> Self {
        DrillError::Snapshot(e)
    }
}

impl From<IngestError> for DrillError {
    fn from(e: IngestError) -> Self {
        DrillError::Ingest(e)
    }
}

/// Convert a scenario's mobility trace, merged with a fault schedule,
/// into the equivalent server event stream: faults due at or before a
/// trace event come first; each portable departs at its final trace
/// event (the user walks out of the modelled area — finite traces
/// would otherwise pile up phantom load at the map's edges); trailing
/// faults follow the trace.
///
/// This is the one place a schedule's opaque indices meet the
/// scenario's entities: links and zones modulo their counts, portables
/// modulo the sorted set the trace names. Control-plane degradation
/// windows have no server entity to point at; they become
/// [`ServerEvent::QueuePressure`] toggles, one per window edge in
/// schedule order, which exercises degraded-mode shedding on a
/// deterministic schedule — precisely what a replayed drill must
/// reproduce. A schedule with a fault that has nothing to point at (a
/// link fault on a linkless topology, a handoff fault in a trace with
/// no portables) is refused, so every fault becomes exactly one event.
pub fn events_from_scenario(
    sc: &Scenario,
    faults: &FaultSchedule,
) -> Result<Vec<ServerEvent>, DrillError> {
    let (mgr, trace) = build_manager(sc)?;
    merge_faults(sc, &mgr, &trace, faults)
}

/// [`events_from_scenario`] over the manager and trace `sc` builds.
fn merge_faults(
    sc: &Scenario,
    mgr: &ResourceManager,
    trace: &MobilityTrace,
    faults: &FaultSchedule,
) -> Result<Vec<ServerEvent>, DrillError> {
    let links = mgr.net.topology().link_count() as u32;
    let zones = mgr.profiles().zone_count().max(1) as u32;
    let portables: Vec<PortableId> = {
        let set: BTreeSet<PortableId> = trace.events().iter().map(|e| e.portable).collect();
        set.into_iter().collect()
    };
    let mut last_event: BTreeMap<PortableId, SimTime> = BTreeMap::new();
    for ev in trace.events() {
        last_event.insert(ev.portable, ev.time);
    }

    let unmappable = faults.events().iter().find(|f| match f.kind {
        FaultKind::LinkDown { .. } | FaultKind::LinkUp { .. } => links == 0,
        FaultKind::HandoffSignallingFailure { .. } => portables.is_empty(),
        _ => false,
    });
    if let Some(f) = unmappable {
        return Err(ControlError::IncompatibleScenario {
            environment: format!("{:?}", sc.environment),
            combined_with: format!("the fault {:?}", f.kind),
        }
        .into());
    }

    let fault_event = |f: &FaultEvent| -> ServerEvent {
        match f.kind {
            FaultKind::LinkDown { link } => ServerEvent::LinkDown {
                t: f.time,
                link: LinkId(link % links),
            },
            FaultKind::LinkUp { link } => ServerEvent::LinkUp {
                t: f.time,
                link: LinkId(link % links),
            },
            FaultKind::ProfileServerDown { zone } => ServerEvent::ProfileServerDown {
                t: f.time,
                zone: ZoneId(zone % zones),
            },
            FaultKind::ProfileServerUp { zone } => ServerEvent::ProfileServerUp {
                t: f.time,
                zone: ZoneId(zone % zones),
            },
            FaultKind::HandoffSignallingFailure { portable } => ServerEvent::FailNextHandoff {
                t: f.time,
                portable: portables[portable as usize % portables.len()],
            },
            FaultKind::ControlDegradeStart { .. } => ServerEvent::QueuePressure {
                t: f.time,
                on: true,
            },
            FaultKind::ControlDegradeEnd => ServerEvent::QueuePressure {
                t: f.time,
                on: false,
            },
        }
    };

    let mut out = Vec::new();
    let mut pending = faults.events().iter().peekable();
    for ev in trace.events() {
        while let Some(f) = pending.peek() {
            if f.time > ev.time {
                break;
            }
            out.push(fault_event(f));
            pending.next();
        }
        match ev.from {
            None => out.push(ServerEvent::Appear {
                t: ev.time,
                portable: ev.portable,
                cell: ev.to,
            }),
            Some(_) => out.push(ServerEvent::Move {
                t: ev.time,
                portable: ev.portable,
                to: ev.to,
            }),
        }
        if last_event.get(&ev.portable) == Some(&ev.time) {
            out.push(ServerEvent::Depart {
                t: ev.time,
                portable: ev.portable,
            });
        }
    }
    out.extend(pending.map(fault_event));
    Ok(out)
}

/// A drill's evidence: the two reports to compare, plus the checkpoint
/// that carried run B across the crash.
#[derive(Clone, Debug)]
#[must_use]
pub struct DrillOutcome {
    /// Run A's report JSON (never crashed).
    pub uninterrupted: String,
    /// Run B's report JSON (killed, restored, replayed).
    pub recovered: String,
    /// The serialized snapshot run B restored from.
    pub snapshot_json: String,
    /// Where the kill landed (accepted events before the crash).
    pub killed_after: usize,
    /// Length of the full event stream.
    pub total_events: usize,
}

/// Drive a fresh server through `events` to completion and return it
/// (observation off — drills compare pure state).
pub(crate) fn run_to_completion(
    cfg: &ServerConfig,
    events: &[ServerEvent],
) -> Result<Server, DrillError> {
    let mut server = Server::new(cfg.clone(), Obs::off())?;
    for ev in events {
        server.apply_event(ev)?;
    }
    Ok(server)
}

/// Replay `cfg.scenario` with `faults` merged in ([`events_from_scenario`])
/// through a fresh server observed by `obs`, and return the finished
/// server with what was injected and checked. With a non-empty schedule
/// the degradation invariants are asserted after **every** event:
///
/// * the network ledger stays consistent (no oversubscription,
///   `Σ b_min + b_resv ≤ C` on every link),
/// * every live connection keeps at least its guaranteed floor `b_min`,
/// * each control-plane degradation window leaves the distributed
///   maxmin protocol able to converge to the centralized oracle despite
///   the window's packet loss and reordering (checked once, as the
///   window opens).
///
/// With the empty schedule nothing is checked: this is the plain
/// scenario replay (`run_scenario`). Violations panic — they are bugs in the
/// resource manager, not inputs; [`DrillError`] covers only malformed
/// scenarios.
pub fn run_with_faults(
    cfg: &ServerConfig,
    faults: &FaultSchedule,
    obs: Obs,
) -> Result<(Server, ChaosSummary), DrillError> {
    let (mgr, trace) = build_manager(&cfg.scenario)?;
    let events = merge_faults(&cfg.scenario, &mgr, &trace, faults)?;
    // `merge_faults` turns the k-th window opening into the
    // k-th `QueuePressure { on: true }` of the stream.
    let mut windows = faults.events().iter().filter_map(|f| match f.kind {
        FaultKind::ControlDegradeStart { loss, delay_prob } => Some((loss, delay_prob)),
        _ => None,
    });
    let checking = !faults.is_empty();
    let mut server = Server::with_manager(cfg.clone(), mgr, obs);
    let mut summary = ChaosSummary {
        schedules: 1,
        ..ChaosSummary::default()
    };
    for ev in &events {
        server.apply_event(ev)?;
        if !matches!(
            ev,
            ServerEvent::Appear { .. } | ServerEvent::Move { .. } | ServerEvent::Depart { .. }
        ) {
            summary.faults_applied += 1;
        }
        if let ServerEvent::QueuePressure { on: true, .. } = ev {
            if let Some((loss, delay_prob)) = windows.next() {
                summary.lossy_maxmin_checks += 1;
                let seed = cfg.scenario.seed ^ summary.lossy_maxmin_checks;
                lossy_maxmin_check(&server.mgr, seed, loss, delay_prob);
            }
        }
        if checking {
            summary.invariant_checks += 1;
            assert_invariants(&server.mgr, ev);
        }
    }
    let mgr = &server.mgr;
    summary.link_failures = mgr.link_failures;
    summary.stale_profile_fallbacks = mgr.stale_profile_fallbacks;
    summary.handoff_signalling_failures = mgr.handoff_signalling_failures;
    summary.lost_profile_updates = mgr.lost_profile_updates;
    Ok((server, summary))
}

/// The degradation invariants, checked after every event of a faulted
/// run: ledger consistency (which includes no oversubscription) and the
/// guaranteed floor of every live connection.
fn assert_invariants(mgr: &ResourceManager, after: &ServerEvent) {
    #[expect(
        clippy::panic,
        reason = "invariant: a faulted run keeps the ledger conserved"
    )]
    if let Err(e) = mgr.net.check_invariants() {
        panic!("invariant: ledger conservation violated after {after:?}: {e}");
    }
    for c in mgr.net.live_connections() {
        assert!(
            c.b_current >= c.qos.b_min - 1e-6,
            "live connection {:?} below its floor after {after:?}: {} < {}",
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

/// A server's report as the drill compares it: JSON text.
fn report_json(server: &Server) -> Result<String, DrillError> {
    server
        .report("drill")
        .to_json()
        .map_err(|e| DrillError::Snapshot(SnapshotError::Parse(e.to_string())))
}

/// The full crash-recovery drill: run A uninterrupted; run B killed
/// after `kill_after` events, restored from its own serialized
/// snapshot, and replayed over the suffix. Returns both report JSONs —
/// callers assert byte equality.
pub fn run_with_kill_restore(
    cfg: &ServerConfig,
    events: &[ServerEvent],
    kill_after: usize,
) -> Result<DrillOutcome, DrillError> {
    let kill_after = kill_after.min(events.len());
    let uninterrupted = report_json(&run_to_completion(cfg, events)?)?;

    // Run B, phase 1: live until the crash.
    let mut victim = Server::new(cfg.clone(), Obs::off())?;
    for ev in &events[..kill_after] {
        victim.apply_event(ev)?;
    }
    let snapshot_json = victim.snapshot().to_json()?;
    drop(victim); // the crash: everything not in the snapshot is gone

    // Run B, phase 2: restore from bytes, replay the journaled suffix.
    let snap = ServerSnapshot::from_json(&snapshot_json)?;
    let mut restored = Server::restore(snap, Obs::off())?;
    for ev in &events[kill_after..] {
        restored.apply_event(ev)?;
    }
    let recovered = report_json(&restored)?;

    Ok(DrillOutcome {
        uninterrupted,
        recovered,
        snapshot_json,
        killed_after: kill_after,
        total_events: events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_core::scenario::{EnvSpec, MobilitySpec, WorkloadSpec};
    use arm_core::strategy::Strategy;
    use arm_sim::{FaultScheduleParams, SimRng};

    fn moves(events: &[ServerEvent]) -> usize {
        events
            .iter()
            .filter(|e| matches!(e, ServerEvent::Move { .. }))
            .count()
    }

    #[test]
    fn sample_scenario_runs_clean() {
        let cfg = ServerConfig::from(Scenario::sample());
        let events =
            events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
        let server = run_to_completion(&cfg, &events).expect("valid scenario");
        let m = &server.mgr.metrics;
        assert_eq!(m.dropped.get(), 0, "the paper strategy holds the lecture");
        assert!(m.requests.get() > 35);
        assert!(moves(&events) > 100);
    }

    #[test]
    fn workload_none_tracks_mobility_only() {
        let cfg = ServerConfig::from(Scenario {
            workload: WorkloadSpec::None,
            ..Scenario::sample()
        });
        let events =
            events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
        let server = run_to_completion(&cfg, &events).expect("valid scenario");
        assert_eq!(server.mgr.metrics.requests.get(), 0);
        assert_eq!(server.mgr.metrics.handoff_attempts.get(), 0);
        assert!(moves(&events) > 0);
        assert_eq!(server.accepted(), events.len() as u64);
    }

    #[test]
    fn random_walk_scenario_replays_on_every_env() {
        for env in [
            EnvSpec::Figure4,
            EnvSpec::OfficeWing { offices: 3 },
            EnvSpec::Meeting,
        ] {
            let cfg = ServerConfig::from(Scenario {
                name: "walk".into(),
                environment: env,
                mobility: MobilitySpec::RandomWalk {
                    population: 15,
                    mean_dwell_secs: 120,
                    span_mins: 20,
                },
                workload: WorkloadSpec::Fixed { kbps: 64.0 },
                strategy: Strategy::Aggregate,
                cell_throughput_kbps: 800.0,
                backbone_kbps: 100_000.0,
                wireless_error: 0.0,
                t_th_secs: 300,
                seed: 5,
            });
            let events = events_from_scenario(&cfg.scenario, &FaultSchedule::empty())
                .expect("valid scenario");
            let server = run_to_completion(&cfg, &events).expect("valid scenario");
            let env = &cfg.scenario.environment;
            assert!(moves(&events) > 0, "{env:?}: the walk moves");
            assert_eq!(server.accepted(), events.len() as u64, "{env:?}");
            assert!(server.mgr.metrics.requests.get() > 0, "{env:?}");
        }
    }

    #[test]
    fn an_unmappable_fault_is_refused() {
        let sc = Scenario {
            mobility: MobilitySpec::RandomWalk {
                population: 0,
                mean_dwell_secs: 120,
                span_mins: 20,
            },
            environment: EnvSpec::Figure4,
            ..Scenario::sample()
        };
        let sched = FaultSchedule::generate(
            &FaultScheduleParams {
                span: SimDuration::from_mins(20),
                portables: 5,
                ..FaultScheduleParams::default()
            },
            &SimRng::new(1),
        );
        assert!(sched
            .events()
            .iter()
            .any(|f| matches!(f.kind, FaultKind::HandoffSignallingFailure { .. })));
        let err = events_from_scenario(&sc, &sched).expect_err("no portable to fail");
        assert!(matches!(
            err,
            DrillError::Control(ControlError::IncompatibleScenario { .. })
        ));
    }

    #[test]
    fn faulted_office_case_survives_one_schedule() {
        let cfg = ServerConfig::office(11);
        let params = FaultScheduleParams {
            span: SimDuration::from_mins(40 * 60), // the §7.1 workweek
            links: 20,
            zones: 1,
            portables: 30,
            ..FaultScheduleParams::default()
        };
        let sched = FaultSchedule::generate(&params, &SimRng::new(99));
        let (_, out) = run_with_faults(&cfg, &sched, Obs::off()).expect("valid scenario");
        assert_eq!(out.faults_applied, sched.len() as u64);
        assert!(out.invariant_checks > 0);
        assert!(out.link_failures > 0);
    }
}
