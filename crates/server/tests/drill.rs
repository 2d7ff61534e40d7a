//! Crash-recovery drills: kill → restore → replay must be
//! **byte-identical** to never crashing, with and without active fault
//! schedules, including a kill point inside a link outage.

use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_obs::{EventKind, Obs};
use arm_server::drill::{events_from_scenario, run_with_kill_restore};
use arm_server::{Server, ServerConfig, ServerEvent, ServerSnapshot};
use arm_sim::{FaultSchedule, FaultScheduleParams, SimDuration, SimRng, SimTime};

fn walk_cfg(seed: u64) -> ServerConfig {
    ServerConfig {
        scenario: Scenario {
            name: "server-drill".into(),
            environment: EnvSpec::Figure4,
            mobility: MobilitySpec::RandomWalk {
                population: 10,
                mean_dwell_secs: 90,
                span_mins: 15,
            },
            workload: WorkloadSpec::Paper71,
            strategy: Strategy::Paper,
            cell_throughput_kbps: 800.0,
            backbone_kbps: 100_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed,
        },
        checkpoint_every: 64,
        backlog_capacity: 64,
    }
}

fn faults_for(cfg: &ServerConfig, seed: u64) -> FaultSchedule {
    let params = FaultScheduleParams {
        span: SimDuration::from_mins(15),
        links: 20,
        zones: 1,
        portables: 10,
        ..FaultScheduleParams::default()
    };
    let _ = cfg;
    FaultSchedule::generate(&params, &SimRng::new(seed))
}

#[test]
fn kill_restore_replay_is_bit_identical_without_faults() {
    let cfg = walk_cfg(11);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    assert!(events.len() > 20, "stream too short to drill");
    for cut in [1, events.len() / 3, events.len() / 2, events.len() - 1] {
        let out = run_with_kill_restore(&cfg, &events, cut).expect("drill runs");
        assert_eq!(
            out.uninterrupted, out.recovered,
            "kill at {cut}/{} diverged",
            out.total_events
        );
    }
}

#[test]
fn kill_restore_replay_is_bit_identical_under_active_faults() {
    let cfg = walk_cfg(13);
    let faults = faults_for(&cfg, 99);
    assert!(!faults.is_empty(), "schedule must actually inject faults");
    let events = events_from_scenario(&cfg.scenario, &faults).expect("valid scenario");
    for cut in [events.len() / 4, events.len() / 2, 3 * events.len() / 4] {
        let out = run_with_kill_restore(&cfg, &events, cut).expect("drill runs");
        assert_eq!(
            out.uninterrupted, out.recovered,
            "faulted kill at {cut}/{} diverged",
            out.total_events
        );
    }
}

#[test]
fn kill_inside_a_link_outage_restores_the_outage_seal() {
    let cfg = walk_cfg(17);
    let faults = faults_for(&cfg, 101);
    let events = events_from_scenario(&cfg.scenario, &faults).expect("valid scenario");
    // Kill immediately after the first LinkDown lands, i.e. while the
    // outage seal is active — the snapshot must carry the sealed claim
    // and the replayed LinkUp must release it identically.
    let down_at = events
        .iter()
        .position(|e| matches!(e, ServerEvent::LinkDown { .. }))
        .expect("schedule injects a link outage");
    let out = run_with_kill_restore(&cfg, &events, down_at + 1).expect("drill runs");
    assert_eq!(
        out.uninterrupted, out.recovered,
        "kill inside an outage diverged"
    );
    assert!(
        out.snapshot_json.contains("Outage"),
        "snapshot taken mid-outage must carry the Outage seal"
    );
}

/// A kill right after a handoff drop, and one right after a refused
/// admission: the checkpoint holds `null` where the connection's record
/// was, the restored table issues the ids the uninterrupted one does,
/// and the two runs end in the same report and the same image bytes.
#[test]
fn kill_right_after_a_drop_and_a_block_is_bit_identical() {
    // A crowded wing with tight cells, so both happen early.
    let mut cfg = walk_cfg(42);
    cfg.scenario.environment = EnvSpec::OfficeWing { offices: 12 };
    cfg.scenario.mobility = MobilitySpec::RandomWalk {
        population: 96,
        mean_dwell_secs: 120,
        span_mins: 20,
    };
    cfg.scenario.cell_throughput_kbps = 400.0;
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");

    // Run A, noting the event that first dropped and first blocked.
    let mut live = Server::new(cfg.clone(), Obs::off()).expect("valid scenario");
    let (mut drop_cut, mut block_cut) = (None, None);
    for (i, ev) in events.iter().enumerate() {
        live.apply_event(ev).expect("generated events are valid");
        let m = &live.mgr.metrics;
        if m.dropped.get() > 0 {
            drop_cut.get_or_insert(i + 1);
        }
        if m.blocked.get() > 0 {
            block_cut.get_or_insert(i + 1);
        }
    }
    let end_image = live.snapshot().to_json().expect("snapshot serializes");

    for (what, cut) in [("drop", drop_cut), ("block", block_cut)] {
        let cut = cut.unwrap_or_else(|| panic!("the wing never saw a {what}"));
        let out = run_with_kill_restore(&cfg, &events, cut).expect("drill runs");
        assert_eq!(
            out.uninterrupted, out.recovered,
            "kill after the first {what} ({cut}/{}) diverged",
            out.total_events
        );
        // The retired slot is in the checkpoint as `null`, and every
        // record that is there is live.
        let snap = ServerSnapshot::from_json(&out.snapshot_json).expect("parses");
        let mut restored = Server::restore(snap, Obs::off()).expect("restores");
        let table = out
            .snapshot_json
            .split_once("\"conns\":[")
            .and_then(|(_, rest)| rest.split_once("],\"link_conns\""))
            .expect("a connection table")
            .0;
        assert!(
            table.contains("null"),
            "{what}: no retired slot in {table:.200}"
        );
        assert_eq!(
            table.matches("{\"id\":").count(),
            restored.mgr.net.live_connections().count()
        );
        for ev in &events[cut..] {
            restored
                .apply_event(ev)
                .expect("generated events are valid");
        }
        assert!(
            restored.snapshot().to_json().expect("snapshot serializes") == end_image,
            "kill after the first {what}: end images differ"
        );
    }
}

/// Kill after `events[..cut]`, restore, replay the rest: every slot
/// tick due by the last event runs exactly once across the crash, as in
/// the uninterrupted run, and the two end in the same image bytes.
fn assert_recovers(cfg: &ServerConfig, events: &[ServerEvent], cut: usize, what: &str) {
    let ticks = |server: &Server| server.mgr.obs.count(EventKind::ReservationSlotRolled);
    let run = |mut server: Server, events: &[ServerEvent]| {
        for ev in events {
            server.apply_event(ev).expect("valid event");
        }
        server
    };
    let fresh = || Server::new(cfg.clone(), Obs::recording(0)).expect("valid scenario");
    let live = run(fresh(), events);
    let victim = run(fresh(), &events[..cut]);
    let json = victim.snapshot().to_json().expect("snapshot serializes");
    let snap = ServerSnapshot::from_json(&json).expect("parses");
    let restored = Server::restore(snap, Obs::recording(0)).expect("restores");
    let restored = run(restored, &events[cut..]);
    let due = events.last().expect("a stream").time().ticks() / arm_core::SLOT.ticks();
    assert_eq!(ticks(&live), due, "{what}: the uninterrupted run");
    assert_eq!(
        ticks(&victim) + ticks(&restored),
        due,
        "{what}: across the crash"
    );
    assert!(
        restored.snapshot().to_json().expect("snapshot serializes")
            == live.snapshot().to_json().expect("snapshot serializes"),
        "{what}: end images differ"
    );
}

/// The checkpoint carries no slot cursor: a restore derives the next
/// tick from `last_time`. A kill right after a handoff at exactly
/// `k·SLOT` (tick `k` ran before it, the `>=` edge) and one right after
/// a mid-slot handoff, each followed by an event several slots later,
/// replay every tick exactly once.
#[test]
fn kill_at_a_slot_edge_and_mid_slot_replays_each_tick_once() {
    let cfg = walk_cfg(11);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let slot = arm_core::SLOT.ticks();
    let later = |t: SimTime| ServerEvent::QueuePressure {
        t: SimTime::from_ticks((t.ticks() / slot + 3) * slot + slot / 2),
        on: false,
    };
    // The first handoff with a slot boundary since the event before it,
    // moved back onto that boundary.
    let edge = (1..events.len())
        .find_map(|i| match events[i] {
            ServerEvent::Move { t, portable, to } => {
                let k = t.ticks() / slot * slot;
                (k > events[i - 1].time().ticks()).then(|| {
                    let t = SimTime::from_ticks(k);
                    (i, ServerEvent::Move { t, portable, to })
                })
            }
            _ => None,
        })
        .expect("a handoff follows a slot boundary");
    let mid = (edge.0 + 1..events.len())
        .find(|&i| matches!(events[i], ServerEvent::Move { t, .. } if t.ticks() % slot != 0))
        .expect("a mid-slot handoff");
    for (what, i, ev) in [
        ("slot edge", edge.0, edge.1),
        ("mid slot", mid, events[mid].clone()),
    ] {
        let mut stream = events[..i].to_vec();
        stream.push(ev.clone());
        stream.push(later(ev.time()));
        assert_recovers(&cfg, &stream, i + 1, what);
    }
}
