//! Chaos soak: the §7.1 office case under randomized fault schedules,
//! replayed through the server's event loop.
//!
//! Twenty independently seeded [`FaultSchedule`]s replay against the
//! full workweek. `drill::run_with_faults` asserts the degradation
//! invariants (ledger consistency, per-connection floors, lossy maxmin
//! convergence) after **every** event, so the assertions here only need
//! to confirm the schedules actually exercised the fault paths — any
//! invariant violation or panic inside the run fails the test on its
//! own.
//!
//! The soak is split into chunks of five schedules so the test harness
//! can run them on parallel threads.

use arm_core::SLOT;
use arm_net::ids::{CellId, PortableId, ZoneId};
use arm_obs::Obs;
use arm_server::drill::run_with_faults;
use arm_server::{Server, ServerConfig, ServerEvent};
use arm_sim::{FaultSchedule, FaultScheduleParams, SimDuration, SimRng, SimTime};

fn soak_params() -> FaultScheduleParams {
    FaultScheduleParams {
        span: SimDuration::from_mins(40 * 60), // the §7.1 workweek
        links: 20,
        zones: 1,
        portables: 30,
        ..FaultScheduleParams::default()
    }
}

/// Run schedules seeded `seeds` against the office case. Invariants are
/// asserted inside `run_with_faults` after every event.
fn soak(seeds: std::ops::Range<u64>) {
    let cfg = ServerConfig::office(11);
    let params = soak_params();
    for seed in seeds {
        let sched = FaultSchedule::generate(&params, &SimRng::new(seed));
        assert!(!sched.is_empty(), "schedule {seed} generated no faults");
        let (server, out) = run_with_faults(&cfg, &sched, Obs::off())
            .unwrap_or_else(|e| panic!("schedule {seed}: scenario rejected: {e}"));
        assert_eq!(
            out.faults_applied,
            sched.len() as u64,
            "schedule {seed}: every fault must be applied"
        );
        assert!(
            out.invariant_checks > 0,
            "schedule {seed}: invariants must be swept"
        );
        assert!(
            server.mgr.metrics.requests.get() > 0,
            "schedule {seed}: the workload must still run"
        );
    }
}

#[test]
fn soak_schedules_00_to_04() {
    soak(0..5);
}

#[test]
fn soak_schedules_05_to_09() {
    soak(5..10);
}

#[test]
fn soak_schedules_10_to_14() {
    soak(10..15);
}

#[test]
fn soak_schedules_15_to_19() {
    soak(15..20);
}

/// An office server holding one mobile portable with an open
/// connection in Figure 4's one zone (appeared at 10 s, so mobile until
/// `T_th` = 300 s): every claim refresh while the zone's profile server
/// is out counts exactly one stale-profile fallback.
fn one_mobile_portable() -> Server {
    let mut server = Server::new(ServerConfig::office(7), Obs::off()).expect("valid scenario");
    let appear = ServerEvent::Appear {
        t: SimTime::from_secs(10),
        portable: PortableId(0),
        cell: CellId(0),
    };
    server.apply_event(&appear).expect("valid event");
    assert_eq!(server.mgr.net.live_connections().count(), 1);
    assert_eq!(server.mgr.stale_profile_fallbacks, 0);
    server
}

/// One event order: every event, fault or trace, runs after the slot
/// ticks due at or before its time. An outage that starts on a slot
/// boundary starts after that boundary's refresh, so only the outage's
/// own refresh falls back.
#[test]
fn a_profile_server_lost_on_a_slot_boundary_misses_that_ticks_refresh() {
    let mut server = one_mobile_portable();
    let boundary = SimTime::ZERO + SLOT;
    let down = ServerEvent::ProfileServerDown {
        t: boundary,
        zone: ZoneId(0),
    };
    server.apply_event(&down).expect("valid event");
    assert_eq!(server.mgr.stale_profile_fallbacks, 1);
}

/// The other edge of the same order: a server that comes back on a
/// slot boundary is still out for that boundary's refresh.
#[test]
fn a_profile_server_back_on_a_slot_boundary_is_out_for_that_ticks_refresh() {
    let mut server = one_mobile_portable();
    let zone = ZoneId(0);
    let down = ServerEvent::ProfileServerDown {
        t: SimTime::from_secs(70),
        zone,
    };
    server.apply_event(&down).expect("valid event");
    assert_eq!(
        server.mgr.stale_profile_fallbacks, 1,
        "the outage's refresh"
    );
    let boundary = SimTime::ZERO + SLOT + SLOT;
    let up = ServerEvent::ProfileServerUp { t: boundary, zone };
    server.apply_event(&up).expect("valid event");
    assert_eq!(server.mgr.stale_profile_fallbacks, 2, "the tick's refresh");
}
