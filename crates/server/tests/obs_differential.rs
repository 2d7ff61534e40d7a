//! The observability layer's zero-interference contract.
//!
//! Observation must be strictly passive: replaying the same scenario
//! with `Obs::off()` (the default everywhere) and with a recording
//! observer installed must leave **bit-identical** servers — same
//! report bytes, same snapshot bytes. The recording run additionally
//! has to actually observe something — a silent observer would
//! trivially pass the differential check.

use arm_obs::{EventKind, Obs};
use arm_server::drill::run_with_faults;
use arm_server::{Server, ServerConfig};
use arm_sim::{FaultSchedule, FaultScheduleParams, SimDuration, SimRng};

/// A finished server's report and snapshot bytes.
fn bytes(server: &Server) -> (String, String) {
    let report = server.report("obs-differential").to_json().expect("report");
    let snapshot = server.snapshot().to_json().expect("snapshot");
    (report, snapshot)
}

#[test]
fn recording_observer_leaves_the_run_bit_identical() {
    let cfg = ServerConfig::office(23);
    let empty = FaultSchedule::empty();
    let (off, _) = run_with_faults(&cfg, &empty, Obs::off()).expect("valid scenario");
    let (mut on, summary) =
        run_with_faults(&cfg, &empty, Obs::recording(4096)).expect("valid scenario");
    assert_eq!(bytes(&off), bytes(&on));
    assert_eq!(
        summary.invariant_checks, 0,
        "nothing checked without faults"
    );
    // The observer saw the run: admissions, slot rolls, claim activity,
    // and phase timers all fired. (Maxmin rounds need the eqn-2
    // adaptation path, which scenarios leave off — covered in core.)
    let requests = on.mgr.metrics.requests.get();
    assert!(requests > 0);
    let obs = on.mgr.take_obs();
    assert!(obs.total_events() > 0, "recording run observed nothing");
    assert!(obs.count(EventKind::AdmitDecision) >= requests);
    assert!(obs.count(EventKind::ReservationSlotRolled) > 0);
    assert!(obs.count(EventKind::HandoffOutcome) > 0);
    assert!(!obs.snapshot_events().is_empty());
    assert!(obs.phase_summaries().iter().any(|p| p.spans > 0));
}

#[test]
fn recording_observer_leaves_a_faulted_run_bit_identical() {
    let cfg = ServerConfig::office(31);
    let params = FaultScheduleParams {
        span: SimDuration::from_mins(40 * 60),
        links: 20,
        zones: 1,
        portables: 30,
        ..FaultScheduleParams::default()
    };
    let sched = FaultSchedule::generate(&params, &SimRng::new(5));
    let (off, off_summary) = run_with_faults(&cfg, &sched, Obs::off()).expect("valid scenario");
    let (mut on, on_summary) =
        run_with_faults(&cfg, &sched, Obs::recording(4096)).expect("valid scenario");
    assert_eq!(bytes(&off), bytes(&on));
    assert_eq!(off_summary, on_summary);
    assert!(on_summary.link_failures > 0);
    // Fault entry points were traced.
    assert!(on.mgr.take_obs().count(EventKind::FaultInjected) > 0);
}
