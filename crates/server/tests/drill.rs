//! Crash-recovery drills: kill → restore → replay must be
//! **byte-identical** to never crashing, with and without active fault
//! schedules, including a kill point inside a link outage.

use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_server::drill::{events_from_scenario, run_with_kill_restore};
use arm_server::{ServerConfig, ServerEvent};
use arm_sim::{FaultSchedule, FaultScheduleParams, SimDuration, SimRng};

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
        slot: SimDuration::from_mins(1),
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
