//! Server soak + crash-recovery drill: the §7.1 office workweek as a
//! long-running server, killed mid-run and recovered.
//!
//! ```text
//! cargo run --release -p arm-bench --bin expt_soak -- [seed] [kill_pct]
//! ```
//!
//! Converts the office scenario plus an active fault schedule into the
//! server event stream, then runs the crash-recovery drill: one server
//! straight through, one killed after `kill_pct`% of the stream
//! (default 50), restored from its own serialized snapshot, and
//! replayed over the suffix. The acceptance bar is **byte equality** of
//! the two final run reports — any snapshot omission (an RNG, a dirty
//! set, a sealed claim) fails the soak. The uninterrupted report and
//! the mid-run snapshot are written to the run-report directory as CI
//! artifacts.

use arm_bench::report;
use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_obs::RunReport;
use arm_server::drill::{events_from_scenario, run_with_kill_restore};
use arm_server::ServerConfig;
use arm_sim::{FaultSchedule, FaultScheduleParams, SimDuration, SimRng};

fn office_cfg(seed: u64) -> ServerConfig {
    ServerConfig {
        scenario: Scenario {
            name: "soak-office".into(),
            environment: EnvSpec::Figure4,
            mobility: MobilitySpec::OfficeCase,
            workload: WorkloadSpec::Paper71,
            strategy: Strategy::Paper,
            cell_throughput_kbps: 1600.0,
            backbone_kbps: 100_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed,
        },
        checkpoint_every: 256,
        backlog_capacity: 1024,
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let kill_pct: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
        .min(100);

    let cfg = office_cfg(seed);
    let params = FaultScheduleParams {
        span: SimDuration::from_mins(40 * 60), // the §7.1 workweek
        links: 20,
        zones: 1,
        portables: 30,
        ..FaultScheduleParams::default()
    };
    let faults = FaultSchedule::generate(&params, &SimRng::new(seed ^ 0x5eed));
    let events = events_from_scenario(&cfg.scenario, &faults)
        .unwrap_or_else(|e| panic!("scenario rejected: {e}"));
    let kill_after = events.len() * kill_pct / 100;
    println!(
        "soak: {} events ({} faults merged), kill at {kill_after} ({kill_pct}%)",
        events.len(),
        faults.len()
    );

    let out = run_with_kill_restore(&cfg, &events, kill_after)
        .unwrap_or_else(|e| panic!("drill failed: {e}"));
    assert_eq!(
        out.uninterrupted, out.recovered,
        "CRASH-RECOVERY DRILL FAILED: restored+replayed report differs from uninterrupted run"
    );
    println!(
        "drill: restore+replay byte-identical to uninterrupted run \
         ({} bytes of report, {} bytes of snapshot)",
        out.uninterrupted.len(),
        out.snapshot_json.len()
    );

    // Artifacts: the (identical) report, annotated with drill context,
    // plus the mid-run snapshot itself.
    let mut rep = RunReport::from_json(&out.uninterrupted)
        .unwrap_or_else(|e| panic!("drill report unparsable: {e}"));
    rep.bin = "expt_soak".to_string();
    rep.notes.push(format!(
        "crash-recovery drill: killed after {}/{} events, restored from a {}-byte snapshot, \
         replayed suffix, final reports byte-identical",
        out.killed_after,
        out.total_events,
        out.snapshot_json.len()
    ));
    rep.notes.push(format!(
        "fault schedule: {} events merged into stream",
        faults.len()
    ));
    report::emit_or_warn(&rep);

    let snap_path = report::report_dir().join("soak-snapshot.json");
    match std::fs::write(&snap_path, &out.snapshot_json) {
        Ok(()) => println!("snapshot artifact -> {}", snap_path.display()),
        Err(e) => eprintln!("warning: could not write snapshot artifact: {e}"),
    }
}
