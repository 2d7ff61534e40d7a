//! Chaos soak harness: the §7.1 office case under randomized faults.
//!
//! ```text
//! cargo run --release -p arm-bench --bin expt_chaos -- [schedules] [seed]
//! ```
//!
//! Replays `schedules` (default 20) independently seeded
//! [`FaultSchedule`]s — link outages, profile-server outages,
//! control-plane degradation windows, handoff-signalling failures —
//! against the full §7.1 workweek through the server's event loop
//! (`arm_server::drill::run_with_faults`), asserting the degradation
//! invariants after every event: the ledger stays consistent (no
//! oversubscription), every live connection keeps its guaranteed floor
//! `b_min`, and the distributed maxmin protocol still converges to the
//! centralized oracle under the injected control-plane loss. A run that
//! survives prints a per-schedule summary row; any violation panics the
//! process.

use arm_bench::report;
use arm_obs::{ChaosSummary, Obs, RunReport};
use arm_server::drill::run_with_faults;
use arm_server::ServerConfig;
use arm_sim::{FaultSchedule, FaultScheduleParams, SimDuration, SimRng};

fn main() {
    let schedules: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let base_seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let cfg = ServerConfig::office(11);

    println!("== Chaos soak: §7.1 office case, {schedules} fault schedules ==\n");

    let params = FaultScheduleParams {
        span: SimDuration::from_mins(40 * 60), // the §7.1 workweek
        links: 20,
        zones: 1,
        portables: 30,
        ..FaultScheduleParams::default()
    };
    println!(
        "{:>4} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8}",
        "seed", "faults", "checks", "lnkdwn", "stale", "hsfail", "lost", "p_b", "p_d", "dropped"
    );
    let mut chaos_total = ChaosSummary::default();
    let mut rep = RunReport::new("expt_chaos", "section-7.1-office-chaos-soak");
    rep.seed = Some(base_seed);
    for i in 0..schedules {
        let seed = base_seed + i;
        let sched = FaultSchedule::generate(&params, &SimRng::new(seed));
        // The first schedule runs with a recording observer installed —
        // observation is strictly passive (asserted by the server's
        // differential tests), so the printed row is identical either
        // way; the report additionally gets event counts and phase
        // timers from a representative faulted run.
        let obs = if i == 0 {
            Obs::recording(8192)
        } else {
            Obs::off()
        };
        let (mut server, s) = run_with_faults(&cfg, &sched, obs)
            .unwrap_or_else(|e| panic!("schedule {seed}: scenario rejected: {e}"));
        if i == 0 {
            server.mgr.take_obs().fill_report(&mut rep);
        }
        assert_eq!(
            s.faults_applied,
            sched.len() as u64,
            "every fault must land"
        );
        chaos_total.schedules += s.schedules;
        chaos_total.faults_applied += s.faults_applied;
        chaos_total.invariant_checks += s.invariant_checks;
        chaos_total.lossy_maxmin_checks += s.lossy_maxmin_checks;
        chaos_total.link_failures += s.link_failures;
        chaos_total.stale_profile_fallbacks += s.stale_profile_fallbacks;
        chaos_total.handoff_signalling_failures += s.handoff_signalling_failures;
        chaos_total.lost_profile_updates += s.lost_profile_updates;
        let m = &server.mgr.metrics;
        println!(
            "{:>4} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8.4} {:>8.4} {:>8}",
            seed,
            s.faults_applied,
            s.invariant_checks,
            s.link_failures,
            s.stale_profile_fallbacks,
            s.handoff_signalling_failures,
            s.lost_profile_updates,
            m.p_b(),
            m.p_d(),
            m.dropped.get(),
        );
    }
    println!(
        "\nall {schedules} schedules survived: ledger consistent, floors held, \
         lossy maxmin converged after every event"
    );

    rep.chaos = Some(chaos_total);
    rep.notes
        .push("invariants asserted after every event of every schedule".into());
    report::emit_or_warn(&rep);
}
