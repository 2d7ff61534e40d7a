//! The per-subsystem ns/event budget gate.
//!
//! Runs a fixed, seeded workload twice over the manager — the §7.1
//! office scenario (admission, prediction, claim refresh, handoffs) and
//! a channel-fade adaptation driver (maxmin) — with a recording
//! observer attached, then reduces the `arm_obs` phase timers to one
//! **ns/event** figure per subsystem (span-weighted mean
//! `wall_us × 1000` across both runs).
//!
//! ```text
//! perf_budget            # measure, print the table, gate against PERF_BUDGET.json
//! perf_budget --write    # measure and (re)write PERF_BUDGET.json
//! ```
//!
//! The gate fails (exit 1) when any budgeted subsystem measures more
//! than `tolerance ×` its committed budget — CI runs it after the quick
//! benches so a hot-path regression (a stray `collect()`, a lost scratch
//! buffer) fails the build instead of landing silently. Budgets are
//! wall-clock and machine-specific: after a deliberate change (or a
//! runner upgrade) regenerate with `--write` and commit the diff; the
//! EXPERIMENTS.md budget table quotes the same file.

use std::collections::BTreeMap;

use arm_core::chaos::run_with_faults_obs;
use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{ManagerConfig, ResourceManager, Strategy};
use arm_mobility::environment::Figure4;
use arm_net::flowspec::QosRequest;
use arm_net::ids::PortableId;
use arm_obs::report::PhaseSummary;
use arm_obs::Obs;
use arm_sim::{FaultSchedule, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Headroom multiplier: measured > budget × tolerance fails the gate.
const TOLERANCE: f64 = 1.25;

/// One subsystem's committed budget.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PhaseBudget {
    /// Phase name (see `arm_obs::Phase::name`).
    phase: String,
    /// Budgeted mean cost per span, nanoseconds.
    ns_per_event: f64,
    /// Spans behind the committed measurement (informational).
    spans: u64,
}

/// The committed budget file (`PERF_BUDGET.json` at the repo root).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BudgetFile {
    /// What the numbers are.
    unit: String,
    /// Gate multiplier.
    tolerance: f64,
    /// Per-subsystem budgets.
    phases: Vec<PhaseBudget>,
}

fn budget_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../PERF_BUDGET.json").to_string()
}

/// The §7.1 office scenario: admission, prediction updates, claim
/// refreshes and handoffs under the paper's workload.
fn office_phases() -> Vec<PhaseSummary> {
    let sc = Scenario {
        name: "perf-budget-office".into(),
        environment: EnvSpec::Figure4,
        mobility: MobilitySpec::OfficeCase,
        workload: WorkloadSpec::Paper71,
        strategy: Strategy::Paper,
        cell_throughput_kbps: 1600.0,
        backbone_kbps: 100_000.0,
        wireless_error: 0.0,
        t_th_secs: 300,
        seed: 97,
    };
    let (_, obs) = run_with_faults_obs(&sc, &FaultSchedule::empty(), Obs::recording(4096))
        .expect("office scenario is valid");
    obs.phase_summaries()
}

/// Channel-fade adaptation rounds: the `maxmin` phase's spans.
fn adaptation_phases() -> Vec<PhaseSummary> {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        dyn_pool: None,
        t_th: SimDuration::from_secs(0),
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
    mgr.set_obs(Obs::recording(4096));
    let adaptive = QosRequest::bandwidth(40.0, 1600.0)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0);
    for i in 0..12u32 {
        let p = PortableId(i);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        mgr.request_connection(p, adaptive, SimTime::from_secs(1 + u64::from(i)))
            .expect("adaptive request admits");
    }
    // Fade/recover cycles; every change triggers an eqn-2 re-solve.
    for round in 0..64u64 {
        let frac = if round % 2 == 0 { 0.4 } else { 1.0 };
        mgr.channel_change(f4.c, frac, SimTime::from_secs(100 + 10 * round))
            .expect("valid fraction");
    }
    mgr.take_obs().phase_summaries()
}

/// Span-weighted mean ns/event per phase across every run.
fn measure() -> Vec<PhaseBudget> {
    let mut acc: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for summary in office_phases().into_iter().chain(adaptation_phases()) {
        if summary.spans == 0 {
            continue;
        }
        let e = acc.entry(summary.phase.clone()).or_insert((0.0, 0));
        e.0 += summary.wall_us.mean * 1000.0 * summary.spans as f64;
        e.1 += summary.spans;
    }
    acc.into_iter()
        .map(|(phase, (weighted_ns, spans))| PhaseBudget {
            phase,
            ns_per_event: weighted_ns / spans as f64,
            spans,
        })
        .collect()
}

fn main() {
    let write = std::env::args().any(|a| a == "--write");
    let measured = measure();

    println!("{:<22} {:>14} {:>8}", "subsystem", "ns/event", "spans");
    for m in &measured {
        println!("{:<22} {:>14.0} {:>8}", m.phase, m.ns_per_event, m.spans);
    }

    let path = budget_path();
    if write {
        let file = BudgetFile {
            unit: "ns_per_event".into(),
            tolerance: TOLERANCE,
            phases: measured,
        };
        let json = serde_json::to_string_pretty(&file).expect("budget serialises");
        std::fs::write(&path, json + "\n").expect("write PERF_BUDGET.json");
        println!("wrote {path}");
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e} (regenerate with --write)");
        std::process::exit(2);
    });
    let budget: BudgetFile = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("invalid {path}: {e}");
        std::process::exit(2);
    });
    let by_phase: BTreeMap<&str, f64> = measured
        .iter()
        .map(|m| (m.phase.as_str(), m.ns_per_event))
        .collect();
    let mut failed = false;
    for b in &budget.phases {
        let Some(got) = by_phase.get(b.phase.as_str()) else {
            // A budgeted subsystem the workload no longer reaches is a
            // coverage bug, not a perf regression; flag it loudly.
            println!("MISSING  {:<22} budgeted but not measured", b.phase);
            failed = true;
            continue;
        };
        let limit = b.ns_per_event * budget.tolerance;
        let verdict = if *got > limit { "FAIL" } else { "ok" };
        println!(
            "{verdict:>7}  {:<22} {:>12.0} ns/event vs budget {:>12.0} (limit {:>12.0})",
            b.phase, got, b.ns_per_event, limit
        );
        if *got > limit {
            failed = true;
        }
    }
    if failed {
        eprintln!("perf budget exceeded (tolerance {}x)", budget.tolerance);
        std::process::exit(1);
    }
    println!("perf budget ok (tolerance {}x)", budget.tolerance);
}
