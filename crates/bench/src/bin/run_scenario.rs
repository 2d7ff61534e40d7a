//! Run a declarative scenario file.
//!
//! ```text
//! cargo run --release -p arm-bench --bin run_scenario -- --emit-sample > my.json
//! cargo run --release -p arm-bench --bin run_scenario -- my.json
//! ```
//!
//! The scenario's trace is replayed through the server's event loop
//! (`arm_server::drill`), and what a server run reports is printed: the
//! `RunReport` JSON with its `MetricsSummary`.

use arm_bench::report as run_report;
use arm_core::scenario::Scenario;
use arm_obs::Obs;
use arm_server::drill::{run_with_faults, DrillError};
use arm_server::ServerConfig;
use arm_sim::FaultSchedule;

fn reject(e: DrillError) -> ! {
    match e {
        DrillError::Control(e) => eprintln!("scenario rejected: {e}"),
        other => eprintln!("{other}"),
    }
    std::process::exit(2);
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: run_scenario <scenario.json> | --emit-sample");
        std::process::exit(2);
    });
    if arg == "--emit-sample" {
        println!(
            "{}",
            serde_json::to_string_pretty(&Scenario::sample()).expect("serialises")
        );
        return;
    }
    let text = std::fs::read_to_string(&arg).unwrap_or_else(|e| {
        eprintln!("cannot read {arg}: {e}");
        std::process::exit(2);
    });
    let sc: Scenario = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("invalid scenario: {e}");
        std::process::exit(2);
    });
    let cfg = ServerConfig::from(sc);
    let (server, _) =
        run_with_faults(&cfg, &FaultSchedule::empty(), Obs::off()).unwrap_or_else(|e| reject(e));

    let rep = server.report("run_scenario");
    println!("{}", rep.to_json().expect("serialises"));
    run_report::emit_or_warn(&rep);
}
