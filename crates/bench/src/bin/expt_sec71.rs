//! §7.1 office-case experiment: fan-out counts, prediction accuracy, and
//! reservation waste.
//!
//! Paper reference values (one workweek in the UIUC ECE building):
//!
//! ```text
//! faculty : 127 C→D traversals → 94 into A, 20 into B, 13 to F/G
//! students: 218 C→D traversals → 12 into A, 173 into B, 33 to F/G
//! everyone: 1384 C→D traversals (39 → A and 17 → B from non-tracked)
//! ```
//!
//! Conclusions to reproduce: (a) deterministic reservation for office
//! occupants is valid (regulars are highly predictable), (b) brute-force
//! reservation in all neighbours is extremely wasteful.

use arm_bench::{report, table_row};
use arm_core::driver::office;
use arm_obs::RunReport;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("== §7.1 office case (seed {seed}) ==\n");
    let r = office::run(seed);

    println!("Fan-out of C→D traversals (paper: faculty 127→94/20/13,");
    println!("students 218→12/173/33, all 1384):\n");
    let w = [10, 8, 6, 6, 8];
    println!(
        "{}",
        table_row(
            &[
                "population".into(),
                "C→D".into(),
                "→A".into(),
                "→B".into(),
                "→F/G".into()
            ],
            &w
        )
    );
    for (name, cd, a, b, fg) in &r.fanout {
        println!(
            "{}",
            table_row(
                &[
                    name.clone(),
                    cd.to_string(),
                    a.to_string(),
                    b.to_string(),
                    fg.to_string()
                ],
                &w
            )
        );
    }

    println!("\nThree-level prediction accuracy:\n");
    let w = [10, 11, 9, 9, 9];
    println!(
        "{}",
        table_row(
            &[
                "population".into(),
                "predicted".into(),
                "correct".into(),
                "hit-rate".into(),
                "level-3".into()
            ],
            &w
        )
    );
    for (name, acc) in &r.accuracy {
        println!(
            "{}",
            table_row(
                &[
                    name.clone(),
                    acc.predicted.to_string(),
                    acc.correct.to_string(),
                    format!("{:.1}%", acc.hit_rate() * 100.0),
                    acc.unpredicted.to_string()
                ],
                &w
            )
        );
    }

    println!("\nReservation cost (user-cell-seconds held in advance):\n");
    for (scheme, cost) in &r.reserved_cell_seconds {
        println!(
            "  {scheme:>12}: {:>12.0}  ({:.2}× the dwell total)",
            cost,
            cost / r.dwell_cell_seconds.max(1.0)
        );
    }
    let brute = r.reserved_cell_seconds["brute-force"];
    let predicted = r.reserved_cell_seconds["prediction"];
    println!(
        "\n  (dwell total — one cell held for the whole of every dwell: {:.0};",
        r.dwell_cell_seconds
    );
    println!("   brute force over it is the dwell-weighted mean neighbour count)");
    println!(
        "  brute force holds {:.1}× what prediction holds",
        brute / predicted.max(1.0)
    );
    println!("\nPaper's conclusions: occupants are deterministically predictable;");
    println!("brute force is wasteful: it holds every neighbour for the whole dwell,");
    println!("where prediction holds one cell until the portable turns static.");

    let mut rep = RunReport::new("expt_sec71", "section-7.1-office-case");
    rep.seed = Some(seed);
    for (name, cd, a, b, fg) in &r.fanout {
        rep.notes.push(format!(
            "fan-out {name}: C→D {cd} → A {a} / B {b} / F+G {fg}"
        ));
    }
    for (name, acc) in &r.accuracy {
        rep.notes.push(format!(
            "accuracy {name}: {:.1}% over {} predicted moves",
            acc.hit_rate() * 100.0,
            acc.predicted
        ));
    }
    for (scheme, cost) in &r.reserved_cell_seconds {
        rep.notes.push(format!(
            "reservation cost {scheme}: {:.0} user-cell-seconds ({:.2}x dwell total)",
            cost,
            cost / r.dwell_cell_seconds.max(1.0)
        ));
    }
    report::emit_or_warn(&rep);
}
