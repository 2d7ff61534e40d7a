//! Lecture day: the paper's flagship scenario end to end.
//!
//! A classroom on a busy corridor; a lecture of 35 and a laboratory of
//! 55; every user carries one 16/64 kbps connection; three advance
//! reservation algorithms compete on the same trace. Prints the Figure 5
//! style activity series and the drop comparison.
//!
//! ```text
//! cargo run --release -p arm-bench --example lecture_day
//! ```

use arm_bench::fig5;

fn main() {
    println!("lecture day — who survives the class change?\n");
    for (label, n) in [("lecture of 35", 35usize), ("laboratory of 55", 55)] {
        println!("== {label} ==");
        let results = fig5::compare(n, 42);
        for r in &results {
            println!(
                "  {:<12} offered load {:>4.0}%  attendee drops {:>3}  walk-by drops {:>3}",
                r.strategy,
                r.offered_load * 100.0,
                r.drops,
                r.walkby_drops
            );
        }
        let best = &results[2];
        println!("\n  classroom arrivals per minute (meeting-room run):");
        let values = best.into_room.values();
        for (min, v) in values.iter().enumerate() {
            if *v > 0.0 {
                println!("    minute {min:>3}: {}", "#".repeat(*v as usize));
            }
        }
        println!();
    }
    println!("the meeting-room algorithm reserves for exactly the booked attendance");
    println!("and releases no-shows after five minutes — nobody gets dropped.");
}
