//! Incremental vs from-scratch maxmin under churn.
//!
//! The workload models what the resource manager actually does between
//! events: one connection departs and a similar one is admitted, and the
//! excess division must be recomputed. The from-scratch path pays a full
//! [`MaxminProblem::solve`] per recompute; the resident
//! [`IncrementalMaxmin`] engine re-fills only the dirty region's
//! connected component. Results (and the speedup the CI gate watches)
//! are written to `BENCH_maxmin.json` at the repository root.
//!
//! Run with `ARM_BENCH_QUICK=1` for the CI smoke mode (fewer events,
//! same shape); full mode is the one quoted in EXPERIMENTS.md.

use std::time::Instant;

use arm_net::ids::{ConnId, LinkId};
use arm_qos::maxmin::centralized::ConnDemand;
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use arm_sim::SimRng;

/// One churn workload: `links` links, `per_link` local connections on
/// each, plus a two-link coupler every tenth link so components span
/// more than one link.
struct Workload {
    name: &'static str,
    links: usize,
    per_link: usize,
}

/// Measured cost of one churn event (depart + admit + recompute) under
/// both solver paths.
struct Row {
    name: &'static str,
    conns: usize,
    links: usize,
    full_ns: u128,
    incremental_ns: u128,
}

fn build_engine(w: &Workload, rng: &mut SimRng) -> IncrementalMaxmin {
    let mut engine = IncrementalMaxmin::new();
    for l in 0..w.links {
        engine.set_link_excess(LinkId(l as u32), rng.uniform(10.0, 60.0));
    }
    let mut id = 0u32;
    for l in 0..w.links {
        for _ in 0..w.per_link {
            let demand = if rng.chance(0.3) {
                rng.uniform(1.0, 8.0)
            } else {
                1e6
            };
            engine.upsert_conn(ConnId(id), demand, &[LinkId(l as u32)]);
            id += 1;
        }
        if l % 10 == 0 && l + 1 < w.links {
            engine.upsert_conn(ConnId(id), 1e6, &[LinkId(l as u32), LinkId(l as u32 + 1)]);
            id += 1;
        }
    }
    engine
}

/// Time `events` churn events (remove a connection, recompute, re-admit
/// it, recompute) against the from-scratch solver; returns ns/event.
fn measure_full(engine: &IncrementalMaxmin, events: usize, rng: &mut SimRng) -> u128 {
    let mut p = engine.as_problem();
    let ids: Vec<ConnId> = p.conns.keys().copied().collect();
    let start = Instant::now();
    for _ in 0..events {
        let id = ids[rng.index(ids.len())];
        let d = p.conns.remove(&id).expect("known conn");
        std::hint::black_box(p.solve());
        p.conns.insert(id, d);
        std::hint::black_box(p.solve());
    }
    start.elapsed().as_nanos() / events as u128
}

/// The same churn through the resident engine; returns ns/event.
fn measure_incremental(engine: &mut IncrementalMaxmin, events: usize, rng: &mut SimRng) -> u128 {
    let p = engine.as_problem();
    let ids: Vec<ConnId> = p.conns.keys().copied().collect();
    engine.resolve();
    let start = Instant::now();
    for _ in 0..events {
        let id = ids[rng.index(ids.len())];
        let ConnDemand { demand, links } = p.conns[&id].clone();
        engine.remove_conn(id);
        engine.resolve();
        std::hint::black_box(engine.rate(id));
        engine.upsert_conn(id, demand, &links);
        engine.resolve();
        std::hint::black_box(engine.rate(id));
    }
    start.elapsed().as_nanos() / events as u128
}

fn main() {
    let quick = std::env::var("ARM_BENCH_QUICK").is_ok();
    let mode = if quick { "quick" } else { "full" };
    let workloads = [
        Workload {
            name: "churn_1k",
            links: 100,
            per_link: 10,
        },
        Workload {
            name: "churn_10k",
            links: 200,
            per_link: 50,
        },
    ];
    let mut rows = Vec::new();
    for w in &workloads {
        let mut rng = SimRng::new(7);
        let mut engine = build_engine(w, &mut rng);
        let conns = engine.conn_count();
        // From-scratch cost is high; a handful of events is plenty of
        // signal. The incremental path is cheap enough to run thousands.
        let full_events = if quick { 2 } else { 5 };
        let incr_events = if quick { 200 } else { 2000 };
        let full_ns = measure_full(&engine, full_events, &mut rng.split("full"));
        let incremental_ns =
            measure_incremental(&mut engine, incr_events, &mut rng.split("incremental"));
        // Sanity: after all the churn the resident allocation still
        // matches a fresh solve bit for bit.
        let fresh = engine.as_problem().solve();
        engine.resolve();
        assert_eq!(fresh.len(), engine.conn_count());
        for (c, x) in engine.rates() {
            assert_eq!(fresh[&c].to_bits(), x.to_bits(), "{c:?} diverged");
        }
        println!(
            "{:>9}: {} conns / {} links  full {:>12} ns/event  incremental {:>9} ns/event  speedup {:.1}x",
            w.name,
            conns,
            w.links,
            full_ns,
            incremental_ns,
            full_ns as f64 / incremental_ns as f64,
        );
        rows.push(Row {
            name: w.name,
            conns,
            links: w.links,
            full_ns,
            incremental_ns,
        });
    }
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"workload\": \"{}\",\n      \"conns\": {},\n      \"links\": {},\n      \"full_solve_ns_per_event\": {},\n      \"incremental_solve_ns_per_event\": {},\n      \"speedup\": {:.2}\n    }}",
                r.name,
                r.conns,
                r.links,
                r.full_ns,
                r.incremental_ns,
                r.full_ns as f64 / r.incremental_ns as f64,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"incremental_maxmin\",\n  \"mode\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        mode,
        entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_maxmin.json");
    std::fs::write(path, &json).expect("write BENCH_maxmin.json");
    println!("wrote {path}");
    // The acceptance gate: resident re-solve must beat from-scratch by
    // at least 5x on the 10k-connection workload.
    let big = rows.last().expect("two workloads");
    let speedup = big.full_ns as f64 / big.incremental_ns as f64;
    assert!(
        speedup >= 5.0,
        "incremental must be >= 5x faster at 10k conns, got {speedup:.1}x"
    );
}
