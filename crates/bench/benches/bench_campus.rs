//! Campus-scale churn through the resident maxmin engine.
//!
//! The workload models an entire campus rather than one floor: ~10k
//! cells (one wireless link each, plus a sparse set of two-cell coupler
//! connections so some components span several links) carrying ~1M
//! connections. Churn arrives in per-tick batches — renegotiations,
//! handoffs between cells, capacity fades — and the engine coalesces
//! each batch into one re-fill per dirty component per tick
//! ([`IncrementalMaxmin::resolve`]). Results go to `BENCH_campus.json`
//! at the repository root; the bench itself is the CI gate (≥ 100k
//! coalesced churn events/sec).
//!
//! Run with `ARM_BENCH_QUICK=1` for the CI smoke mode (a 500-cell
//! campus, same shape); full mode is the one quoted in EXPERIMENTS.md.

use std::time::Instant;

use arm_net::ids::{ConnId, LinkId};
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use arm_sim::SimRng;

struct Campus {
    cells: usize,
    per_cell: usize,
    /// Every `coupler_every`-th cell gets one connection spanning it and
    /// the next cell, gluing their components together.
    coupler_every: usize,
}

impl Campus {
    fn conns(&self) -> usize {
        self.cells * self.per_cell + self.cells.div_ceil(self.coupler_every)
    }
}

/// Build the resident campus: per-cell link capacities, `per_cell` local
/// connections each, sparse couplers. Returns the engine plus the
/// per-cell resident lists the handoff events move connections between.
fn build(c: &Campus, rng: &mut SimRng) -> (IncrementalMaxmin, Vec<Vec<u32>>) {
    let mut e = IncrementalMaxmin::new();
    for l in 0..c.cells {
        e.set_link_excess(LinkId(l as u32), rng.uniform(200.0, 2000.0));
    }
    let mut residents: Vec<Vec<u32>> = vec![Vec::new(); c.cells];
    let mut id = 0u32;
    for (cell, locals) in residents.iter_mut().enumerate() {
        for _ in 0..c.per_cell {
            let demand = if rng.chance(0.3) {
                rng.uniform(1.0, 30.0)
            } else {
                1e6
            };
            e.upsert_conn(ConnId(id), demand, &[LinkId(cell as u32)]);
            locals.push(id);
            id += 1;
        }
    }
    let mut coupler = id;
    let mut cell = 0;
    while cell < c.cells {
        let next = (cell + 1) % c.cells;
        e.upsert_conn(
            ConnId(coupler),
            1e6,
            &[LinkId(cell as u32), LinkId(next as u32)],
        );
        coupler += 1;
        cell += c.coupler_every;
    }
    (e, residents)
}

/// Apply one batch of churn events (each one engine call), then let the
/// engine coalesce the batch into one re-fill per dirty component.
/// Returns the number of connections that round re-filled.
///
/// Churn is bursty, not uniform: each tick has a moving hot window of
/// ~2% of the cells (a class change flooding one wing) receiving 98% of
/// the events, the rest landing anywhere. That locality is what the
/// dirty-set batching exploits — hundreds of events against a hot cell
/// coalesce into one re-fill of its component.
fn churn_tick(
    e: &mut IncrementalMaxmin,
    residents: &mut [Vec<u32>],
    batch: usize,
    rng: &mut SimRng,
) -> usize {
    let cells = residents.len();
    let hot_size = (cells / 50).max(1);
    let hot_start = rng.index(cells);
    for _ in 0..batch {
        let cell = if rng.chance(0.98) {
            (hot_start + rng.index(hot_size)) % cells
        } else {
            rng.index(cells)
        };
        match rng.index(100) {
            // Renegotiation: a resident's demand changes in place.
            0..=59 if !residents[cell].is_empty() => {
                let id = residents[cell][rng.index(residents[cell].len())];
                let demand = if rng.chance(0.3) {
                    rng.uniform(1.0, 30.0)
                } else {
                    1e6
                };
                e.upsert_conn(ConnId(id), demand, &[LinkId(cell as u32)]);
            }
            // Handoff: a resident moves into the hot wing.
            60..=84 if !residents[cell].is_empty() => {
                let i = rng.index(residents[cell].len());
                let id = residents[cell].swap_remove(i);
                let to = (hot_start + rng.index(hot_size)) % cells;
                residents[to].push(id);
                e.upsert_conn(ConnId(id), 1e6, &[LinkId(to as u32)]);
            }
            // Fade (or the cell emptied out): its capacity moves.
            _ => {
                e.set_link_excess(LinkId(cell as u32), rng.uniform(200.0, 2000.0));
            }
        }
    }
    let before = e.stats.conns_resolved;
    e.resolve();
    (e.stats.conns_resolved - before) as usize
}

fn main() {
    let quick = std::env::var("ARM_BENCH_QUICK").is_ok();
    let mode = if quick { "quick" } else { "full" };
    let campus = if quick {
        Campus {
            cells: 500,
            per_cell: 20,
            coupler_every: 50,
        }
    } else {
        Campus {
            cells: 10_000,
            per_cell: 100,
            coupler_every: 50,
        }
    };
    let (ticks, batch) = if quick { (16, 4096) } else { (24, 32_768) };

    let mut rng = SimRng::new(7);
    let t0 = Instant::now();
    let (mut engine, mut residents) = build(&campus, &mut rng);
    let build_ms = t0.elapsed().as_millis();
    let t0 = Instant::now();
    engine.resolve();
    let cold_ms = t0.elapsed().as_millis();
    println!(
        "campus: {} cells, {} conns  (build {build_ms} ms, cold solve {cold_ms} ms)",
        campus.cells,
        engine.conn_count(),
    );

    // Re-filled counts expose the coalescing: one re-fill per dirty
    // component per tick, regardless of how many batch events hit it.
    let mut churn_rng = rng.split("churn");
    let mut refilled = 0usize;
    let start = Instant::now();
    for _ in 0..ticks {
        refilled += churn_tick(&mut engine, &mut residents, batch, &mut churn_rng);
    }
    let secs = start.elapsed().as_secs_f64();
    let events = (ticks * batch) as f64;
    let eps = events / secs;
    println!(
        " churn: {events} events in {secs:.3} s  ({eps:.0} events/sec, {refilled} conns re-filled)",
    );

    // Sanity: the resident allocation still matches a from-scratch
    // centralized solve bit for bit. The full-mode problem is ~1M
    // connections, where the from-scratch build itself takes whole
    // seconds — exactly the cost the engine amortizes away — so the
    // exhaustive check runs in quick mode (the incremental_prop and
    // chaos suites pin full bit-identicality at every scale they cover).
    if quick {
        let fresh = engine.as_problem().solve();
        assert_eq!(fresh.len(), engine.conn_count());
        for (c, x) in engine.rates() {
            assert_eq!(fresh[&c].to_bits(), x.to_bits(), "{c:?} diverged");
        }
        println!("verified: resident allocation bit-identical to from-scratch solve");
    }

    let json = format!(
        "{{\n  \"bench\": \"campus_maxmin\",\n  \"mode\": \"{}\",\n  \"cells\": {},\n  \"conns\": {},\n  \"ticks\": {},\n  \"batch_events_per_tick\": {},\n  \"build_ms\": {},\n  \"cold_solve_ms\": {},\n  \"events_per_sec\": {:.0},\n  \"conns_refilled\": {}\n}}\n",
        mode,
        campus.cells,
        campus.conns(),
        ticks,
        batch,
        build_ms,
        cold_ms,
        eps,
        refilled,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campus.json");
    std::fs::write(path, &json).expect("write BENCH_campus.json");
    println!("wrote {path}");

    // The acceptance gate: the engine must sustain at least 100k
    // coalesced churn events per second.
    assert!(
        eps >= 100_000.0,
        "campus churn must sustain >= 100k events/sec, got {eps:.0}"
    );
}
