//! The adaptation round's exact work on a seeded adaptive wing run,
//! pinned as counters, not wall-clock (`EngineStats`).
//!
//! A round's pin and sync walk only their candidates: the connections
//! of portables with a connection-record write since the last round, or
//! whose static/mobile status flipped (DESIGN §7). The whole-table round
//! they replace walked every live connection, twice. Both counts are
//! pinned here, with the engine's re-fill counters, which must not move
//! when the walk shrinks: the same upserts reach the engine in the same
//! order.

use std::collections::BTreeMap;

use arm_core::{ManagerConfig, ResourceManager, Strategy};
use arm_mobility::environment::office_wing;
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId};
use arm_sim::{SimDuration, SimRng, SimTime};

/// Connections the rounds' pin and sync looked at.
const CONNS_SYNCED: u64 = 6_866;
/// What the whole-table round looked at over the same rounds: every
/// live connection at each.
const WHOLE_TABLE_CONNS: u64 = 566_411;
/// The engine's counters, the same under either walk.
const INCREMENTAL_SOLVES: u64 = 3_374;
const CACHE_HITS: u64 = 6;
const CONNS_RESOLVED: u64 = 4_378;

/// `benchmark/src/gen.rs::adapt_rush` at a fifth of its population,
/// seed 42: wanderers on a ten-office wing, each with one adaptive
/// `[16, 1600]` connection, a fade or its recovery on a random cell
/// after every fourth trace event, slot ticks due before each event.
/// Returns the manager's counters and the whole-table count.
fn adaptive_wing_run() -> (ResourceManager, u64) {
    let seed = 42;
    let env = office_wing(10);
    let params = RandomWalkParams {
        population: 200,
        mean_dwell: SimDuration::from_secs(120),
        span: SimDuration::from_mins(30),
        ..Default::default()
    };
    let trace = random_walk::generate(&env, &params, &mut SimRng::new(seed));
    let mut last = BTreeMap::new();
    for ev in trace.events() {
        last.insert(ev.portable, ev.time);
    }
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        ..Default::default()
    };
    let cells = env.cell_count();
    let mut mgr = ResourceManager::new(env, net, cfg);
    let adaptive = QosRequest::bandwidth(16.0, 1600.0)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0);
    let mut faded = vec![false; cells];
    let mut fade_rng = SimRng::new(seed).split("bench-fades");
    let mut next_slot = SimTime::ZERO + SimDuration::from_mins(1);
    let mut conns: BTreeMap<_, ConnId> = BTreeMap::new();
    let mut whole_table = 0u64;
    // Every live connection, at each event that ran a round: a round
    // moves rates, never adds or retires a connection.
    let tally = |mgr: &ResourceManager, before: u64, whole_table: &mut u64| {
        if mgr.adaptation_rounds > before {
            *whole_table += mgr.net.live_connections().count() as u64;
        }
    };
    for (i, ev) in trace.events().iter().enumerate() {
        while ev.time >= next_slot {
            let before = mgr.adaptation_rounds;
            mgr.slot_tick(next_slot);
            tally(&mgr, before, &mut whole_table);
            next_slot += SimDuration::from_mins(1);
        }
        let before = mgr.adaptation_rounds;
        match ev.from {
            None => {
                mgr.portable_appears(ev.portable, ev.to, ev.time);
                if let Ok(id) = mgr.request_connection(ev.portable, adaptive, ev.time) {
                    conns.insert(ev.portable, id);
                }
            }
            Some(_) => {
                mgr.portable_moved(ev.portable, ev.to, ev.time);
            }
        }
        tally(&mgr, before, &mut whole_table);
        if last[&ev.portable] == ev.time {
            if let Some(id) = conns.remove(&ev.portable) {
                let before = mgr.adaptation_rounds;
                mgr.terminate(id, ev.time);
                tally(&mgr, before, &mut whole_table);
            }
        }
        if (i + 1) % 4 == 0 {
            let c = fade_rng.index(cells);
            faded[c] = !faded[c];
            let fraction = if faded[c] {
                fade_rng.uniform(0.4, 0.8)
            } else {
                1.0
            };
            let before = mgr.adaptation_rounds;
            mgr.channel_change(CellId::from_index(c), fraction, ev.time)
                .expect("valid fraction");
            tally(&mgr, before, &mut whole_table);
        }
    }
    (mgr, whole_table)
}

#[test]
fn a_round_looks_only_at_what_changed() {
    let (mgr, whole_table) = adaptive_wing_run();
    let stats = mgr.maxmin.stats;
    assert_eq!(mgr.adaptation_rounds, 3_380, "rounds run");
    assert_eq!(
        (
            stats.incremental_solves,
            stats.cache_hits,
            stats.conns_resolved
        ),
        (INCREMENTAL_SOLVES, CACHE_HITS, CONNS_RESOLVED),
        "the engine's work moved: {stats:?}"
    );
    assert_eq!(
        whole_table, WHOLE_TABLE_CONNS,
        "the whole-table formula moved"
    );
    assert_eq!(
        stats.conns_synced, CONNS_SYNCED,
        "the rounds looked at {} connections, pinned at {CONNS_SYNCED}",
        stats.conns_synced
    );
}
