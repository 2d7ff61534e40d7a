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
//!
//! The sync's link loop and the comparison of solved rates with the
//! ledger are pinned the same way: the links whose excess a sync wrote
//! (those that moved since the engine last held them) beside every link
//! at every round, and the connections a round compared (those its
//! re-fill reached, and its candidates) beside every connection the
//! engine held at every round.
//!
//! So is what the static set those rounds read cost to keep: the flips
//! its keeper popped and the one scan of its first refresh, beside the
//! scan of every tracked portable at every refresh that it replaces.

use std::collections::BTreeMap;

use arm_core::{ManagerConfig, ManagerEvent, ResourceManager, Strategy};
use arm_mobility::environment::office_wing;
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_net::flowspec::QosRequest;
use arm_net::ids::CellId;
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
/// Links whose excess the rounds' syncs wrote.
const LINKS_SYNCED: u64 = 23_233;
/// What the whole-table link loop wrote: every link at every round.
const WHOLE_TABLE_LINKS: u64 = 233_220;
/// Connections the rounds compared with their ledger rate.
const CONNS_COMPARED: u64 = 7_955;
/// What the whole-table comparison looked at: every connection the
/// engine held, at every round.
const WHOLE_ENGINE_CONNS: u64 = 39_985;
/// Portables the static set's keeper looked at (`RefreshStats`).
const STATICS_LOOKED: u64 = 2_103;
/// What a scan per refresh looked at: every tracked portable at each.
const WHOLE_SCAN_PORTABLES: u64 = 648_347;

/// `benchmark/src/gen.rs::adapt_rush` at a fifth of its population,
/// seed 42: wanderers on a ten-office wing, each with one adaptive
/// `[16, 1600]` connection, a fade or its recovery on a random cell
/// after every fourth trace event, slot ticks due before each event.
/// Returns the manager's counters, the whole-table counts and the
/// whole-scan count.
fn adaptive_wing_run() -> (ResourceManager, WholeTable, u64) {
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
    let mut whole = WholeTable::default();
    let (mut tracked, mut whole_scan) = (0u64, 0u64);
    // Every live connection, every link and every connection the engine
    // holds, at each event that ran a round: a round moves rates, never
    // adds or retires a connection. A hang-up of a connection a handoff
    // or a fade already dropped is refused and changes nothing.
    let mut apply = |mgr: &mut ResourceManager, ev| {
        if mgr.apply(&ev).is_ok_and(|outcome| outcome.round_ran) {
            whole.conns += mgr.net.live_connections().count() as u64;
            whole.links += mgr.net.topology().link_count() as u64;
            whole.engine_conns += mgr.maxmin().conn_count() as u64;
        }
    };
    for (i, ev) in trace.events().iter().enumerate() {
        // Every tracked portable, at each refresh the event runs.
        let refreshes = mgr.refresh_stats().refreshes;
        tracked += u64::from(ev.from.is_none());
        while ev.time >= next_slot {
            apply(&mut mgr, ManagerEvent::SlotTick { t: next_slot });
            next_slot += SimDuration::from_mins(1);
        }
        let (t, portable, cell, to) = (ev.time, ev.portable, ev.to, ev.to);
        match ev.from {
            None => {
                apply(&mut mgr, ManagerEvent::Appear { t, portable, cell });
                let qos = adaptive;
                apply(&mut mgr, ManagerEvent::Request { t, portable, qos });
            }
            Some(_) => apply(&mut mgr, ManagerEvent::Move { t, portable, to }),
        }
        if last[&ev.portable] == ev.time {
            apply(&mut mgr, ManagerEvent::Terminate { t, portable });
        }
        if (i + 1) % 4 == 0 {
            let c = fade_rng.index(cells);
            faded[c] = !faded[c];
            let fraction = if faded[c] {
                fade_rng.uniform(0.4, 0.8)
            } else {
                1.0
            };
            let cell = CellId::from_index(c);
            apply(&mut mgr, ManagerEvent::ChannelChange { t, cell, fraction });
        }
        whole_scan += (mgr.refresh_stats().refreshes - refreshes) * tracked;
    }
    (mgr, whole, whole_scan)
}

/// What the whole-table round's walks would have looked at over the
/// same rounds.
#[derive(Debug, Default)]
struct WholeTable {
    /// Live connections, at every round.
    conns: u64,
    /// Links, at every round.
    links: u64,
    /// Connections the engine held, at every round.
    engine_conns: u64,
}

#[test]
fn a_round_looks_only_at_what_changed() {
    let (mgr, whole, _) = adaptive_wing_run();
    let stats = mgr.maxmin().stats;
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
        (whole.conns, whole.links, whole.engine_conns),
        (WHOLE_TABLE_CONNS, WHOLE_TABLE_LINKS, WHOLE_ENGINE_CONNS),
        "the whole-table formulas moved"
    );
    assert_eq!(
        stats.conns_synced, CONNS_SYNCED,
        "the rounds looked at {} connections, pinned at {CONNS_SYNCED}",
        stats.conns_synced
    );
    assert_eq!(
        (stats.links_synced, stats.conns_compared),
        (LINKS_SYNCED, CONNS_COMPARED),
        "the rounds wrote {} links and compared {} connections",
        stats.links_synced,
        stats.conns_compared
    );
}

#[test]
fn the_static_set_is_kept_without_a_scan() {
    let (mgr, _, whole_scan) = adaptive_wing_run();
    let looked = mgr.refresh_stats().statics_looked;
    assert_eq!(
        whole_scan, WHOLE_SCAN_PORTABLES,
        "the whole-scan formula moved"
    );
    assert_eq!(
        looked, STATICS_LOOKED,
        "the keeper looked at {looked} portables, pinned at {STATICS_LOOKED}"
    );
}
