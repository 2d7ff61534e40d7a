//! The allocation contract of one manager `move`, pinned by the counting
//! global allocator — the manager-level sibling of
//! `crates/qos/tests/zero_alloc.rs`.
//!
//! On the benchmark's `wing_rush` floor (63 cells, 240 walkers, the
//! paper strategy with `B_dyn` and multicast on) at steady state, one
//! `portable_moved` — profile update, handoff admission, multicast
//! re-establishment and the claim refresh behind it — performs an
//! exact, asserted number of heap allocations. Neither the handoff nor
//! the claim refresh contributes any: they run off `Network`'s portable
//! index, the links' flat claim tables, the cell profiles' resident
//! tallies, the manager's uplink and neighbour route tables
//! (`arm_net::routing::{uplink_routes, neighbor_legs}`, computed once),
//! the dispatch memo beside each portable, the claim plans and the
//! resident scratch.
//! What is left is itemised at
//! [`MOVE_ALLOCATIONS`]. A stray `collect()` or `clone()` anywhere under
//! `portable_moved` compiles fine and regresses silently — this test
//! makes it a hard failure, as an exact count rather than a wall-clock
//! budget. (`crates/server/tests/zero_alloc.rs` does the same for
//! decoding one journal line.)

use arm_alloc_counter::{allocations_during, CountingAlloc};
use arm_core::scenario::{self, EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{ResourceManager, Strategy};
use arm_mobility::trace::MoveEvent;
use arm_mobility::WorkloadMix;
use arm_sim::{SimDuration, SimRng, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of the measured move, by where they happen:
///
/// * 2 — the profile update: the portable profile's majority recount for
///   the `(prev, cur)` triplet, and a tally entry;
/// * 0 — multicast re-establishment of the mover's one connection
///   toward the destination corridor's three neighbours, legs read from
///   the neighbour route table: its rows in `MulticastState`'s flat
///   table are re-written where they stand and the claims behind them
///   go into the wired links' flat tables, all within capacity;
/// * 0 — the claim refresh: the mover is filed under its new cell's
///   watch, its writes move between the plans' per-portable parts, the
///   links the guard re-runs replay into the flat claim tables, and each
///   lounge's transition row goes into a resident buffer
///   (`CellProfile::aggregate_row_into`) — every buffer within the
///   capacity earlier events left it;
/// * 0 — the handoff itself (route from the uplink table into the old
///   route's buffers, admission through resident scratch).
///
/// The benchmark's ledger row for the same quantity averaged over a
/// whole `wing_rush` pass (`alloc.apply.per_event`, which also counts
/// appearances, admissions and departures) was 695.6 before the refresh
/// stopped scanning and collecting, and 71.06 (this count at 42) while
/// every branch ran a live Dijkstra. This count was 6 while each branch
/// kept its own wired-link list in a map per connection (4 of them:
/// three lists and the map's leaf), and 12 while the claim tables were
/// B-trees (two nodes among the branch claims' inserts) and every
/// lounge spread built its transition row as a fresh map (four).
const MOVE_ALLOCATIONS: u64 = 2;

// Above this a re-pin is a finding, not a number to update.
const _: () = assert!(MOVE_ALLOCATIONS <= 5);

/// The `wing_rush` scenario (benchmark/src/gen.rs), seed 42.
fn wing() -> Scenario {
    Scenario {
        name: "zero-alloc-wing".into(),
        environment: EnvSpec::OfficeWing { offices: 30 },
        mobility: MobilitySpec::RandomWalk {
            population: 240,
            mean_dwell_secs: 120,
            span_mins: 40,
        },
        workload: WorkloadSpec::Paper71,
        strategy: Strategy::Paper,
        cell_throughput_kbps: 400.0,
        backbone_kbps: 100_000.0,
        wireless_error: 0.0,
        t_th_secs: 300,
        seed: 42,
    }
}

/// A manager on the [`wing`], replayed the way the scenario driver
/// does (appear + request, move, slot ticks) up to the first move at or
/// after twenty simulated minutes that `stop` accepts, given the
/// manager and the next slot boundary: everyone has appeared,
/// histories and resident buffers are warm. Returns the manager, that
/// move, not applied, and the next slot boundary, whose tick has not
/// run either.
fn warm_wing(
    stop: impl Fn(&MoveEvent, &ResourceManager, SimTime) -> bool,
) -> (ResourceManager, MoveEvent, SimTime) {
    let sc = wing();
    let (mut mgr, trace) = scenario::build_manager(&sc).expect("valid scenario");
    assert_eq!(mgr.net.topology().cell_count(), 63);
    let mut rng = SimRng::new(sc.seed).split("scenario-workload");
    let mix = WorkloadMix::paper71();
    let mut next_slot = SimTime::ZERO + SimDuration::from_mins(1);
    let warm_until = SimTime::from_mins(20);
    for ev in trace.events() {
        if ev.time >= warm_until && ev.from.is_some() && stop(ev, &mgr, next_slot) {
            return (mgr, *ev, next_slot);
        }
        while ev.time >= next_slot {
            mgr.slot_tick(next_slot);
            next_slot += SimDuration::from_mins(1);
        }
        match ev.from {
            None => {
                mgr.portable_appears(ev.portable, ev.to, ev.time);
                let _ = mgr.request_connection(ev.portable, mix.sample(&mut rng), ev.time);
            }
            Some(_) => {
                mgr.portable_moved(ev.portable, ev.to, ev.time);
            }
        }
    }
    panic!("the trace has no such move after warm-up");
}

#[test]
fn one_move_on_the_steady_wing_allocates_an_exact_count() {
    // The first move after warm-up of a portable that carries a live
    // connection, after the ticks due at its time.
    let (mut mgr, ev, mut next_slot) = warm_wing(|ev, mgr, _| {
        mgr.net
            .connections_of_portable(ev.portable)
            .next()
            .is_some()
    });
    while ev.time >= next_slot {
        mgr.slot_tick(next_slot);
        next_slot += SimDuration::from_mins(1);
    }
    assert!(mgr.net.live_connections().count() > 100, "the wing is busy");
    let (dropped, allocs) = allocations_during(|| mgr.portable_moved(ev.portable, ev.to, ev.time));
    assert!(dropped.is_empty(), "the measured handoff is carried");
    assert!(mgr.net.check_invariants().is_ok());
    assert_eq!(
        allocs, MOVE_ALLOCATIONS,
        "one steady-state move allocated {allocs} times, pinned at {MOVE_ALLOCATIONS}"
    );
}

/// One slot tick on the steady wing — the aggregate predictors fed,
/// the branches of the portables that settled in the last minute
/// retired, the claim refresh behind it — allocates nothing. Until the
/// tick only retired, it tore down and re-admitted every tracked
/// portable's branches: 617.4 allocations a tick on the steady wing.
#[test]
fn one_slot_tick_on_the_steady_wing_allocates_nothing() {
    // The first tick due after warm-up, before the move it rides on.
    let (mut mgr, _, slot) = warm_wing(|ev, _, next_slot| ev.time >= next_slot);
    let before = mgr.multicast.active_branches;
    let ((), allocs) = allocations_during(|| mgr.slot_tick(slot));
    assert!(mgr.net.check_invariants().is_ok());
    assert!(
        mgr.multicast.active_branches < before,
        "a portable settled at the measured tick ({before} branches before)"
    );
    assert_eq!(
        allocs, 0,
        "one steady-state slot tick allocated {allocs} times"
    );
}
