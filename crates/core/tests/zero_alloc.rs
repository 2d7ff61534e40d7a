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
//! budget. [`ROUND_MOVE_ALLOCATIONS`] pins the same for a move that
//! runs an adaptation round, on `adapt_rush`'s adaptive wing.
//! (`crates/server/tests/zero_alloc.rs` does the same for decoding one
//! journal line.)

use arm_alloc_counter::{allocations_during, CountingAlloc};
use arm_core::scenario::{self, EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{Decision, ManagerConfig, ManagerEvent, ResourceManager, Strategy};
use arm_mobility::environment::office_wing;
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_mobility::trace::MoveEvent;
use arm_mobility::WorkloadMix;
use arm_net::flowspec::QosRequest;
use arm_net::ids::CellId;
use arm_sim::{SimDuration, SimRng, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of the measured move, by where they happen:
///
/// * 1 — the profile update: a tally entry. The portable profile's
///   majority vote for the `(prev, cur)` triplet counts the ring in
///   place (`HandoffHistory::majority_next`) — it was the second
///   allocation here while it recounted into a fresh map per handoff;
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
/// lounge spread built its transition row as a fresh map (four), and 2
/// while the triplet's majority was a recount into a fresh map.
const MOVE_ALLOCATIONS: u64 = 1;

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
            apply(&mut mgr, ManagerEvent::SlotTick { t: next_slot });
            next_slot += SimDuration::from_mins(1);
        }
        let (t, portable, cell, to) = (ev.time, ev.portable, ev.to, ev.to);
        match ev.from {
            None => {
                apply(&mut mgr, ManagerEvent::Appear { t, portable, cell });
                let qos = mix.sample(&mut rng);
                apply(&mut mgr, ManagerEvent::Request { t, portable, qos });
            }
            Some(_) => {
                apply(&mut mgr, ManagerEvent::Move { t, portable, to });
            }
        }
    }
    panic!("the trace has no such move after warm-up");
}

/// Apply one event of a well-formed stream; what it decided.
fn apply(mgr: &mut ResourceManager, ev: ManagerEvent) -> Decision {
    mgr.apply(&ev).expect("a well-formed event").decision
}

/// The measured move: its handoff must carry every connection.
fn carried(decision: Decision) {
    let no_drop = Decision::Handoff {
        dropped: Vec::new(),
        signalling_failed: false,
    };
    assert_eq!(decision, no_drop, "the measured handoff is carried");
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
        apply(&mut mgr, ManagerEvent::SlotTick { t: next_slot });
        next_slot += SimDuration::from_mins(1);
    }
    assert!(mgr.net.live_connections().count() > 100, "the wing is busy");
    let (t, portable, to) = (ev.time, ev.portable, ev.to);
    let (decision, allocs) =
        allocations_during(|| apply(&mut mgr, ManagerEvent::Move { t, portable, to }));
    carried(decision);
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
    let before = mgr.multicast().active_branches;
    let (_, allocs) = allocations_during(|| apply(&mut mgr, ManagerEvent::SlotTick { t: slot }));
    assert!(mgr.net.check_invariants().is_ok());
    assert!(
        mgr.multicast().active_branches < before,
        "a portable settled at the measured tick ({before} branches before)"
    );
    assert_eq!(
        allocs, 0,
        "one steady-state slot tick allocated {allocs} times"
    );
}

/// Allocations of one steady move on an adaptive wing with adaptation
/// rounds on (`adapt_rush`'s configuration), by where they happen:
///
/// * 0 — the profile update: the triplet's majority counts the ring in
///   place (it was 1 while it recounted into a fresh map per handoff);
/// * 1 — the slot's outflow tally: this is the first handoff out of a
///   cell since the last slot tick, and the tally is a fresh map each
///   slot;
/// * 1 — the adaptation round: two portables turned static since the
///   last round and their connections join the engine, one into a
///   connection slot no connection has used before (its route buffer);
/// * 0 — the rest of the round: the candidates — the written portables'
///   connections and, from the statics' flip log, the flipped ones' —
///   are gathered into the round feed's resident buffers, pinned,
///   diff-synced, re-filled on the engine's resident scratch and moved
///   onto their targets through the resolver's resident change list.
///
/// It was 6 while the engine's dirty set was a `BTreeSet`: a fresh leaf
/// at the first mark of every round, and more nodes as marks split it,
/// and 3 while the triplet's majority was a recount into a fresh map.
const ROUND_MOVE_ALLOCATIONS: u64 = 2;

// Above this a re-pin is a finding, not a number to update.
const _: () = assert!(ROUND_MOVE_ALLOCATIONS <= 5);

/// One move, 20 minutes into `benchmark/src/gen.rs::adapt_rush` at
/// two fifths of its population (seed 42): every portable holds one
/// adaptive `[16, 1600]` connection, a fade or its recovery follows
/// every fourth trace event, and the move runs an adaptation round.
#[test]
fn one_move_with_adaptation_rounds_allocates_an_exact_count() {
    let seed = 42;
    let env = office_wing(10);
    let params = RandomWalkParams {
        population: 400,
        mean_dwell: SimDuration::from_secs(120),
        span: SimDuration::from_mins(30),
        ..Default::default()
    };
    let trace = random_walk::generate(&env, &params, &mut SimRng::new(seed));
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
    for (i, ev) in trace.events().iter().enumerate() {
        while ev.time >= next_slot {
            apply(&mut mgr, ManagerEvent::SlotTick { t: next_slot });
            next_slot += SimDuration::from_mins(1);
        }
        let (t, portable, cell, to) = (ev.time, ev.portable, ev.to, ev.to);
        let carries = || {
            mgr.net
                .connections_of_portable(ev.portable)
                .next()
                .is_some()
        };
        if ev.time >= SimTime::from_mins(20) && ev.from.is_some() && carries() {
            let move_to = ManagerEvent::Move { t, portable, to };
            let (outcome, allocs) = allocations_during(|| mgr.apply(&move_to));
            let outcome = outcome.expect("a well-formed event");
            assert!(outcome.round_ran, "the move ran a round");
            carried(outcome.decision);
            assert!(mgr.net.check_invariants().is_ok());
            assert_eq!(
                allocs, ROUND_MOVE_ALLOCATIONS,
                "one steady move with rounds on allocated {allocs} times, \
                 pinned at {ROUND_MOVE_ALLOCATIONS}"
            );
            return;
        }
        match ev.from {
            None => {
                apply(&mut mgr, ManagerEvent::Appear { t, portable, cell });
                let qos = adaptive;
                apply(&mut mgr, ManagerEvent::Request { t, portable, qos });
            }
            Some(_) => {
                apply(&mut mgr, ManagerEvent::Move { t, portable, to });
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
            let cell = CellId::from_index(c);
            apply(&mut mgr, ManagerEvent::ChannelChange { t, cell, fraction });
        }
    }
    panic!("the trace has no such move after warm-up");
}
