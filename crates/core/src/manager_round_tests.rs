//! The adaptation round's candidate feed against the whole-table round.
//!
//! Twin managers take one stream: one runs the production round, which
//! walks only the connections of portables the network logged a write
//! for, or whose static/mobile status flipped, since the last round
//! (`RoundFeed`); the other (`use_reference_round`) walks every live
//! connection, read off the table. After every event both must hold
//! the same bits: every live connection's rate, every link's ledger and
//! the engine's work counters.

use std::collections::BTreeMap;

use arm_mobility::environment::{office_wing, Figure4};
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_net::ids::NodeId;
use arm_net::routing::shortest_path;
use arm_qos::maxmin::incremental::EngineStats;
use arm_sim::SimRng;

use super::*;

/// One call into the manager.
#[derive(Clone, Copy, Debug)]
enum Op {
    Appear(u32, CellId),
    Connect(u32, QosRequest),
    Move(u32, CellId),
    Terminate(u32),
    Fade(CellId, f64),
    FailWireless(CellId),
    RestoreWireless(CellId),
    /// The backbone hop of the cell's uplink fails / comes back.
    FailWired(CellId),
    RestoreWired(CellId),
    SlotTick,
}

/// Portable → its open connection, as the driver of a stream knows it.
type Conns = BTreeMap<u32, ConnId>;

fn apply(mgr: &mut ResourceManager, conns: &mut Conns, t: SimTime, op: Op) {
    let wired_hop = |mgr: &ResourceManager, cell: CellId| {
        let topo = mgr.net.topology();
        let uplink = shortest_path(topo, topo.air_node(cell), NodeId(0));
        uplink.invariant("star backbone is connected").links[1]
    };
    match op {
        Op::Appear(p, cell) => mgr.portable_appears(PortableId(p), cell, t),
        Op::Connect(p, qos) => {
            if let Ok(id) = mgr.request_connection(PortableId(p), qos, t) {
                conns.insert(p, id);
            }
        }
        Op::Move(p, cell) => {
            if mgr.portable_cell(PortableId(p)) != Some(cell) {
                mgr.portable_moved(PortableId(p), cell, t);
            }
        }
        Op::Terminate(p) => {
            if let Some(id) = conns.remove(&p) {
                mgr.terminate(id, t);
            }
        }
        Op::Fade(cell, f) => {
            mgr.channel_change(cell, f, t).expect("valid fraction");
        }
        Op::FailWireless(cell) => {
            let wl = mgr.net.topology().wireless_link(cell);
            mgr.link_failed(wl, t);
        }
        Op::RestoreWireless(cell) => {
            let wl = mgr.net.topology().wireless_link(cell);
            mgr.link_restored(wl, t);
        }
        Op::FailWired(cell) => {
            let l = wired_hop(mgr, cell);
            mgr.link_failed(l, t);
        }
        Op::RestoreWired(cell) => {
            let l = wired_hop(mgr, cell);
            mgr.link_restored(l, t);
        }
        Op::SlotTick => mgr.slot_tick(t),
    }
}

/// Every link's ledger: the four running sums, the claims and the
/// per-connection allocations, as bits.
type LedgerBits = ([u64; 4], Vec<(ResvClaim, u64)>, Vec<(ConnId, [u64; 3])>);

/// What the twins must agree on after every event.
#[derive(Debug, PartialEq)]
struct Bits {
    rates: Vec<(ConnId, u64)>,
    ledgers: Vec<LedgerBits>,
    /// `conns_synced` blanked: how many connections a round looked at
    /// is the one thing the two rounds are meant to differ in.
    stats: EngineStats,
    rounds: u64,
}

fn bits(mgr: &ResourceManager) -> Bits {
    let ledger = |l: &arm_net::LinkState| -> LedgerBits {
        (
            l.sum_bits(),
            l.claims().map(|(k, v)| (k, v.to_bits())).collect(),
            l.allocs()
                .map(|(c, a)| {
                    let a = [a.b_min.to_bits(), a.b_alloc.to_bits(), a.buffer.to_bits()];
                    (c, a)
                })
                .collect(),
        )
    };
    Bits {
        rates: mgr
            .net
            .live_connections()
            .map(|c| (c.id, c.b_current.to_bits()))
            .collect(),
        ledgers: mgr.net.links().map(|(_, l)| ledger(l)).collect(),
        stats: EngineStats {
            conns_synced: 0,
            ..mgr.maxmin.stats
        },
        rounds: mgr.adaptation_rounds,
    }
}

/// A manager rebuilt from the bytes of `mgr`'s snapshot: its engine and
/// its round feed start empty, its network decoded.
fn restored(mgr: &ResourceManager) -> ResourceManager {
    let json = mgr.snapshot().to_json().expect("snapshot serializes");
    let snap = ManagerSnapshot::from_json(&json).expect("snapshot parses");
    ResourceManager::restore(snap, Obs::off()).expect("snapshot restores")
}

/// Behind the manager's back, widen one connection's `b_max` (the first
/// static one, else the first) — a logged write, and an input of the
/// round — then swap the network for a decoded copy of itself, whose
/// log is empty: only the copy's "every portable counts as written"
/// tells the feed.
fn write_then_decode(mgr: &mut ResourceManager, now: SimTime) {
    let pick = mgr
        .net
        .live_connections()
        .find(|c| mgr.is_static(c.portable, now))
        .or_else(|| mgr.net.live_connections().next())
        .map(|c| c.id);
    if let Some(id) = pick {
        mgr.net.get_mut(id).invariant("live").qos.b_max += 100.0;
    }
    let json = serde_json::to_string(&mgr.net).expect("network serializes");
    mgr.net = serde_json::from_str(&json).expect("network parses");
}

/// Which events of `ops` run a round, on a plain run of the stream.
fn rounds_run(make: &dyn Fn() -> ResourceManager, ops: &[(SimTime, Op)]) -> Vec<bool> {
    let mut mgr = make();
    let mut conns = Conns::new();
    let mut ran = Vec::with_capacity(ops.len());
    for &(t, op) in ops {
        let before = mgr.adaptation_rounds;
        apply(&mut mgr, &mut conns, t, op);
        ran.push(mgr.adaptation_rounds > before);
    }
    ran
}

/// The first event at or after `from` whose round gate stays shut while
/// the next event's opens: a cut there makes a network new to the feed
/// outlive one refresh before it reaches a round.
fn shut_then_open(ran: &[bool], from: usize) -> usize {
    (from..ran.len().saturating_sub(1))
        .find(|&k| !ran[k] && ran[k + 1])
        .unwrap_or(from)
}

/// Drive the production twin and the whole-table twin through `ops`,
/// with two cuts made alike in both ([`shut_then_open`] past a third
/// and past two thirds of the stream): at the first, a write and a
/// decoded network ([`write_then_decode`]); at the second, both
/// managers restored from their snapshots. Returns the connections each
/// twin's rounds looked at after the restore: `(production, whole
/// table)`.
fn twins_agree(
    what: &str,
    make: &dyn Fn() -> ResourceManager,
    ops: &[(SimTime, Op)],
) -> (u64, u64) {
    let ran = rounds_run(make, ops);
    let decode_at = shut_then_open(&ran, ops.len() / 3);
    let restore_at = shut_then_open(&ran, 2 * ops.len() / 3);
    let mut live = make();
    let mut whole = make();
    whole.use_reference_round();
    let (mut live_conns, mut whole_conns) = (Conns::new(), Conns::new());
    for (k, &(t, op)) in ops.iter().enumerate() {
        if k == decode_at {
            write_then_decode(&mut live, t);
            write_then_decode(&mut whole, t);
        }
        if k == restore_at {
            live = restored(&live);
            whole = restored(&whole);
            whole.use_reference_round();
        }
        apply(&mut live, &mut live_conns, t, op);
        apply(&mut whole, &mut whole_conns, t, op);
        assert_eq!(bits(&live), bits(&whole), "{what}: event {k}, {op:?}");
    }
    assert!(live.adaptation_rounds > 0, "{what}: rounds must run");
    (
        live.maxmin.stats.conns_synced,
        whole.maxmin.stats.conns_synced,
    )
}

/// `benchmark/src/gen.rs::adapt_rush`, smaller: 120 wanderers on a
/// ten-office wing for 12 minutes, each with one adaptive `[16, 1600]`
/// connection, a fade or its recovery on a random cell after every
/// fourth trace event, and the slot ticks due before each event.
fn adapt_stream(seed: u64) -> (IndoorEnvironment, Vec<(SimTime, Op)>) {
    let env = office_wing(10);
    let params = RandomWalkParams {
        population: 120,
        mean_dwell: SimDuration::from_secs(120),
        span: SimDuration::from_mins(12),
        ..Default::default()
    };
    let trace = random_walk::generate(&env, &params, &mut SimRng::new(seed));
    let mut last = BTreeMap::new();
    for ev in trace.events() {
        last.insert(ev.portable, ev.time);
    }
    let adaptive = QosRequest::bandwidth(16.0, 1600.0)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0);
    let cells = env.cell_count();
    let mut faded = vec![false; cells];
    let mut fade_rng = SimRng::new(seed).split("bench-fades");
    let mut next_slot = SimTime::ZERO + SimDuration::from_mins(1);
    let mut ops = Vec::new();
    for (i, ev) in trace.events().iter().enumerate() {
        while ev.time >= next_slot {
            ops.push((next_slot, Op::SlotTick));
            next_slot += SimDuration::from_mins(1);
        }
        let p = ev.portable.0;
        match ev.from {
            None => {
                ops.push((ev.time, Op::Appear(p, ev.to)));
                ops.push((ev.time, Op::Connect(p, adaptive)));
            }
            Some(_) => ops.push((ev.time, Op::Move(p, ev.to))),
        }
        if last[&ev.portable] == ev.time {
            ops.push((ev.time, Op::Terminate(p)));
        }
        if (i + 1) % 4 == 0 {
            let c = fade_rng.index(cells);
            faded[c] = !faded[c];
            let fraction = if faded[c] {
                fade_rng.uniform(0.4, 0.8)
            } else {
                1.0
            };
            ops.push((ev.time, Op::Fade(CellId::from_index(c), fraction)));
        }
    }
    (env, ops)
}

/// The `adapt_rush` shape, seeds 0..8: portables turn static after
/// `T_th` with no write to their records, so the round must find them
/// through the statics diff. Even seeds run the benchmark's strategy
/// (none), odd seeds the paper's, whose dispatch pass keeps the statics.
#[test]
fn candidate_rounds_match_the_whole_table_on_the_rush() {
    for seed in 0..8u64 {
        let (env, ops) = adapt_stream(seed);
        let strategy = if seed % 2 == 0 {
            Strategy::None
        } else {
            Strategy::Paper
        };
        let make = || {
            let net = env.build_network(1600.0, 0.0, 100_000.0);
            let cfg = ManagerConfig {
                strategy,
                resolve_excess: true,
                ..Default::default()
            };
            ResourceManager::new(env.clone(), net, cfg)
        };
        let (live, whole) = twins_agree(&format!("rush seed {seed}"), &make, &ops);
        assert!(
            live < whole,
            "seed {seed}: the candidate rounds looked at {live} connections, the whole table {whole}"
        );
    }
}

/// `core/tests/chaos.rs::churn_schedule`, draw for draw: six portables
/// on the Figure 4 floor, heavy on wireless and wired failures and
/// restorations.
fn chaos_stream(seed: u64, len: usize) -> Vec<(SimTime, Op)> {
    let f4 = Figure4::build();
    let cells = [f4.a, f4.b, f4.c, f4.d, f4.e, f4.f, f4.g];
    let mut rng = SimRng::new(seed);
    let mut events = Vec::with_capacity(len);
    let connect = |p, b_min, b_max| {
        let qos = QosRequest::bandwidth(b_min, b_max)
            .with_delay(10.0)
            .with_jitter(10.0)
            .with_loss(1.0);
        Op::Connect(p, qos)
    };
    let mut home = [f4.a; 6];
    for p in 0..6u32 {
        let cell = cells[rng.index(cells.len())];
        home[p as usize] = cell;
        events.push(Op::Appear(p, cell));
        events.push(connect(p, 100.0, 1600.0));
    }
    let (mut wireless_down, mut wired_down) = (Vec::new(), Vec::new());
    while events.len() < len {
        let p = rng.index(6) as u32;
        let cell = cells[rng.index(cells.len())];
        let target = home[rng.index(6)];
        events.push(match rng.index(12) {
            0 => connect(p, rng.uniform(50.0, 200.0), rng.uniform(400.0, 1600.0)),
            1 => {
                home[p as usize] = cell;
                Op::Move(p, cell)
            }
            2 => Op::Terminate(p),
            3 => Op::Fade(cell, rng.uniform(0.3, 1.0)),
            4 | 5 => {
                wireless_down.push(target);
                Op::FailWireless(target)
            }
            6 | 7 => Op::RestoreWireless(wireless_down.pop().unwrap_or(cell)),
            8 | 9 => {
                wired_down.push(target);
                Op::FailWired(target)
            }
            _ => Op::RestoreWired(wired_down.pop().unwrap_or(cell)),
        });
    }
    let at = |k: usize| SimTime::from_secs(k as u64 + 1);
    events
        .into_iter()
        .enumerate()
        .map(|(k, op)| (at(k), op))
        .collect()
}

/// The chaos schedules, with eqn 2's gate wide open, throttled and all
/// but shut: squeezes and outage seals that come and go between rounds
/// are logged rate writes, so the round after them finds them.
#[test]
fn candidate_rounds_match_the_whole_table_under_chaos() {
    for seed in 0..16u64 {
        let ops = chaos_stream(seed, 60);
        for delta in [0.0, 200.0, 5000.0] {
            let make = || {
                let f4 = Figure4::build();
                let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
                let cfg = ManagerConfig {
                    strategy: Strategy::None,
                    resolve_excess: true,
                    dyn_pool: None,
                    t_th: SimDuration::from_secs(0),
                    delta,
                    ..Default::default()
                };
                ResourceManager::new(f4.env.clone(), net, cfg)
            };
            twins_agree(&format!("chaos seed {seed} δ={delta}"), &make, &ops);
        }
    }
}
