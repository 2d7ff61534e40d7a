//! The twin harness ([`first_divergence`]): production, or one of its
//! seeded mutants, against a whole-table reference on one stream. The
//! churn streams run against [`Twin::WholeTable`], every other stream
//! against [`Twin::WholeTableAndResync`] (DESIGN §11).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use arm_mobility::environment::{office_wing, Figure4};
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_mobility::trace::MoveEvent;
use arm_mobility::{MobilityTrace, WorkloadMix};
use arm_net::ids::NodeId;
use arm_net::routing::shortest_path;
use arm_obs::MetricsSummary;
use arm_qos::maxmin::incremental::{EngineStats, IncrementalMaxmin};
use arm_reservation::meeting::Meeting;
use arm_sim::SimRng;

use super::*;
use crate::scenario::{self, EnvSpec, MobilitySpec, Scenario, WorkloadSpec};

/// A request with the churn and chaos streams' delay, jitter and loss.
fn shaped(b_min: f64, b_max: f64) -> QosRequest {
    QosRequest::bandwidth(b_min, b_max)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0)
}

/// A manager over `env`'s 1600 kbps cells and wide backbone, as `twin`.
fn manager(env: &IndoorEnvironment, cfg: ManagerConfig, twin: Twin) -> ResourceManager {
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let mut mgr = ResourceManager::new(env.clone(), net, cfg);
    mgr.set_twin(twin);
    mgr
}

/// Each cell's wireless link and the backbone hop of its uplink, by
/// cell: the links a stream's faults name.
fn fault_links(env: &IndoorEnvironment) -> Vec<[LinkId; 2]> {
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let topo = net.topology();
    let links = |(cell, _)| {
        let uplink = shortest_path(topo, topo.air_node(cell), NodeId(0));
        let uplink = uplink.invariant("star backbone is connected");
        [topo.wireless_link(cell), uplink.links[1]]
    };
    env.cells().map(links).collect()
}

/// One link's running sums, claims and allocations, as bits.
type LedgerBits = ([u64; 4], Vec<(ResvClaim, u64)>, Vec<(ConnId, [u64; 3])>);

/// What the twins must agree on after every event.
struct State {
    ledgers: Vec<LedgerBits>,
    rates: Vec<(ConnId, u64)>,
    multicast: MulticastState,
    /// The walk counters blanked: the whole-table round looks at more.
    stats: EngineStats,
    rounds: u64,
    metrics: MetricsSummary,
    applied: Result<Outcome, Refused>,
}

impl State {
    fn of(mgr: &ResourceManager, applied: Result<Outcome, Refused>) -> State {
        let ledger = |l: &arm_net::LinkState| -> LedgerBits {
            let alloc = |a: &arm_net::link::Alloc| {
                [a.b_min.to_bits(), a.b_alloc.to_bits(), a.buffer.to_bits()]
            };
            (
                l.sum_bits(),
                l.claims().map(|(k, v)| (k, v.to_bits())).collect(),
                l.allocs().map(|(c, a)| (c, alloc(a))).collect(),
            )
        };
        let rate = |c: &Connection| (c.id, c.b_current.to_bits());
        State {
            ledgers: mgr.net.links().map(|(_, l)| ledger(l)).collect(),
            rates: mgr.net.live_connections().map(rate).collect(),
            multicast: mgr.multicast.clone(),
            stats: EngineStats {
                conns_synced: 0,
                links_synced: 0,
                conns_compared: 0,
                ..mgr.maxmin.stats
            },
            rounds: mgr.adaptation_rounds,
            metrics: mgr.metrics.summary(),
            applied,
        }
    }

    /// The first part in which `self` and `other` differ, and where.
    fn difference(&self, other: &State) -> Option<String> {
        first("ledger", &self.ledgers, &other.ledgers)
            .or_else(|| first("rate", &self.rates, &other.rates))
            .or_else(|| first("multicast", &[&self.multicast], &[&other.multicast]))
            .or_else(|| first("engine stats", &[self.stats], &[other.stats]))
            .or_else(|| first("rounds", &[self.rounds], &[other.rounds]))
            .or_else(|| first("metrics", &[&self.metrics], &[&other.metrics]))
            .or_else(|| first("outcome", &[&self.applied], &[&other.applied]))
    }
}

/// Where `a` and `b` first differ, and both sides there.
fn first<T: PartialEq + std::fmt::Debug>(part: &str, a: &[T], b: &[T]) -> Option<String> {
    let k = (0..a.len().max(b.len())).find(|&k| a.get(k) != b.get(k))?;
    let (x, y) = (a.get(k), b.get(k));
    Some(format!("{part}[{k}]: {x:?} against {y:?}"))
}

/// What the subject reached: `claims` summed over the events, `retired`
/// by slot ticks, `synced` (and the reference's) since the restore cut.
#[derive(Debug, Default)]
struct Reach {
    dispatches: u64,
    fallbacks: u64,
    claims: usize,
    rounds: u64,
    synced: (u64, u64),
    peak_branches: usize,
    retired: usize,
    failed_branches: u64,
}

/// An obs stream with each `MaxminRound`'s work counters blanked: the
/// restored subject's engine, a cache, starts cold.
fn rounds_uncounted(obs: &Obs) -> Vec<ObsEvent> {
    let uncounted = |ev| match ev {
        ObsEvent::MaxminRound { t, .. } => ObsEvent::MaxminRound {
            t,
            conns_resolved: 0,
            conns_reused: 0,
        },
        other => other,
    };
    obs.snapshot_events().into_iter().map(uncounted).collect()
}

/// Widen one connection's `b_max` (the first static one's, else the
/// first's) — a logged write — then swap the network for a decoded
/// copy, whose empty log says only "every portable counts as written".
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

/// The cut points: the first event from a third and from two thirds of
/// `ops` on whose round gate stays shut while the next event's opens (a
/// network new to the round feed outlives a refresh), else the third.
fn cuts(make: &dyn Fn(Twin) -> ResourceManager, ops: &[ManagerEvent]) -> [usize; 2] {
    let mut mgr = make(Twin::Production);
    let mut ran = Vec::with_capacity(ops.len());
    if mgr.cfg.resolve_excess {
        for ev in ops {
            ran.push(mgr.apply(ev).is_ok_and(|outcome| outcome.round_ran));
        }
    }
    [ops.len() / 3, 2 * ops.len() / 3].map(|from| {
        (from..ran.len().saturating_sub(1))
            .find(|&k| !ran[k] && ran[k + 1])
            .unwrap_or(from)
    })
}

/// Drive `make(subject)` and `make(reference)` through `ops`. Err names
/// the first event after which their [`State`]s differ, or else their
/// obs streams or stale-profile fallbacks at the end. At the first
/// [`cuts`] point both take [`write_then_decode`]; at the second the
/// subject is restored from its snapshot, and the reference runs on
/// with only its engine, a cache, emptied as the subject's is.
fn first_divergence(
    make: &dyn Fn(Twin) -> ResourceManager,
    reference: Twin,
    subject: Twin,
    ops: &[ManagerEvent],
) -> Result<Reach, String> {
    let [decode_at, restore_at] = cuts(make, ops);
    let (mut sub, mut refr) = (make(subject), make(reference));
    let mut reach = Reach::default();
    for (k, op) in ops.iter().enumerate() {
        let t = op.time();
        if k == decode_at {
            write_then_decode(&mut sub, t);
            write_then_decode(&mut refr, t);
        }
        if k == restore_at {
            let json = sub.snapshot().to_json().expect("snapshot serializes");
            let snap = ManagerSnapshot::from_json(&json).expect("snapshot parses");
            sub = ResourceManager::restore(snap, sub.take_obs()).expect("snapshot restores");
            sub.set_twin(subject);
            refr.maxmin = IncrementalMaxmin::new();
        }
        let branches = sub.multicast.active_branches;
        let applied = sub.apply(op);
        let ours = State::of(&sub, applied);
        let applied = refr.apply(op);
        if let Some(what) = ours.difference(&State::of(&refr, applied)) {
            return Err(format!("after event {k}, {op:?}: {what}"));
        }
        // Debug builds check this inside every `after_event`.
        if !cfg!(debug_assertions) {
            let broken = |e| format!("after event {k}, {op:?}: {e}");
            sub.net.check_invariants().map_err(broken)?;
        }
        if matches!(op, ManagerEvent::SlotTick { .. }) {
            reach.retired += branches.saturating_sub(sub.multicast.active_branches);
        }
        reach.peak_branches = reach.peak_branches.max(sub.multicast.active_branches);
        reach.claims += ours.ledgers.iter().map(|(_, c, _)| c.len()).sum::<usize>();
    }
    let (ours, theirs) = (rounds_uncounted(&sub.obs), rounds_uncounted(&refr.obs));
    if let Some(what) = first("obs event", &ours, &theirs) {
        return Err(format!("at the end: {what}"));
    }
    let fallbacks = [sub.stale_profile_fallbacks, refr.stale_profile_fallbacks];
    if fallbacks[0] != fallbacks[1] {
        return Err(format!("at the end: stale-profile fallbacks {fallbacks:?}"));
    }
    Ok(Reach {
        dispatches: sub.obs.count(arm_obs::EventKind::ReservationDispatch),
        fallbacks: fallbacks[0],
        rounds: sub.adaptation_rounds,
        synced: (
            sub.maxmin.stats.conns_synced,
            refr.maxmin.stats.conns_synced,
        ),
        failed_branches: sub.multicast.failed_branches,
        ..reach
    })
}

/// [`first_divergence`] of the production twin, which must be none.
fn production_agrees(
    what: &str,
    make: &dyn Fn(Twin) -> ResourceManager,
    reference: Twin,
    ops: &[ManagerEvent],
) -> Reach {
    first_divergence(make, reference, Twin::Production, ops)
        .unwrap_or_else(|d| panic!("{what}: parted {d}"))
}

// ----------------------------------------------------------------------
// Streams
// ----------------------------------------------------------------------

/// 90 events of `core/tests/chaos.rs::churn_schedule` draw for draw
/// over `env`'s cells, untimed ([`timed`] places them); after every 7th
/// drawn event a slot roll, every 19th a profile-server outage (zones in
/// turn), every 31st every outage's end, every 23rd the drawn portable
/// appearing again while tracked (refused while it holds a connection).
fn churn_schedule(seed: u64, env: &IndoorEnvironment, zones: u32) -> Vec<ManagerEvent> {
    let cells: Vec<CellId> = env.cells().map(|(id, _)| id).collect();
    let links = fault_links(env);
    let wireless = |cell: CellId| links[cell.index()][0];
    let t = SimTime::ZERO;
    let mut rng = SimRng::new(seed);
    let mut events = Vec::new();
    for p in 0..6u32 {
        let (portable, cell) = (PortableId(p), cells[rng.index(cells.len())]);
        events.push(ManagerEvent::Appear { t, portable, cell });
        let qos = shaped(100.0, 1600.0);
        events.push(ManagerEvent::Request { t, portable, qos });
    }
    let mut drawn = 0usize;
    while events.len() < 90 {
        let portable = PortableId(rng.index(6) as u32);
        let cell = cells[rng.index(cells.len())];
        let (to, link) = (cell, wireless(cell));
        events.push(match rng.index(8) {
            0 => {
                let qos = shaped(rng.uniform(50.0, 200.0), rng.uniform(400.0, 1600.0));
                ManagerEvent::Request { t, portable, qos }
            }
            1 => ManagerEvent::Move { t, portable, to },
            2 => ManagerEvent::Terminate { t, portable },
            3 => {
                let fraction = rng.uniform(0.3, 1.0);
                ManagerEvent::ChannelChange { t, cell, fraction }
            }
            4 | 5 => ManagerEvent::LinkDown { t, link },
            _ => ManagerEvent::LinkUp { t, link },
        });
        drawn += 1;
        if drawn % 7 == 0 {
            events.push(ManagerEvent::SlotTick { t });
        }
        if drawn % 19 == 0 {
            let zone = ZoneId((drawn / 19) as u32 % zones);
            events.push(ManagerEvent::ProfileServerDown { t, zone });
        }
        if drawn % 23 == 0 {
            events.push(ManagerEvent::Appear { t, portable, cell });
        }
        if drawn % 31 == 0 {
            let up = |z| ManagerEvent::ProfileServerUp { t, zone: ZoneId(z) };
            events.extend((0..zones).map(up));
        }
    }
    events
}

/// [`churn_schedule`] with a re-negotiation after every 5th event: floors
/// change through `Network::get_mut` alone.
fn churn_with_renegotiation(seed: u64, env: &IndoorEnvironment, zones: u32) -> Vec<ManagerEvent> {
    let mut rng = SimRng::new(seed).split("renegotiation");
    let mut events = Vec::new();
    for (k, ev) in churn_schedule(seed, env, zones).into_iter().enumerate() {
        events.push(ev);
        if k % 5 == 4 {
            let (t, portable) = (SimTime::ZERO, PortableId(rng.index(6) as u32));
            let qos = shaped(rng.uniform(50.0, 400.0), rng.uniform(400.0, 1600.0));
            events.push(ManagerEvent::Renegotiate { t, portable, qos });
        }
    }
    events
}

/// Figure 4, the same floor in two zones, and a small wing with every
/// lounge class, each with its zone count.
fn churn_floors() -> [(&'static str, IndoorEnvironment, u32); 3] {
    let f4 = Figure4::build();
    let mut zoned = f4.env.clone();
    for cell in [f4.b, f4.e, f4.f, f4.g] {
        zoned.set_zone(cell, ZoneId(1));
    }
    [
        ("figure4", f4.env, 1),
        ("two-zones", zoned, 2),
        ("wing", office_wing(3), 1),
    ]
}

/// A churn stream's manager: rounds on, a 40 s `T_th` against events 4 s
/// apart, a booked meeting room, obs recording.
fn churn_manager(
    env: &IndoorEnvironment,
    strategy: Strategy,
    dyn_pool: Option<DynPoolPolicy>,
    twin: Twin,
) -> ResourceManager {
    let cfg = ManagerConfig {
        strategy,
        dyn_pool,
        resolve_excess: true,
        t_th: SimDuration::from_secs(40),
        ..Default::default()
    };
    let mut mgr = manager(env, cfg, twin);
    let room = env
        .cells()
        .find(|(_, c)| c.class == CellClass::Lounge(LoungeKind::MeetingRoom));
    if let Some((room, _)) = room {
        let mut cal = BookingCalendar::new();
        cal.book(Meeting {
            t_start: SimTime::from_secs(90),
            t_end: SimTime::from_secs(300),
            expected: 5,
        });
        mgr.set_calendar(room, cal);
    }
    mgr.set_obs(Obs::recording(1 << 16));
    mgr
}

/// `stream` at `seeds` on every churn floor and strategy, `B_dyn` on and
/// off, against [`Twin::WholeTable`]; what they reached, summed.
fn churn_agrees(
    seeds: std::ops::Range<u64>,
    stream: fn(u64, &IndoorEnvironment, u32) -> Vec<ManagerEvent>,
) -> Reach {
    let mut total = Reach::default();
    for (floor, env, zones) in churn_floors() {
        for strategy in [
            Strategy::None,
            Strategy::Paper,
            Strategy::BruteForce,
            Strategy::Aggregate,
            Strategy::StaticFraction(0.1),
        ] {
            for dyn_pool in [Some(DynPoolPolicy::default()), None] {
                for seed in seeds.clone() {
                    let ops = timed(stream(seed, &env, zones), 4);
                    let make = |twin| churn_manager(&env, strategy, dyn_pool, twin);
                    let on = dyn_pool.is_some();
                    let what = format!("{floor} {strategy:?} dyn_pool={on} seed {seed}");
                    let reach = production_agrees(&what, &make, Twin::WholeTable, &ops);
                    total.dispatches += reach.dispatches;
                    total.fallbacks += reach.fallbacks;
                    total.claims += reach.claims;
                }
            }
        }
    }
    total
}

/// `events` at `secs`, `2·secs`, … seconds: each event's time is its
/// place in the stream.
fn timed(mut events: Vec<ManagerEvent>, secs: u64) -> Vec<ManagerEvent> {
    for (k, ev) in events.iter_mut().enumerate() {
        *ev.time_mut() = SimTime::from_secs(secs * (k as u64 + 1));
    }
    events
}

/// `trace` as a replay runs it — the slot ticks due, then each
/// appearance or move — with what `after(k, event, events)` appends.
fn trace_stream(
    trace: &MobilityTrace,
    mut after: impl FnMut(usize, &MoveEvent, &mut Vec<ManagerEvent>),
) -> Vec<ManagerEvent> {
    let mut events = Vec::new();
    let mut next_slot = SimTime::ZERO + SLOT;
    for (k, ev) in trace.events().iter().enumerate() {
        while ev.time >= next_slot {
            events.push(ManagerEvent::SlotTick { t: next_slot });
            next_slot += SLOT;
        }
        let (t, portable, cell, to) = (ev.time, ev.portable, ev.to, ev.to);
        events.push(match ev.from {
            None => ManagerEvent::Appear { t, portable, cell },
            Some(_) => ManagerEvent::Move { t, portable, to },
        });
        after(k, ev, &mut events);
    }
    events
}

/// `benchmark/src/gen.rs::adapt_rush`, smaller: 120 wanderers on a
/// ten-office wing for 12 minutes with one adaptive connection each, a
/// fade or recovery after every 4th trace event. Even seeds run no
/// claims, odd seeds the paper's, whose dispatch pass reads the statics.
fn rush(seed: u64) -> (impl Fn(Twin) -> ResourceManager, Vec<ManagerEvent>) {
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
    let qos = QosRequest::bandwidth(16.0, 1600.0)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0);
    let cells = env.cell_count();
    let mut faded = vec![false; cells];
    let mut fade_rng = SimRng::new(seed).split("bench-fades");
    let ops = trace_stream(&trace, |i, ev, ops| {
        let (t, portable) = (ev.time, ev.portable);
        if ev.from.is_none() {
            ops.push(ManagerEvent::Request { t, portable, qos });
        }
        if last[&ev.portable] == ev.time {
            ops.push(ManagerEvent::Terminate { t, portable });
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
            ops.push(ManagerEvent::ChannelChange { t, cell, fraction });
        }
    });
    let strategy = [Strategy::None, Strategy::Paper][seed as usize % 2];
    let make = move |twin| {
        let cfg = ManagerConfig {
            strategy,
            resolve_excess: true,
            ..Default::default()
        };
        manager(&env, cfg, twin)
    };
    (make, ops)
}

/// 60 events of `core/tests/chaos.rs::churn_schedule` draw for draw, one
/// a second: heavy on wireless and wired failures and restorations.
fn chaos_stream(seed: u64) -> Vec<ManagerEvent> {
    let f4 = Figure4::build();
    let links = fault_links(&f4.env);
    let wireless = |cell: CellId| links[cell.index()][0];
    let wired = |cell: CellId| links[cell.index()][1];
    let cells = [f4.a, f4.b, f4.c, f4.d, f4.e, f4.f, f4.g];
    let t = SimTime::ZERO;
    let mut rng = SimRng::new(seed);
    let mut events = Vec::new();
    let mut home = [f4.a; 6];
    for p in 0..6u32 {
        let (portable, cell) = (PortableId(p), cells[rng.index(cells.len())]);
        home[p as usize] = cell;
        events.push(ManagerEvent::Appear { t, portable, cell });
        let qos = shaped(100.0, 1600.0);
        events.push(ManagerEvent::Request { t, portable, qos });
    }
    let (mut wireless_down, mut wired_down) = (Vec::new(), Vec::new());
    while events.len() < 60 {
        let portable = PortableId(rng.index(6) as u32);
        let cell = cells[rng.index(cells.len())];
        let target = home[rng.index(6)];
        let to = cell;
        events.push(match rng.index(12) {
            0 => {
                let qos = shaped(rng.uniform(50.0, 200.0), rng.uniform(400.0, 1600.0));
                ManagerEvent::Request { t, portable, qos }
            }
            1 => {
                home[portable.0 as usize] = to;
                ManagerEvent::Move { t, portable, to }
            }
            2 => ManagerEvent::Terminate { t, portable },
            3 => {
                let fraction = rng.uniform(0.3, 1.0);
                ManagerEvent::ChannelChange { t, cell, fraction }
            }
            4 | 5 => {
                wireless_down.push(target);
                let link = wireless(target);
                ManagerEvent::LinkDown { t, link }
            }
            6 | 7 => {
                let link = wireless(wireless_down.pop().unwrap_or(cell));
                ManagerEvent::LinkUp { t, link }
            }
            8 | 9 => {
                wired_down.push(target);
                let link = wired(target);
                ManagerEvent::LinkDown { t, link }
            }
            _ => {
                let link = wired(wired_down.pop().unwrap_or(cell));
                ManagerEvent::LinkUp { t, link }
            }
        });
    }
    timed(events, 1)
}

/// The chaos manager: no claims, no `B_dyn`, `T_th` zero, eqn 2's δ.
fn chaos_manager(delta: f64, twin: Twin) -> ResourceManager {
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        dyn_pool: None,
        t_th: SimDuration::from_secs(0),
        delta,
        ..Default::default()
    };
    manager(&Figure4::build().env, cfg, twin)
}

/// The office week, on a backbone that refuses no branch.
fn office_week(seed: u64) -> Scenario {
    Scenario {
        name: "twin-office".into(),
        environment: EnvSpec::Figure4,
        mobility: MobilitySpec::OfficeCase,
        workload: WorkloadSpec::Paper71,
        strategy: Strategy::Paper,
        cell_throughput_kbps: 1600.0,
        backbone_kbps: 100_000.0,
        wireless_error: 0.0,
        t_th_secs: 300,
        seed,
    }
}

/// `wing_rush`'s 63-cell floor and 240 walkers over 40 minutes.
fn wing_rush(seed: u64) -> Scenario {
    Scenario {
        name: "twin-wing".into(),
        environment: EnvSpec::OfficeWing { offices: 30 },
        mobility: MobilitySpec::RandomWalk {
            population: 240,
            mean_dwell_secs: 120,
            span_mins: 40,
        },
        cell_throughput_kbps: 400.0,
        ..office_week(seed)
    }
}

/// `sc`'s manager, `B_dyn` as given, in `twin`'s mode.
fn scenario_manager(sc: &Scenario, dyn_pool: Option<DynPoolPolicy>, twin: Twin) -> ResourceManager {
    let (mut mgr, _) = scenario::build_manager(sc).expect("valid scenario");
    mgr.cfg.dyn_pool = dyn_pool;
    mgr.set_twin(twin);
    mgr
}

/// `sc` as its scenario replays it, against the whole table and
/// the re-sync, which re-admits every mobile portable's branches at each
/// tick: with room for every branch, that changes nothing.
fn scenario_agrees(sc: &Scenario) {
    let (_, trace) = scenario::build_manager(sc).expect("valid scenario");
    let mut rng = SimRng::new(sc.seed).split("scenario-workload");
    let mix = WorkloadMix::paper71();
    let ops = trace_stream(&trace, |_, ev, ops| {
        if ev.from.is_none() {
            let (t, portable, qos) = (ev.time, ev.portable, mix.sample(&mut rng));
            ops.push(ManagerEvent::Request { t, portable, qos });
        }
    });
    let what = format!("{} seed {}", sc.name, sc.seed);
    let make = |twin| scenario_manager(sc, Some(DynPoolPolicy::default()), twin);
    let reach = production_agrees(&what, &make, Twin::WholeTableAndResync, &ops);
    assert_eq!(reach.failed_branches, 0, "{what}: the backbone is wide");
    assert!(reach.peak_branches > 50, "{what}: {reach:?}");
    assert!(reach.retired > 50, "{what}: {reach:?}");
}

// ----------------------------------------------------------------------
// The production twin against its references
// ----------------------------------------------------------------------

/// The churn streams, eight seeds, against the scanning refresh — which
/// recomputes every prediction, so it is the dispatch memo's oracle —
/// and the whole-table round.
#[test]
fn churn_streams_match_the_whole_table() {
    let Reach {
        dispatches,
        fallbacks,
        claims,
        ..
    } = churn_agrees(0..8, churn_schedule);
    assert!(dispatches > 1000, "only {dispatches} dispatches observed");
    assert!(fallbacks > 100, "only {fallbacks} stale-profile fallbacks");
    assert!(claims > 10_000, "only {claims} claims observed");
}

/// [`churn_with_renegotiation`], six seeds, against the whole table.
#[test]
fn renegotiation_churn_matches_the_whole_table() {
    let dispatches = churn_agrees(0..6, churn_with_renegotiation).dispatches;
    assert!(dispatches > 1000, "only {dispatches} dispatches observed");
}

/// The rush, seeds 0..8: portables turn static with no write to their
/// records, so the round finds them through the statics' flip log.
#[test]
fn rush_streams_match_the_whole_table_and_resync() {
    for seed in 0..8u64 {
        let (make, ops) = rush(seed);
        let what = format!("rush seed {seed}");
        let reach = production_agrees(&what, &make, Twin::WholeTableAndResync, &ops);
        let (ours, whole) = reach.synced;
        assert!(reach.rounds > 0, "{what}: rounds must run");
        assert!(ours < whole, "{what}: {ours} candidates, {whole} in all");
    }
}

/// The chaos schedules, eqn 2's gate wide open, throttled, all but shut.
#[test]
fn chaos_streams_match_the_whole_table_and_resync() {
    for seed in 0..16u64 {
        let ops = chaos_stream(seed);
        for delta in [0.0, 200.0, 5000.0] {
            let what = format!("chaos seed {seed} δ={delta}");
            let make = |twin| chaos_manager(delta, twin);
            let reach = production_agrees(&what, &make, Twin::WholeTableAndResync, &ops);
            assert!(reach.rounds > 0, "{what}: rounds must run");
        }
    }
}

/// The office week at seeds 42 and 7 ([`scenario_agrees`]).
#[test]
fn office_week_matches_the_whole_table_and_resync() {
    scenario_agrees(&office_week(42));
    scenario_agrees(&office_week(7));
}

/// The `wing_rush` wing at seed 42; a test a seed, to run side by side.
#[test]
fn the_wing_at_seed_42_matches_the_whole_table_and_resync() {
    scenario_agrees(&wing_rush(42));
}

/// The `wing_rush` wing at seed 7 ([`scenario_agrees`]).
#[test]
fn the_wing_at_seed_7_matches_the_whole_table_and_resync() {
    scenario_agrees(&wing_rush(7));
}

/// The wing at 16 seeds, `B_dyn` on and off, obs off; a drawn portable
/// re-negotiates after every 37th event and hangs up after every 53rd,
/// the moved-to cell fades after every 211th, and zone 0's server is out
/// for 200 events. Slow in a debug build: `cargo test --release -p
/// arm-core --lib -- --ignored`.
#[test]
#[ignore = "benchmark scale; run in release"]
fn the_wing_matches_the_whole_table_at_benchmark_scale() {
    for dyn_pool in [Some(DynPoolPolicy::default()), None] {
        for seed in 0..16u64 {
            let sc = wing_rush(seed);
            let (_, trace) = scenario::build_manager(&sc).expect("valid scenario");
            let mut rng = SimRng::new(seed).split("wide-differential");
            let mix = WorkloadMix::paper71();
            let ops = trace_stream(&trace, |k, ev, ops| {
                let (t, portable) = (ev.time, ev.portable);
                if ev.from.is_none() {
                    let q = mix.sample(&mut rng);
                    let qos = shaped(q.b_min, q.b_max);
                    ops.push(ManagerEvent::Request { t, portable, qos });
                }
                let portable = PortableId(rng.index(240) as u32);
                if k % 37 == 36 {
                    let b = rng.uniform(8.0, 96.0);
                    let qos = shaped(b, b);
                    ops.push(ManagerEvent::Renegotiate { t, portable, qos });
                }
                if k % 53 == 52 {
                    ops.push(ManagerEvent::Terminate { t, portable });
                }
                if k % 211 == 210 {
                    let (cell, fraction) = (ev.to, rng.uniform(0.5, 1.0));
                    ops.push(ManagerEvent::ChannelChange { t, cell, fraction });
                }
                let zone = ZoneId(0);
                match k {
                    1000 => ops.push(ManagerEvent::ProfileServerDown { t, zone }),
                    1200 => ops.push(ManagerEvent::ProfileServerUp { t, zone }),
                    _ => {}
                }
            });
            let what = format!("wing seed {seed} dyn_pool={}", dyn_pool.is_some());
            let make = |twin| scenario_manager(&sc, dyn_pool, twin);
            production_agrees(&what, &make, Twin::WholeTableAndResync, &ops);
        }
    }
}

/// The whole seed-42 office week against [`Twin::WholeTable`]: Figure 4,
/// the paper strategy, `B_dyn` on, obs off, every portable hanging up
/// at its last event as a server's `Depart` has it, and a booking
/// calendar on office A whose meetings open and close claim windows
/// through the week. Slow in a debug build: `cargo test --release -p
/// arm-core --lib -- --ignored`.
#[test]
#[ignore = "benchmark scale; run in release"]
fn the_office_week_matches_the_whole_table_at_benchmark_scale() {
    let sc = office_week(42);
    let (_, trace) = scenario::build_manager(&sc).expect("valid scenario");
    let mut last = BTreeMap::new();
    for ev in trace.events() {
        last.insert(ev.portable, ev.time);
    }
    let mut rng = SimRng::new(sc.seed).split("scenario-workload");
    let mix = WorkloadMix::paper71();
    let ops = trace_stream(&trace, |_, ev, ops| {
        let (t, portable) = (ev.time, ev.portable);
        if ev.from.is_none() {
            let qos = mix.sample(&mut rng);
            ops.push(ManagerEvent::Request { t, portable, qos });
        }
        if last[&portable] == t {
            ops.push(ManagerEvent::Terminate { t, portable });
        }
    });
    let office_a = Figure4::build().a;
    let mut calendar = BookingCalendar::new();
    for hour in (2..40).step_by(5) {
        calendar.book(Meeting {
            t_start: SimTime::from_mins(60 * hour),
            t_end: SimTime::from_mins(60 * hour + 50),
            expected: 4,
        });
    }
    let make = |twin| {
        let mut mgr = scenario_manager(&sc, Some(DynPoolPolicy::default()), twin);
        mgr.set_calendar(office_a, calendar.clone());
        mgr
    };
    let reach = production_agrees("office week seed 42", &make, Twin::WholeTable, &ops);
    assert!(reach.claims > 10_000, "{reach:?}");
}

// ----------------------------------------------------------------------
// Seeded mutants
// ----------------------------------------------------------------------

/// How a mutant was caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Caught {
    Divergence,
    /// The subject's debug checks of the dispatch pass (`watch_is_exact`)
    /// and of the whole refresh (`refresh_is_exact`).
    DebugCheck,
}

/// A stream, its manager and the reference it runs against.
type Case = (
    Box<dyn Fn(Twin) -> ResourceManager>,
    Twin,
    Vec<ManagerEvent>,
);

/// A churn stream on floor `floor` of [`churn_floors`], `B_dyn` on.
fn churn_case(floor: usize, strategy: Strategy, seed: u64, renegotiate: bool) -> Case {
    let (_, env, zones) = churn_floors().into_iter().nth(floor).expect("three floors");
    let ops = if renegotiate {
        churn_with_renegotiation(seed, &env, zones)
    } else {
        churn_schedule(seed, &env, zones)
    };
    let pool = Some(DynPoolPolicy::default());
    let make = move |twin| churn_manager(&env, strategy, pool, twin);
    (Box::new(make), Twin::WholeTable, timed(ops, 4))
}

/// How and where `mutant` was caught on `case`; another panic goes up.
fn catch(mutant: Mutant, (make, reference, ops): &Case) -> Option<(Caught, String)> {
    let run = || first_divergence(make, *reference, Twin::Mutant(mutant), ops);
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(run) => run.err().map(|what| (Caught::Divergence, what)),
        Err(panic) => match panic.downcast_ref::<String>() {
            Some(what) if what.contains("watch_is_exact") || what.contains("refresh_is_exact") => {
                Some((Caught::DebugCheck, what.clone()))
            }
            _ => resume_unwind(panic),
        },
    }
}

/// Every seeded mutant is caught on a stream that reaches its site, as
/// its case names; release builds run no debug check.
#[test]
fn every_mutant_is_caught() {
    use Caught::{DebugCheck, Divergence};
    use Mutant::*;
    let figure4 = |strategy, seed| churn_case(0, strategy, seed, false);
    // Caught by the refresh's own check where it runs, else by what
    // the skipped work leaves behind.
    let checked = if cfg!(debug_assertions) {
        DebugCheck
    } else {
        Divergence
    };
    let chaos: Case = (
        Box::new(|twin| chaos_manager(5000.0, twin)),
        Twin::WholeTableAndResync,
        chaos_stream(1),
    );
    let cases = [
        (GuardIgnoresRevision, figure4(Strategy::None, 1), checked),
        (
            GuardWithoutNoOp,
            churn_case(2, Strategy::Paper, 0, false),
            Divergence,
        ),
        (
            DispatchBlindToMobile,
            churn_case(2, Strategy::Paper, 3, true),
            Divergence,
        ),
        (
            KeptDispatchUnemitted,
            figure4(Strategy::Paper, 0),
            Divergence,
        ),
        (ArrivalNotPending, figure4(Strategy::Paper, 0), DebugCheck),
        (MemoIgnoresStamp, figure4(Strategy::Paper, 1), Divergence),
        (
            HandoffBumpsNoRevision,
            figure4(Strategy::Paper, 1),
            Divergence,
        ),
        (
            DestinationRevisionBumped,
            figure4(Strategy::Paper, 1),
            Divergence,
        ),
        (
            MemoCarriedAcrossMove,
            figure4(Strategy::Paper, 1),
            Divergence,
        ),
        (RetireOneSlotEarly, figure4(Strategy::Paper, 0), Divergence),
        (FlipNotFed, figure4(Strategy::Paper, 0), Divergence),
        (FeedForgetsNewNetwork, chaos, Divergence),
        (EndedNotFed, figure4(Strategy::None, 0), Divergence),
        (StaleFlipHonoured, figure4(Strategy::None, 1), Divergence),
        (TrackKeepsStatic, figure4(Strategy::None, 1), Divergence),
        (FlipNotPending, figure4(Strategy::Paper, 0), DebugCheck),
        (WriteUnlogged, figure4(Strategy::Paper, 1), checked),
        (NeighborPoolsNotDue, figure4(Strategy::Paper, 0), checked),
        (RoundCursorSkips, figure4(Strategy::Paper, 0), Divergence),
    ];
    for (mutant, case, how) in cases {
        if how == DebugCheck && !cfg!(debug_assertions) {
            continue;
        }
        match catch(mutant, &case) {
            Some((caught, what)) => assert_eq!(caught, how, "{mutant:?}: {what}"),
            None => panic!("{mutant:?} was not caught"),
        }
    }
}

/// Where the re-sync parts from production (DESIGN §11): a settled
/// portable appears again elsewhere while it holds a connection.
/// Production sets branches up only at admission, handoff and accepted
/// re-negotiation; the re-sync sets them up at the next tick. `apply`
/// refuses such an `Appear` (`manager_tests::refused_events_change_nothing`);
/// this drives the raw arms to pin what they do with one.
#[test]
fn a_reappearance_while_tracked_parts_the_resync_reference() {
    let f4 = Figure4::build();
    let twin = |twin| manager(&f4.env, ManagerConfig::default(), twin);
    let (mut live, mut resync) = (twin(Twin::Production), twin(Twin::WholeTableAndResync));
    let p = PortableId(0);
    let mut id = None;
    for mgr in [&mut live, &mut resync] {
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        id = mgr
            .request_connection(p, shaped(64.0, 64.0), SimTime::from_secs(1))
            .ok();
        assert!(mgr.multicast.active_branches > 0);
        // Static after `T_th` (5 min): the tick retires the branches.
        mgr.slot_tick(SimTime::from_mins(6));
        assert_eq!(mgr.multicast.active_branches, 0);
        mgr.portable_appears(p, f4.d, SimTime::from_mins(6) + SimDuration::from_secs(10));
        mgr.slot_tick(SimTime::from_mins(7));
    }
    let id = id.expect("admitted");
    assert!(live.multicast.branches_of(id).is_empty());
    let toward: Vec<CellId> = f4.env.neighbors(f4.d).collect();
    assert_eq!(resync.multicast.branches_of(id), toward);
}
