//! Manager-level chaos: the resource manager driven directly through
//! fault-heavy churn — link failures and restorations on either hop,
//! fades, admissions, moves — checked against the reference maxmin
//! solve after every adaptation round and restored from every cut.
//! (The scenario-level soak, fault schedules replayed through the
//! server's event loop, is `crates/server/tests/chaos.rs`.)

use arm_core::scenario::{self, EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{Decision, ManagerConfig, ManagerEvent, ResourceManager, Strategy};
use arm_mobility::environment::Figure4;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, NodeId, PortableId};
use arm_net::routing::shortest_path;
use arm_qos::maxmin::centralized::MaxminProblem;
use arm_sim::{SimDuration, SimRng, SimTime};

fn office_scenario(seed: u64) -> Scenario {
    Scenario {
        name: "chaos-soak".into(),
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

/// A fresh Figure-4 manager with the excess resolver on and eqn 2's
/// threshold at `delta`.
fn chaos_manager(delta: f64) -> ResourceManager {
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
}

/// Apply the `k`-th event of a schedule. The random schedule can make
/// one the manager refuses (a move to the portable's own cell, a
/// hang-up with nothing open); it changes nothing.
fn step(mgr: &mut ResourceManager, k: usize, ev: &ManagerEvent) {
    let _ = mgr.apply(ev);
    assert!(mgr.net.check_invariants().is_ok(), "event {k}: {ev:?}");
}

/// Replay `events` against a [`chaos_manager`]. After every event that
/// ran an adaptation round, a from-scratch [`MaxminProblem`] solve over
/// the resulting network must reproduce the resident engine's share of
/// every static connection **bit for bit**, and the ledger of every one
/// of them must sit at that target — whether or not the round re-filled
/// it: with `delta > 0` the gate stays shut across squeezes and outages
/// that leave no trace in the round's inputs. The
/// oracle is valid because a link's `excess_available()` is
/// `C − resv − Σb_min`, independent of current rates: a solved network
/// is a fixed point of the reference solver. (The ledger check allows
/// the resolver's 1e-9 application dead band — a target that moved by
/// an ulp is deliberately not re-applied — the engine check does not.)
/// Returns the engine's solve count.
fn replay(seed: u64, delta: f64, events: &[ManagerEvent]) -> u64 {
    let mut mgr = chaos_manager(delta);
    for (k, ev) in events.iter().enumerate() {
        let t = ev.time();
        let rounds_before = mgr.adaptation_rounds;
        step(&mut mgr, k, ev);
        if mgr.adaptation_rounds == rounds_before {
            continue;
        }
        let mut problem = MaxminProblem::from_network(&mgr.net);
        problem.conns.retain(|id, _| {
            mgr.net
                .get(*id)
                .is_some_and(|c| mgr.is_static(c.portable, t))
        });
        for (id, x) in problem.solve() {
            assert_eq!(
                mgr.maxmin().rate(id).map(f64::to_bits),
                Some(x.to_bits()),
                "seed {seed} δ={delta}: engine share of {id:?} is {:?} but the \
                 reference solve says {x} after event {k}: {ev:?}",
                mgr.maxmin().rate(id)
            );
            let c = mgr.net.get(id).expect("solved connections are live");
            let want = (c.qos.b_min + x).clamp(c.qos.b_min, c.qos.b_max);
            assert!(
                (c.b_current - want).abs() <= 1e-9,
                "seed {seed} δ={delta}: {id:?} at {} but the reference solve \
                 says {want} after event {k}: {ev:?}",
                c.b_current
            );
        }
    }
    mgr.maxmin().stats.incremental_solves
}

/// Everything an event leaves behind that a manager restored earlier in
/// the schedule must reproduce.
#[derive(Debug, PartialEq)]
struct Mark {
    rates: Vec<(ConnId, u64)>,
    rounds: u64,
    /// The engine's share of every live connection (`None`: not held),
    /// read only after an event that ran an adaptation round — between
    /// rounds a freshly restored engine is empty where the original is
    /// warm, and nothing reads either.
    shares: Option<Vec<(ConnId, Option<u64>)>>,
    metrics: String,
}

fn mark(mgr: &ResourceManager, rounds_before: u64) -> Mark {
    let shares = || {
        let share = |c: &arm_net::Connection| (c.id, mgr.maxmin().rate(c.id).map(f64::to_bits));
        let mut v: Vec<_> = mgr.net.live_connections().map(share).collect();
        v.sort();
        v
    };
    Mark {
        rates: rate_bits(mgr),
        rounds: mgr.adaptation_rounds,
        shares: (mgr.adaptation_rounds != rounds_before).then(shares),
        metrics: format!("{:?}", mgr.metrics.summary()),
    }
}

/// The restore-anywhere twin: one uninterrupted run of `events` leaves a
/// [`Mark`] and a snapshot after every event; then, from **every** cut,
/// a manager restored through the snapshot's bytes — whose maxmin
/// engine therefore starts empty — runs the suffix and must leave the
/// same mark after each later event and the same snapshot bytes at the
/// end. This is the licence for keeping the engine out of the snapshot:
/// nothing it holds influences a decision. Returns the uninterrupted
/// run's marks.
fn restore_anywhere(seed: u64, delta: f64, events: &[ManagerEvent]) -> Vec<Mark> {
    use arm_core::ManagerSnapshot;
    use arm_obs::Obs;

    let mut mgr = chaos_manager(delta);
    let mut marks = Vec::with_capacity(events.len());
    let mut cuts = Vec::with_capacity(events.len());
    for (k, ev) in events.iter().enumerate() {
        let rounds = mgr.adaptation_rounds;
        step(&mut mgr, k, ev);
        marks.push(mark(&mgr, rounds));
        cuts.push(mgr.snapshot().to_json().expect("snapshot serializes"));
    }
    let end = cuts.last().expect("non-empty schedule");
    for (cut, json) in cuts.iter().enumerate() {
        let snap = ManagerSnapshot::from_json(json).expect("snapshot parses");
        let mut twin = ResourceManager::restore(snap, Obs::off()).expect("snapshot restores");
        assert_eq!(twin.maxmin().conn_count(), 0, "a restored engine is empty");
        for (k, ev) in events.iter().enumerate().skip(cut + 1) {
            let rounds = twin.adaptation_rounds;
            step(&mut twin, k, ev);
            assert_eq!(
                mark(&twin, rounds),
                marks[k],
                "seed {seed} δ={delta}: restored after event {cut}, diverged at event {k}: {ev:?}"
            );
        }
        assert_eq!(
            twin.snapshot().to_json().expect("snapshot serializes"),
            *end,
            "seed {seed} δ={delta}: restored after event {cut}, final snapshot bytes differ"
        );
    }
    marks
}

/// Random but seed-replayable churn over the Figure 4 floor, heavy on
/// link failures and restorations, wireless and wired, one event a
/// second. Failures aim at a portable's cell and restorations at the
/// link that failed last, so outages that open and close between two
/// rounds are common. A wired fault names the backbone hop of its
/// cell's uplink.
fn churn_schedule(seed: u64, len: usize) -> Vec<ManagerEvent> {
    let f4 = Figure4::build();
    let cells = [f4.a, f4.b, f4.c, f4.d, f4.e, f4.f, f4.g];
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let topo = net.topology();
    let wireless = |cell| topo.wireless_link(cell);
    let wired = |cell| {
        let uplink = shortest_path(topo, topo.air_node(cell), NodeId(0));
        uplink.expect("star backbone is connected").links[1]
    };
    let mut rng = SimRng::new(seed);
    let mut events = Vec::with_capacity(len);
    let t = |events: &Vec<ManagerEvent>| SimTime::from_secs(events.len() as u64 + 1);
    // Seed a population so every schedule exercises live connections.
    let mut home = [f4.a; 6];
    for p in 0..6u32 {
        let cell = cells[rng.index(cells.len())];
        home[p as usize] = cell;
        let (portable, qos) = (PortableId(p), shaped(100.0, 1600.0));
        events.push(ManagerEvent::Appear {
            t: t(&events),
            portable,
            cell,
        });
        events.push(ManagerEvent::Request {
            t: t(&events),
            portable,
            qos,
        });
    }
    let (mut wireless_down, mut wired_down) = (Vec::new(), Vec::new());
    while events.len() < len {
        let (t, portable) = (t(&events), PortableId(rng.index(6) as u32));
        let cell = cells[rng.index(cells.len())];
        let (to, target) = (cell, home[rng.index(6)]);
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
    events
}

/// A request with the schedules' delay, jitter and loss.
fn shaped(b_min: f64, b_max: f64) -> QosRequest {
    QosRequest::bandwidth(b_min, b_max)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0)
}

/// The manager-level acceptance for the production maxmin engine: with
/// `resolve_excess` on, the resident engine and the from-scratch
/// reference solver must agree on every static connection's share **bit
/// for bit** after every adaptation round of a fault-heavy churn
/// schedule — including `link_failed`/`link_restored` on either hop —
/// with eqn 2's gate wide open, throttled, and all but shut.
#[test]
fn resident_engine_matches_the_reference_solve_under_chaos() {
    for seed in 0..16u64 {
        let events = churn_schedule(seed, 60);
        for delta in [0.0, 200.0, 5000.0] {
            let solves = replay(seed, delta, &events);
            assert!(
                solves > 0,
                "seed {seed} δ={delta}: rounds must run on the engine"
            );
        }
    }
}

/// The same schedules, cut everywhere: restored at any event, a manager
/// with an empty engine is indistinguishable from the one that kept
/// its engine warm (see [`restore_anywhere`]).
#[test]
fn a_manager_restored_at_any_cut_matches_the_uninterrupted_run() {
    for seed in 0..16u64 {
        let events = churn_schedule(seed, 60);
        for delta in [0.0, 200.0, 5000.0] {
            let marks = restore_anywhere(seed, delta, &events);
            let rounds = marks.last().expect("non-empty").rounds;
            assert!(rounds > 0, "seed {seed} δ={delta}: rounds must run");
        }
    }
}

/// PR 21's defect shape, as a cut: δ = 5000, a static `[100, 1600]`
/// rider whose wired hop fails and comes back inside a closed gate. The
/// snapshot taken right there — rider at its floor, every maxmin input
/// back to its old bits, no round since — restores to an empty engine;
/// the round another cell's admission then opens must regrow the rider
/// exactly as the warm engine's frozen target does.
#[test]
fn a_cut_inside_a_closed_gate_with_a_rider_squeezed_restores_alike() {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let topo = net.topology();
    let uplink = shortest_path(topo, topo.air_node(f4.c), NodeId(0));
    let link = uplink.expect("star backbone is connected").links[1];
    let (p1, p2, qos) = (PortableId(1), PortableId(2), shaped(100.0, 1600.0));
    let t = SimTime::from_secs;
    let appear = |t, portable, cell| ManagerEvent::Appear { t, portable, cell };
    let request = |t, portable| ManagerEvent::Request { t, portable, qos };
    let events = [
        appear(t(1), p1, f4.c),
        request(t(2), p1),
        ManagerEvent::LinkDown { t: t(3), link },
        ManagerEvent::LinkUp { t: t(4), link },
        appear(t(5), p2, f4.a),
        request(t(6), p2),
    ];
    let marks = restore_anywhere(0, 5000.0, &events);
    let rider = |m: &Mark| f64::from_bits(m.rates[0].1);
    assert_eq!(rider(&marks[1]), 1600.0);
    assert_eq!(rider(&marks[3]), 100.0, "squeezed to its floor");
    assert_eq!(marks[3].rounds, marks[1].rounds, "the gate stayed shut");
    assert_eq!(marks[5].rounds, marks[1].rounds + 1);
    assert_eq!(rider(&marks[5]), 1600.0, "regrown by the next round");
}

/// Rate bits of every live connection, sorted — the bit-exact state
/// fingerprint the snapshot tests compare.
fn rate_bits(mgr: &ResourceManager) -> Vec<(ConnId, u64)> {
    let mut v: Vec<(ConnId, u64)> = mgr
        .net
        .live_connections()
        .map(|c| (c.id, c.b_current.to_bits()))
        .collect();
    v.sort();
    v
}

/// A snapshot taken *during* a link outage must carry the outage seal
/// (the `ResvClaim::Outage` claim that blocks new admissions on the
/// failed link), and the restored manager must behave identically from
/// then on: same blocked request during the outage, same re-admission
/// after restoration, same rate bits throughout.
#[test]
fn snapshot_during_link_outage_restores_the_seal_and_readmission() {
    use arm_core::ManagerSnapshot;
    use arm_net::link::ResvClaim;
    use arm_obs::Obs;

    let sc = office_scenario(21);
    let (mut mgr, _trace) = scenario::build_manager(&sc).expect("valid scenario");
    let mut t = SimTime::from_secs(1);
    let mut tick = || {
        t += SimDuration::from_secs(1);
        t
    };
    let qos = QosRequest::bandwidth(100.0, 400.0)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0);
    let apply = |mgr: &mut ResourceManager, ev| mgr.apply(&ev).expect("a well-formed event");
    for p in 0..3u32 {
        let (portable, cell) = (PortableId(p), CellId(p));
        let t = tick();
        let _ = apply(&mut mgr, ManagerEvent::Appear { t, portable, cell });
        let t = tick();
        let admitted = apply(&mut mgr, ManagerEvent::Request { t, portable, qos }).decision;
        assert!(
            matches!(admitted, Decision::Admitted(_)),
            "uncontended admission"
        );
    }
    // Fail cell 0's wireless link mid-run: the remaining headroom is
    // sealed with an Outage claim.
    let link = mgr.net.topology().wireless_link(CellId(0));
    let _ = apply(&mut mgr, ManagerEvent::LinkDown { t: tick(), link });
    let sealed = mgr.net.link(link).claim(ResvClaim::Outage);
    assert!(sealed > 0.0, "outage must seal the link's headroom");

    // Snapshot through bytes while the outage is active.
    let json = mgr.snapshot().to_json().expect("snapshot serializes");
    let snap = ManagerSnapshot::from_json(&json).expect("snapshot parses");
    let mut restored = ResourceManager::restore(snap, Obs::off()).expect("snapshot restores");

    assert_eq!(
        restored.net.link(link).claim(ResvClaim::Outage).to_bits(),
        sealed.to_bits(),
        "outage seal must survive the round trip bit-for-bit"
    );
    assert!(restored.is_link_down(link), "down-link set must survive");
    assert_eq!(rate_bits(&mgr), rate_bits(&restored));

    // From here on, original and restored must stay in lockstep.
    // During the outage, a request in the sealed cell is refused by
    // both...
    let (portable, after) = (PortableId(9), |s| t + SimDuration::from_secs(s));
    let (cell, request) = (CellId(0), |t| ManagerEvent::Request { t, portable, qos });
    for m in [&mut mgr, &mut restored] {
        let t = after(1);
        let _ = apply(m, ManagerEvent::Appear { t, portable, cell });
        let refused = apply(m, request(after(2))).decision;
        assert!(
            matches!(refused, Decision::Blocked(_)),
            "sealed link must refuse new admissions"
        );
    }
    // ...and after restoration, the same request is admitted by both
    // at identical rates.
    for m in [&mut mgr, &mut restored] {
        let t = after(3);
        let _ = apply(m, ManagerEvent::LinkUp { t, link });
        let admitted = apply(m, request(after(4))).decision;
        assert!(
            matches!(admitted, Decision::Admitted(_)),
            "restored link must re-admit"
        );
        assert!(m.net.check_invariants().is_ok());
    }
    assert_eq!(
        rate_bits(&mgr),
        rate_bits(&restored),
        "post-restore behaviour diverged"
    );
    assert_eq!(
        format!("{:?}", mgr.metrics.summary()),
        format!("{:?}", restored.metrics.summary()),
        "metrics diverged"
    );
}
