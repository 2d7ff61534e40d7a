//! Cross-crate integration tests: the paper's algorithms composed
//! end-to-end on the full stack (sim kernel → network → QoS → profiles →
//! reservation → manager).

use arm_core::{Decision, ManagerConfig, ManagerEvent, ResourceManager, Strategy};
use arm_mobility::environment::{office_wing, Figure4};
use arm_mobility::models::office_case::{self, OfficeCaseParams};
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_mobility::WorkloadMix;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{ConnId, PortableId};
use arm_qos::maxmin::centralized::MaxminProblem;
use arm_sim::{SimDuration, SimRng, SimTime};

/// Apply one event; what it decided.
fn apply(mgr: &mut ResourceManager, ev: ManagerEvent) -> Decision {
    mgr.apply(&ev).expect("a well-formed event").decision
}

/// The connection an admitted request opened.
fn admitted(d: Decision) -> ConnId {
    match d {
        Decision::Admitted(id) => id,
        other => panic!("admits: {other:?}"),
    }
}

fn qos(kbps: f64) -> QosRequest {
    QosRequest::fixed(kbps)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0)
}

/// Replay an arbitrary trace through a manager with one connection per
/// portable; returns the manager for inspection.
fn replay(
    env: &arm_mobility::IndoorEnvironment,
    trace: &arm_mobility::MobilityTrace,
    strategy: Strategy,
    cell_kbps: f64,
    seed: u64,
) -> ResourceManager {
    let net = env.build_network(cell_kbps, 0.0, 1_000_000.0);
    let cfg = ManagerConfig {
        strategy,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(env.clone(), net, cfg);
    let mix = WorkloadMix::paper71();
    let mut rng = SimRng::new(seed).split("rates");
    let mut next_slot = SimTime::ZERO + SimDuration::from_mins(1);
    for ev in trace.events() {
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
    mgr
}

#[test]
fn full_stack_invariants_hold_under_random_churn() {
    let env = office_wing(4);
    let params = RandomWalkParams {
        population: 60,
        mean_dwell: SimDuration::from_mins(3),
        span: SimDuration::from_mins(60),
        ..Default::default()
    };
    let trace = random_walk::generate(&env, &params, &mut SimRng::new(5));
    for strategy in [
        Strategy::None,
        Strategy::Paper,
        Strategy::BruteForce,
        Strategy::Aggregate,
        Strategy::StaticFraction(0.1),
    ] {
        let mgr = replay(&env, &trace, strategy, 800.0, 5);
        assert!(
            mgr.net.check_invariants().is_ok(),
            "{strategy:?}: {:?}",
            mgr.net.check_invariants()
        );
        // Conservation: every handoff attempt either succeeded or dropped.
        assert_eq!(
            mgr.metrics.handoff_attempts.get(),
            mgr.metrics.handoff_successes.get() + mgr.metrics.dropped.get(),
            "{strategy:?}"
        );
    }
}

#[test]
fn whole_runs_are_deterministic() {
    let env = office_wing(3);
    let params = RandomWalkParams {
        population: 30,
        span: SimDuration::from_mins(45),
        ..Default::default()
    };
    let trace = random_walk::generate(&env, &params, &mut SimRng::new(9));
    let a = replay(&env, &trace, Strategy::Paper, 800.0, 9);
    let b = replay(&env, &trace, Strategy::Paper, 800.0, 9);
    assert_eq!(a.metrics.dropped.get(), b.metrics.dropped.get());
    assert_eq!(a.metrics.blocked.get(), b.metrics.blocked.get());
    assert_eq!(
        a.metrics.handoff_attempts.get(),
        b.metrics.handoff_attempts.get()
    );
}

#[test]
fn profiles_feed_predictions_that_save_handoffs() {
    // On the Figure 4 workweek, the paper strategy's predictive claims
    // mean zero drops for the habitual movers even when the cells carry
    // competing load.
    let f4 = Figure4::build();
    let params = OfficeCaseParams::default();
    let trace = office_case::generate(&f4, &params, &mut SimRng::new(11));
    let mgr = replay(&f4.env, &trace, Strategy::Paper, 1600.0, 11);
    // The faculty/student populations keep their connections alive.
    assert_eq!(mgr.metrics.dropped.get(), 0, "no drops on the workweek");
    assert!(mgr.metrics.handoff_attempts.get() > 4000);
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn static_portables_get_upgraded_mobile_stay_at_floor() {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 1_000_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::Paper,
        resolve_excess: true,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
    // A static resident of A and a fresh mover, both adaptive 64–600.
    let resident = PortableId(1);
    let appear = |t, portable, cell| ManagerEvent::Appear { t, portable, cell };
    apply(&mut mgr, appear(SimTime::ZERO, resident, f4.a));
    let qos = QosRequest::bandwidth(64.0, 600.0)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0);
    let request = |t, portable| ManagerEvent::Request { t, portable, qos };
    let rc = admitted(apply(&mut mgr, request(SimTime::from_mins(10), resident)));
    // Static: upgraded to b_max immediately (alone in the cell).
    assert!((mgr.net.get(rc).unwrap().b_current - 600.0).abs() < 1e-6);

    let mover = PortableId(2);
    apply(&mut mgr, appear(SimTime::from_mins(10), mover, f4.c));
    let mc = admitted(apply(&mut mgr, request(SimTime::from_mins(10), mover)));
    // Mobile: pinned at the floor.
    assert!((mgr.net.get(mc).unwrap().b_current - 64.0).abs() < 1e-6);
    // The mover hands off twice; still at floor.
    for (min, to) in [(11, f4.d), (12, f4.e)] {
        let (t, portable) = (SimTime::from_mins(min), mover);
        apply(&mut mgr, ManagerEvent::Move { t, portable, to });
    }
    assert!((mgr.net.get(mc).unwrap().b_current - 64.0).abs() < 1e-6);
}

#[test]
fn ledger_totals_match_maxmin_reference_after_churn() {
    // After arbitrary admissions and departures with resolve_excess on,
    // the allocations equal the centralized maxmin optimum.
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 1_000_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        t_th: SimDuration::from_secs(0), // everyone static: all adapt
        resolve_excess: true,
        dyn_pool: None,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
    let adaptive = |lo: f64, hi: f64| {
        QosRequest::bandwidth(lo, hi)
            .with_delay(10.0)
            .with_jitter(10.0)
            .with_loss(1.0)
    };
    for (i, (lo, hi)) in [(64.0, 900.0), (64.0, 900.0), (16.0, 200.0), (128.0, 1600.0)]
        .iter()
        .enumerate()
    {
        let portable = PortableId(i as u32);
        let (t, cell) = (SimTime::ZERO, f4.c);
        apply(&mut mgr, ManagerEvent::Appear { t, portable, cell });
        let (t, qos) = (SimTime::from_secs(i as u64 + 1), adaptive(*lo, *hi));
        admitted(apply(&mut mgr, ManagerEvent::Request { t, portable, qos }));
    }
    let (t, portable) = (SimTime::from_secs(10), PortableId(1));
    apply(&mut mgr, ManagerEvent::Terminate { t, portable });
    // Reference solution from the current ledgers.
    let problem = MaxminProblem::from_network(&mgr.net);
    let alloc = problem.solve();
    assert!(problem.verify_maxmin(&alloc).is_ok());
    for c in mgr.net.live_connections() {
        let expect = c.qos.b_min + alloc.get(&c.id).copied().unwrap_or(0.0);
        assert!(
            (c.b_current - expect.clamp(c.qos.b_min, c.qos.b_max)).abs() < 1e-6,
            "{:?}: {} vs {}",
            c.id,
            c.b_current,
            expect
        );
    }
}

#[test]
fn blocking_and_dropping_respond_to_capacity() {
    // Shrinking the medium turns a clean run into blocks and drops.
    let env = office_wing(3);
    let params = RandomWalkParams {
        population: 50,
        mean_dwell: SimDuration::from_mins(3),
        span: SimDuration::from_mins(45),
        ..Default::default()
    };
    let trace = random_walk::generate(&env, &params, &mut SimRng::new(13));
    let roomy = replay(&env, &trace, Strategy::None, 4000.0, 13);
    let tight = replay(&env, &trace, Strategy::None, 120.0, 13);
    assert_eq!(roomy.metrics.blocked.get(), 0);
    assert!(tight.metrics.blocked.get() > 0);
    assert!(tight.metrics.p_d() >= roomy.metrics.p_d());
}

#[test]
fn meeting_room_claims_survive_competing_load() {
    // A meeting room with a booked class admits its attendees even while
    // random wanderers fill the wing.
    use arm_reservation::meeting::{BookingCalendar, Meeting};
    let env = office_wing(3);
    let meeting_cell = env.by_name("meeting-room").expect("wing has one");
    let corridor0 = env.by_name("corridor-0").expect("exists");
    let net = env.build_network(800.0, 0.0, 1_000_000.0);
    let mut mgr = ResourceManager::new(env.clone(), net, ManagerConfig::default());
    let mut cal = BookingCalendar::new();
    cal.book(Meeting {
        t_start: SimTime::from_mins(30),
        t_end: SimTime::from_mins(80),
        expected: 12,
    });
    mgr.set_calendar(meeting_cell, cal);
    // Competing load next door.
    let (cell, qos) = (corridor0, qos(28.0));
    let appear = |t, portable| ManagerEvent::Appear { t, portable, cell };
    let request = |t, portable| ManagerEvent::Request { t, portable, qos };
    for i in 0..15u32 {
        let p = PortableId(500 + i);
        apply(&mut mgr, appear(SimTime::ZERO, p));
        apply(&mut mgr, request(SimTime::from_secs(1 + u64::from(i)), p));
    }
    let t = SimTime::from_mins(21);
    apply(&mut mgr, ManagerEvent::SlotTick { t });
    // Attendees stream in through corridor-0 during the window.
    let mut drops = 0;
    for i in 0..12u32 {
        let portable = PortableId(600 + i);
        let t = SimTime::from_mins(22) + SimDuration::from_secs(u64::from(i) * 30);
        apply(&mut mgr, appear(t, portable));
        if let Decision::Admitted(_) = apply(&mut mgr, request(t, portable)) {
            let (t, to) = (t + SimDuration::from_secs(20), meeting_cell);
            if let Decision::Handoff { dropped, .. } =
                apply(&mut mgr, ManagerEvent::Move { t, portable, to })
            {
                drops += dropped.len();
            }
        }
    }
    assert_eq!(drops, 0, "booked attendees must not be dropped");
    assert!(mgr.net.check_invariants().is_ok());
}
