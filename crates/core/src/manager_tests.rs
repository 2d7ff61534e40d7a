//! Unit tests for the integrated manager.

use arm_mobility::environment::{Figure4, IndoorEnvironment};
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, LinkId, PortableId, ZoneId};
use arm_net::link::ResvClaim;
use arm_profiles::{CellClass, LoungeKind};
use arm_reservation::meeting::{BookingCalendar, Meeting};
use arm_sim::{SimDuration, SimTime};

use super::*;

fn qos(kbps: f64) -> QosRequest {
    QosRequest::fixed(kbps)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0)
}

fn figure4_manager(strategy: Strategy) -> (ResourceManager, Figure4) {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy,
        ..Default::default()
    };
    (ResourceManager::new(f4.env.clone(), net, cfg), f4)
}

#[test]
fn connection_lifecycle() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(1))
        .expect("admits");
    assert_eq!(mgr.metrics.requests.get(), 1);
    let wl = mgr.net.topology().wireless_link(f4.c);
    assert_eq!(mgr.net.link(wl).sum_b_min(), 64.0);
    mgr.terminate(id, SimTime::from_secs(100));
    assert_eq!(mgr.metrics.completed.get(), 1);
    assert_eq!(mgr.net.link(wl).sum_b_min(), 0.0);
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn blocking_when_cell_full() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    let mut admitted = 0;
    for i in 0..30 {
        let p = PortableId(100 + i);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        if mgr
            .request_connection(p, qos(64.0), SimTime::from_secs(1))
            .is_ok()
        {
            admitted += 1;
        }
    }
    // 1600 / 64 = 25 connections fit.
    assert_eq!(admitted, 25);
    assert_eq!(mgr.metrics.blocked.get(), 5);
    assert!((mgr.metrics.p_b() - 5.0 / 30.0).abs() < 1e-12);
}

/// A request blocked in a saturated cell names that cell's wireless
/// link and Table 2's bandwidth row.
#[test]
fn a_blocked_request_names_its_link_and_table_2_row() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    let (t, cell, qos) = (SimTime::from_secs(1), f4.c, qos(64.0));
    let mut blocked = Vec::new();
    for i in 0..26 {
        let portable = PortableId(100 + i);
        let appear = ManagerEvent::Appear { t, portable, cell };
        let _ = mgr.apply(&appear).expect("well-formed");
        let request = ManagerEvent::Request { t, portable, qos };
        if let Decision::Blocked(r) = mgr.apply(&request).expect("well-formed").decision {
            blocked.push(r);
        }
    }
    // 1600 / 64 = 25 connections fit; the 26th is the one blocked.
    let [r] = blocked[..] else {
        panic!("one blocked request, got {blocked:?}");
    };
    assert_eq!(r.link(), Some(mgr.net.topology().wireless_link(f4.c)));
    assert_eq!(r.test(), arm_qos::TestKind::Bandwidth);
}

/// `check` refuses what an arm would panic on or silently corrupt state
/// with, and `apply` of a refused event leaves the snapshot's bytes as
/// they were.
#[test]
fn refused_events_change_nothing() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let (p, stranger) = (PortableId(1), PortableId(9));
    let mut t = SimTime::from_secs(1);
    let appear = |t, portable, cell| ManagerEvent::Appear { t, portable, cell };
    let request = |t, portable, qos| ManagerEvent::Request { t, portable, qos };
    let _ = mgr.apply(&appear(t, p, f4.c)).expect("well-formed");
    let _ = mgr.apply(&request(t, p, qos(64.0))).expect("well-formed");
    t += SimDuration::from_secs(1);
    let renegotiate = |portable, qos| ManagerEvent::Renegotiate { t, portable, qos };
    let move_to = |portable, to| ManagerEvent::Move { t, portable, to };
    let hang_up = |portable| ManagerEvent::Terminate { t, portable };
    let (cell, fraction, link, zone) = (f4.c, 1.5, LinkId(99), ZoneId(7));
    let fade = ManagerEvent::ChannelChange { t, cell, fraction };
    let cut = ManagerEvent::LinkDown { t, link };
    let outage = ManagerEvent::ProfileServerDown { t, zone };
    let (cells, links) = (f4.env.cell_count(), mgr.net.topology().link_count());
    let unknown = |what, id, have| Refused::Unknown { what, id, have };
    let (q16, inverted, nan) = (qos(16.0), QosRequest::bandwidth(64.0, 16.0), qos(f64::NAN));
    let non_finite = Refused::NonFinite { what: "b_min_kbps" };
    let refused = [
        (appear(t, p, f4.d), Refused::StillConnected(p)),
        (request(t, p, q16), Refused::Connected(p)),
        (request(t, stranger, q16), Refused::Untracked(stranger)),
        (renegotiate(p, inverted), Refused::Inverted(64.0, 16.0)),
        (renegotiate(p, nan), non_finite),
        (move_to(p, f4.c), Refused::SameCell(p, f4.c)),
        (move_to(p, CellId(99)), unknown("cell", 99, cells)),
        (hang_up(stranger), Refused::Untracked(stranger)),
        (fade, Refused::BadFraction(1.5)),
        (cut, unknown("link", 99, links)),
        (outage, unknown("zone", 7, 1)),
    ];
    let bytes = |mgr: &ResourceManager| mgr.snapshot().to_json().expect("serializes");
    let before = bytes(&mgr);
    for (ev, why) in refused {
        assert_eq!(mgr.check(&ev), Err(why.clone()), "{ev:?}");
        assert_eq!(mgr.apply(&ev), Err(why), "{ev:?}");
        assert_eq!(bytes(&mgr), before, "{ev:?} changed state");
    }
    // Once its connection has ended, the portable may appear again
    // anywhere: the office week does it daily.
    let _ = mgr.apply(&hang_up(p)).expect("an open connection");
    let again = mgr.apply(&appear(t, p, f4.d)).map(|o| o.decision);
    assert_eq!(again, Ok(Decision::Applied));
    assert_eq!(mgr.portable_cell(p), Some(f4.d));
    assert_eq!(mgr.apply(&hang_up(p)), Err(Refused::NotConnected(p)));
}

#[test]
fn handoff_moves_resources_between_cells() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    mgr.request_connection(p, qos(64.0), SimTime::from_secs(1))
        .unwrap();
    let dropped = mgr.portable_moved(p, f4.d, SimTime::from_secs(10));
    assert!(dropped.is_empty());
    let wl_c = mgr.net.topology().wireless_link(f4.c);
    let wl_d = mgr.net.topology().wireless_link(f4.d);
    assert_eq!(mgr.net.link(wl_c).sum_b_min(), 0.0);
    assert_eq!(mgr.net.link(wl_d).sum_b_min(), 64.0);
    assert_eq!(mgr.metrics.handoff_attempts.get(), 1);
    assert_eq!(mgr.metrics.handoff_successes.get(), 1);
    assert_eq!(mgr.portable_cell(p), Some(f4.d));
}

#[test]
fn handoff_drops_when_target_is_full() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    // Fill D with static occupants.
    for i in 0..25 {
        let p = PortableId(200 + i);
        mgr.portable_appears(p, f4.d, SimTime::ZERO);
        mgr.request_connection(p, qos(64.0), SimTime::ZERO).unwrap();
    }
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr.request_connection(p, qos(64.0), SimTime::ZERO).unwrap();
    let dropped = mgr.portable_moved(p, f4.d, SimTime::from_secs(10));
    assert_eq!(dropped, vec![id]);
    assert_eq!(mgr.metrics.dropped.get(), 1);
    assert!((mgr.metrics.p_d() - 1.0).abs() < 1e-12);
    assert!(mgr.net.get(id).is_none(), "a dropped record is retired");
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn brute_force_reserves_in_all_neighbors() {
    let (mut mgr, f4) = figure4_manager(Strategy::BruteForce);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.d, SimTime::ZERO);
    mgr.request_connection(p, qos(64.0), SimTime::ZERO).unwrap();
    // D's neighbours: C, E, A.
    for n in [f4.c, f4.e, f4.a] {
        let wl = mgr.net.topology().wireless_link(n);
        assert!(
            mgr.net.link(wl).b_resv() >= 64.0 - 1e-9,
            "no reservation in {n:?}"
        );
    }
    // Not in non-neighbours.
    let wl_g = mgr.net.topology().wireless_link(f4.g);
    assert_eq!(mgr.net.link(wl_g).b_resv(), 0.0);
}

#[test]
fn paper_strategy_reserves_in_predicted_cell_only() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let p = PortableId(50);
    // Teach the profile: this user goes C → D → A.
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    for k in 0..4 {
        let t0 = SimTime::from_secs(600 * k + 10);
        mgr.portable_moved(p, f4.d, t0);
        mgr.portable_moved(p, f4.a, t0 + SimDuration::from_secs(30));
        mgr.portable_moved(p, f4.d, t0 + SimDuration::from_secs(300));
        mgr.portable_moved(p, f4.c, t0 + SimDuration::from_secs(330));
    }
    // Now the user is in C with a connection, having come from D.
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(3000))
        .unwrap();
    // Move to D (mobile, just moved): prediction (C→D context) says A.
    mgr.portable_moved(p, f4.d, SimTime::from_secs(3001));
    let wl_a = mgr.net.topology().wireless_link(f4.a);
    assert!(
        mgr.net.link(wl_a).claim(ResvClaim::Conn(id)) >= 64.0 - 1e-9,
        "claim in predicted office A"
    );
    // And nowhere else.
    for other in [f4.b, f4.e, f4.f, f4.g, f4.c] {
        let wl = mgr.net.topology().wireless_link(other);
        assert_eq!(
            mgr.net.link(wl).claim(ResvClaim::Conn(id)),
            0.0,
            "{other:?}"
        );
    }
    // The predicted handoff then consumes its claim.
    let dropped = mgr.portable_moved(p, f4.a, SimTime::from_secs(3030));
    assert!(dropped.is_empty());
    assert_eq!(mgr.net.link(wl_a).sum_b_min(), 64.0);
}

#[test]
fn static_portables_make_no_per_connection_claims() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.a, SimTime::ZERO);
    // Wait beyond T_th before connecting: the portable is static.
    let now = SimTime::from_mins(10);
    let id = mgr.request_connection(p, qos(64.0), now).unwrap();
    assert!(mgr.is_static(p, now));
    for (cell, _) in f4.env.cells() {
        let wl = mgr.net.topology().wireless_link(cell);
        assert_eq!(mgr.net.link(wl).claim(ResvClaim::Conn(id)), 0.0);
    }
    // But neighbours of A hold a B_dyn pool sized at least at the
    // static's allocation (clamped to the 5–20% band).
    let wl_d = mgr.net.topology().wireless_link(f4.d);
    assert!(mgr.net.link(wl_d).claim(ResvClaim::DynPool) >= 80.0 - 1e-9);
}

#[test]
fn meeting_calendar_drives_room_claims() {
    let mut env = IndoorEnvironment::new();
    let x = env.add_cell("X", CellClass::Corridor);
    let m = env.add_cell("M", CellClass::Lounge(LoungeKind::MeetingRoom));
    env.connect(x, m);
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let mut mgr = ResourceManager::new(env, net, ManagerConfig::default());
    let mut cal = BookingCalendar::new();
    cal.book(Meeting {
        t_start: SimTime::from_mins(60),
        t_end: SimTime::from_mins(110),
        expected: 20,
    });
    mgr.set_calendar(m, cal);
    // Before the window: no claim.
    mgr.slot_tick(SimTime::from_mins(40));
    let wl_m = mgr.net.topology().wireless_link(m);
    assert_eq!(mgr.net.link(wl_m).claim(ResvClaim::Cell(m)), 0.0);
    // In the window: 20 × 28 kbps.
    mgr.slot_tick(SimTime::from_mins(52));
    assert!((mgr.net.link(wl_m).claim(ResvClaim::Cell(m)) - 560.0).abs() < 1e-9);
    // An attendee arrives: the claim shrinks and the handoff uses it.
    let p = PortableId(77);
    mgr.portable_appears(p, x, SimTime::from_mins(53));
    mgr.request_connection(p, qos(64.0), SimTime::from_mins(53))
        .unwrap();
    let dropped = mgr.portable_moved(p, m, SimTime::from_mins(54));
    assert!(dropped.is_empty());
    assert!((mgr.net.link(wl_m).claim(ResvClaim::Cell(m)) - 19.0 * 28.0).abs() < 1e-9);
}

/// The capture before the profiles were shared: a deep copy of them.
fn deep_snapshot(mgr: &ResourceManager) -> ManagerSnapshot {
    ManagerSnapshot {
        profiles: Arc::new(ZonedProfiles::clone(&mgr.profiles)),
        ..mgr.snapshot()
    }
}

/// A snapshot shares the live profiles until the manager's next profile
/// write copies them, and only a write made while a snapshot is alive
/// copies: whatever the manager records after a capture, the held image
/// still encodes its capture-time bytes, as the deep copy does.
#[test]
fn a_held_snapshot_encodes_what_a_deep_copy_encodes() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let walk = [
        f4.c, f4.d, f4.a, f4.d, f4.e, f4.b, f4.e, f4.f, f4.g, f4.f, f4.e, f4.d,
    ];
    let mut at: Vec<usize> = (0..4).collect();
    for (i, &w) in at.iter().enumerate() {
        mgr.portable_appears(
            PortableId(300 + i as u32),
            walk[w],
            SimTime::from_secs(i as u64),
        );
    }
    let mut now = SimTime::from_secs(10);
    let mut step = |mgr: &mut ResourceManager, at: &mut Vec<usize>| {
        for (i, w) in at.iter_mut().enumerate() {
            *w = (*w + 1) % walk.len();
            now += SimDuration::from_secs(7);
            mgr.portable_moved(PortableId(300 + i as u32), walk[*w], now);
        }
    };
    for round in 0..12 {
        let held = mgr.snapshot();
        assert!(
            Arc::ptr_eq(&held.profiles, &mgr.profiles),
            "captured by a count"
        );
        let deep = deep_snapshot(&mgr);
        let bytes = held.to_json().expect("encodes");
        step(&mut mgr, &mut at);
        if round % 3 == 0 {
            mgr.cache_history_rows();
        }
        assert!(
            !Arc::ptr_eq(&held.profiles, &mgr.profiles),
            "the first write copied"
        );
        assert_eq!(held.to_json().expect("encodes"), bytes, "round {round}");
        assert_eq!(deep.to_json().expect("encodes"), bytes, "round {round}");
        assert_ne!(mgr.snapshot().to_json().expect("encodes"), bytes);
        drop(held);
        // With no snapshot alive, a write copies nothing.
        let live = Arc::as_ptr(&mgr.profiles);
        step(&mut mgr, &mut at);
        mgr.cache_history_rows();
        assert_eq!(Arc::as_ptr(&mgr.profiles), live, "round {round}");
    }
}

/// A calendar counts arrivals on whatever cell it is installed on, not
/// only on a meeting room: booked on office A, the `Cell(A)` claim falls
/// with each attendee who appears there.
#[test]
fn a_calendar_off_a_meeting_room_counts_its_arrivals() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let a = f4.a;
    assert!(!matches!(
        f4.env.cell(a).class,
        CellClass::Lounge(LoungeKind::MeetingRoom)
    ));
    let mut cal = BookingCalendar::new();
    cal.book(Meeting {
        t_start: SimTime::from_mins(60),
        t_end: SimTime::from_mins(110),
        expected: 4,
    });
    mgr.set_calendar(a, cal);
    let wl_a = mgr.net.topology().wireless_link(a);
    let claim = |mgr: &ResourceManager| mgr.net.link(wl_a).claim(ResvClaim::Cell(a));
    mgr.slot_tick(SimTime::from_mins(50));
    assert_eq!(claim(&mgr).to_bits(), (4.0 * 28.0f64).to_bits());
    for i in 0..4u32 {
        mgr.portable_appears(
            PortableId(700 + i),
            a,
            SimTime::from_mins(51 + u64::from(i)),
        );
        let outstanding = f64::from(3 - i);
        assert_eq!(
            claim(&mgr).to_bits(),
            (outstanding * 28.0).to_bits(),
            "after {i}"
        );
    }
}

#[test]
fn static_fraction_strategy_pins_claims() {
    let (mut mgr, f4) = figure4_manager(Strategy::StaticFraction(0.25));
    mgr.slot_tick(SimTime::from_secs(1));
    for (cell, _) in f4.env.cells() {
        let wl = mgr.net.topology().wireless_link(cell);
        assert!((mgr.net.link(wl).claim(ResvClaim::Cell(cell)) - 400.0).abs() < 1e-9);
    }
}

#[test]
fn aggregate_strategy_spreads_by_history() {
    let (mut mgr, f4) = figure4_manager(Strategy::Aggregate);
    // Build history: traffic out of D goes 80% to E, 20% to A.
    for i in 0..10 {
        let p = PortableId(300 + i);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        mgr.portable_moved(p, f4.d, SimTime::from_secs(10 + i as u64));
        let dest = if i < 8 { f4.e } else { f4.a };
        mgr.portable_moved(p, dest, SimTime::from_secs(100 + i as u64));
    }
    // A new mobile with a 100 kbps connection sits in D.
    let p = PortableId(400);
    mgr.portable_appears(p, f4.c, SimTime::from_secs(200));
    mgr.request_connection(p, qos(100.0), SimTime::from_secs(201))
        .unwrap();
    mgr.portable_moved(p, f4.d, SimTime::from_secs(202));
    let wl_e = mgr.net.topology().wireless_link(f4.e);
    let wl_a = mgr.net.topology().wireless_link(f4.a);
    let claim_e = mgr.net.link(wl_e).claim(ResvClaim::Cell(f4.d));
    let claim_a = mgr.net.link(wl_a).claim(ResvClaim::Cell(f4.d));
    assert!(
        claim_e > claim_a,
        "E ({claim_e}) should outweigh A ({claim_a})"
    );
    assert!(claim_e + claim_a > 0.0);
}

#[test]
fn dyn_pool_rescues_sudden_static_movement() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    // A static portable in A with a fat connection.
    let p = PortableId(50);
    mgr.portable_appears(p, f4.a, SimTime::ZERO);
    let now = SimTime::from_mins(10);
    let id = mgr.request_connection(p, qos(300.0), now).unwrap();
    // Fill D almost completely with other users so only the pool is left.
    let mut t = now;
    for i in 0..10 {
        let q = PortableId(600 + i);
        mgr.portable_appears(q, f4.d, SimTime::ZERO);
        t += SimDuration::from_secs(1);
        mgr.request_connection(q, qos(128.0), t).unwrap();
    }
    let wl_d = mgr.net.topology().wireless_link(f4.d);
    // 10×128 = 1280 used of 1600; pool covers the 300 kbps static.
    let pool = mgr.net.link(wl_d).claim(ResvClaim::DynPool);
    assert!(pool >= 300.0 - 1e-9, "pool={pool}");
    // The static suddenly moves: no per-conn claim exists, but the pool
    // absorbs the handoff.
    let dropped = mgr.portable_moved(p, f4.d, t + SimDuration::from_secs(1));
    assert!(dropped.is_empty(), "B_dyn should rescue the handoff");
    assert_eq!(mgr.metrics.claims_consumed.get(), 1);
    assert!(mgr.net.get(id).is_some());
}

#[test]
fn slot_tick_feeds_lounge_predictors() {
    let mut env = IndoorEnvironment::new();
    let x = env.add_cell("X", CellClass::Corridor);
    let d = env.add_cell("D", CellClass::Lounge(LoungeKind::Default));
    env.connect(x, d);
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let mut mgr = ResourceManager::new(env, net, ManagerConfig::default());
    // Three portables leave the default lounge this slot.
    for i in 0..3 {
        let p = PortableId(700 + i);
        mgr.portable_appears(p, d, SimTime::ZERO);
        mgr.portable_moved(p, x, SimTime::from_secs(10 + i as u64));
    }
    mgr.slot_tick(SimTime::from_mins(1));
    // One-step memory: predict 3 leavers next slot → claim 3×28 kbps in
    // the neighbour X under the lounge's key.
    let wl_x = mgr.net.topology().wireless_link(x);
    assert!((mgr.net.link(wl_x).claim(ResvClaim::Cell(d)) - 84.0).abs() < 1e-9);
}

/// A lounge of the given kind with three corridor neighbours and a
/// skewed departure history: 1, 2 and 4 portables leave it for the
/// first, second and third neighbour, one batch per slot, each slot
/// closed by a `slot_tick`. The lounge's transition row is then
/// `{1/7, 2/7, 4/7}` and its predictor has observed `[1, 2, 4]`.
fn lounge_with_history(kind: LoungeKind) -> (ResourceManager, CellId, [CellId; 3]) {
    let mut env = IndoorEnvironment::new();
    let lounge = env.add_cell("L", CellClass::Lounge(kind));
    let ns = ["N0", "N1", "N2"].map(|name| env.add_cell(name, CellClass::Corridor));
    for n in ns {
        env.connect(lounge, n);
    }
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let mut mgr = ResourceManager::new(env, net, ManagerConfig::default());
    let mut next = 0;
    for (slot, n) in ns.into_iter().enumerate() {
        for i in 0..1u64 << slot {
            let p = PortableId(800 + next);
            next += 1;
            mgr.portable_appears(p, lounge, SimTime::ZERO);
            mgr.portable_moved(p, n, SimTime::from_secs(60 * slot as u64 + 10 + i));
        }
        mgr.slot_tick(SimTime::from_mins(slot as u64 + 1));
    }
    (mgr, lounge, ns)
}

/// The `Cell(source)` claim on each neighbour's wireless link must be
/// `demand` split by the `{1/7, 2/7, 4/7}` row — bit for bit, in the
/// order `spread_to_neighbors` does the arithmetic.
fn assert_spread_bits(mgr: &ResourceManager, source: CellId, ns: [CellId; 3], demand: f64) {
    let row = [1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0];
    let known: f64 = row.iter().sum();
    for (n, weight) in ns.into_iter().zip(row) {
        let want = demand * (weight / known);
        let wl = mgr.net.topology().wireless_link(n);
        let got = mgr.net.link(wl).claim(ResvClaim::Cell(source));
        assert_eq!(got.to_bits(), want.to_bits(), "{n:?}: {got} vs {want}");
    }
}

#[test]
fn default_lounge_claim_bits() {
    let (mgr, lounge, ns) = lounge_with_history(LoungeKind::Default);
    // One-step memory: the last slot's 4 leavers, 28 kbps each.
    assert_spread_bits(&mgr, lounge, ns, 4.0 * 28.0);
}

#[test]
fn cafeteria_claim_bits() {
    use arm_reservation::cafeteria::CafeteriaPredictor;
    let (mgr, lounge, ns) = lounge_with_history(LoungeKind::Cafeteria);
    let mut pred = CafeteriaPredictor::new();
    for count in [1.0, 2.0, 4.0] {
        pred.observe(count);
    }
    assert!(pred.predict() > 4.0, "the least-squares fit extrapolates");
    assert_spread_bits(&mgr, lounge, ns, pred.predict() * 28.0);
}

#[test]
fn meeting_room_claim_bits() {
    let (mut mgr, room, ns) = lounge_with_history(LoungeKind::MeetingRoom);
    // A short meeting whose arrival and departure windows overlap, so
    // rule (a) and rule (b) are live at once at minute 61.
    let mut cal = BookingCalendar::new();
    cal.book(Meeting {
        t_start: SimTime::from_mins(60),
        t_end: SimTime::from_mins(62),
        expected: 5,
    });
    mgr.set_calendar(room, cal);
    for i in 0..3 {
        let p = PortableId(900 + i);
        mgr.portable_appears(p, ns[0], SimTime::from_mins(54));
        mgr.portable_moved(p, room, SimTime::from_mins(55));
    }
    mgr.slot_tick(SimTime::from_mins(61));
    // Rule (a): the 2 attendees still expected, on the room's own link.
    let wl = mgr.net.topology().wireless_link(room);
    let own = mgr.net.link(wl).claim(ResvClaim::Cell(room));
    assert_eq!(own.to_bits(), (2.0 * 28.0f64).to_bits());
    // Rule (b): the 3 present, spread over the neighbours.
    assert_spread_bits(&mgr, room, ns, 3.0 * 28.0);
}

#[test]
fn multicast_branches_follow_the_mobile() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(1))
        .unwrap();
    // Mobile in C: branches toward C's neighbours (just D).
    assert_eq!(mgr.multicast.branches_of(id), vec![f4.d]);
    mgr.portable_moved(p, f4.d, SimTime::from_secs(10));
    let mut branches = mgr.multicast.branches_of(id);
    branches.sort();
    assert_eq!(branches, vec![f4.a, f4.c, f4.e]);
    // Terminating tears everything down.
    mgr.terminate(id, SimTime::from_secs(20));
    assert!(mgr.multicast.branches_of(id).is_empty());
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn static_portables_lose_their_multicast_branches() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(1))
        .unwrap();
    assert!(!mgr.multicast.branches_of(id).is_empty());
    // After T_th the portable is static; the slot tick retires branches.
    mgr.slot_tick(SimTime::from_mins(10));
    assert!(mgr.multicast.branches_of(id).is_empty());
}

#[test]
fn renegotiation_upgrades_and_restores_on_failure() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(1))
        .unwrap();
    // Upgrade to 512 kbps: fits, new floor reserved.
    mgr.renegotiate(id, qos(512.0), SimTime::from_secs(2))
        .unwrap();
    let wl = mgr.net.topology().wireless_link(f4.c);
    assert_eq!(mgr.net.link(wl).sum_b_min(), 512.0);
    assert_eq!(mgr.net.get(id).unwrap().qos.b_min, 512.0);
    // A second user fills most of the rest.
    let q = PortableId(51);
    mgr.portable_appears(q, f4.c, SimTime::ZERO);
    mgr.request_connection(q, qos(1000.0), SimTime::from_secs(3))
        .unwrap();
    // Upgrading beyond capacity fails but the connection survives under
    // its previous bounds.
    let err = mgr.renegotiate(id, qos(1500.0), SimTime::from_secs(4));
    assert!(err.is_err());
    let c = mgr.net.get(id).expect("still live");
    assert_eq!(c.qos.b_min, 512.0);
    assert_eq!(mgr.net.link(wl).sum_b_min(), 1512.0);
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn renegotiation_downgrade_frees_capacity() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(p, qos(1000.0), SimTime::from_secs(1))
        .unwrap();
    mgr.renegotiate(id, qos(100.0), SimTime::from_secs(2))
        .unwrap();
    let wl = mgr.net.topology().wireless_link(f4.c);
    assert_eq!(mgr.net.link(wl).sum_b_min(), 100.0);
    // The freed capacity admits a new large connection.
    let q = PortableId(51);
    mgr.portable_appears(q, f4.c, SimTime::ZERO);
    assert!(mgr
        .request_connection(q, qos(1400.0), SimTime::from_secs(3))
        .is_ok());
}

#[test]
fn channel_fade_squeezes_then_recovers() {
    let (mgr, f4) = figure4_manager(Strategy::None);
    // Two adaptive connections sharing C's 1600 kbps medium.
    let adaptive = QosRequest::bandwidth(200.0, 1600.0)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0);
    let mut cfg_mgr = {
        let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
        let cfg = ManagerConfig {
            strategy: Strategy::None,
            resolve_excess: true,
            dyn_pool: None,
            t_th: SimDuration::from_secs(0),
            ..Default::default()
        };
        ResourceManager::new(f4.env.clone(), net, cfg)
    };
    drop(mgr);
    let mgr = &mut cfg_mgr;
    for i in 0..2 {
        let p = PortableId(60 + i);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        mgr.request_connection(p, adaptive, SimTime::from_secs(1 + u64::from(i)))
            .unwrap();
    }
    let ids: Vec<_> = mgr.net.live_connections().map(|c| c.id).collect();
    // Fully adapted up: 800 each.
    for id in &ids {
        assert!((mgr.net.get(*id).unwrap().b_current - 800.0).abs() < 1e-6);
    }
    // The medium fades to 40%: 640 kbps effective. Floors (400) still
    // fit, so nobody is dropped, but allocations shrink to 320 each.
    let victims = mgr
        .channel_change(f4.c, 0.4, SimTime::from_secs(10))
        .expect("valid fraction");
    assert!(victims.is_empty());
    for id in &ids {
        assert!(
            (mgr.net.get(*id).unwrap().b_current - 320.0).abs() < 1e-6,
            "rate {}",
            mgr.net.get(*id).unwrap().b_current
        );
    }
    // Recovery restores the full shares.
    mgr.channel_change(f4.c, 1.0, SimTime::from_secs(60))
        .expect("valid fraction");
    for id in &ids {
        assert!((mgr.net.get(*id).unwrap().b_current - 800.0).abs() < 1e-6);
    }
    assert!(mgr.net.check_invariants().is_ok());
    assert_eq!(mgr.channel_renegotiations, 0);
}

#[test]
fn deep_fade_drops_youngest_first() {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        dyn_pool: None,
        t_th: SimDuration::from_secs(0),
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
    let mut ids = Vec::new();
    for i in 0..3 {
        let p = PortableId(70 + i);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        ids.push(
            mgr.request_connection(p, qos(500.0), SimTime::from_secs(1 + u64::from(i)))
                .unwrap(),
        );
    }
    // Fade to 40%: 640 effective < 1500 of floors — two must go, and it
    // is the two youngest (latest arrivals).
    let victims = mgr
        .channel_change(f4.c, 0.4, SimTime::from_secs(10))
        .expect("valid fraction");
    assert_eq!(victims, vec![ids[2], ids[1]]);
    assert_eq!(mgr.channel_renegotiations, 2);
    assert!(mgr.net.get(ids[0]).is_some());
    assert!(mgr.net.get(ids[1]).is_none() && mgr.net.get(ids[2]).is_none());
    assert!(mgr.net.check_invariants().is_ok());
    // New admissions respect the faded capacity.
    let p = PortableId(80);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    assert!(mgr
        .request_connection(p, qos(500.0), SimTime::from_secs(11))
        .is_err());
    assert!(mgr
        .request_connection(p, qos(100.0), SimTime::from_secs(12))
        .is_ok());
}

#[test]
fn delta_throttles_adaptation_rounds() {
    // Same fade schedule; a large δ runs fewer adaptation rounds.
    let run = |delta: f64| -> u64 {
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
        let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
        let p = PortableId(1);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        let adaptive = QosRequest::bandwidth(100.0, 1600.0)
            .with_delay(10.0)
            .with_jitter(10.0)
            .with_loss(1.0);
        mgr.request_connection(p, adaptive, SimTime::from_secs(1))
            .unwrap();
        // A sequence of tiny capacity wobbles (fades of 2%).
        for k in 0..20u64 {
            let f = if k % 2 == 0 { 0.98 } else { 1.0 };
            mgr.channel_change(f4.c, f, SimTime::from_secs(10 + k))
                .expect("valid fraction");
        }
        mgr.adaptation_rounds
    };
    let eager = run(0.0);
    let throttled = run(100.0);
    assert!(
        throttled < eager,
        "δ=100 ({throttled}) should run fewer rounds than δ=0 ({eager})"
    );
}

#[test]
fn cross_zone_handoff_transfers_the_profile() {
    // Figure 4 split into two zones: {A, C, D} west, {B, E, F, G} east.
    let mut f4 = Figure4::build();
    for cell in [f4.b, f4.e, f4.f, f4.g] {
        f4.env.set_zone(cell, ZoneId(1));
    }
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let mut mgr = ResourceManager::new(f4.env.clone(), net, ManagerConfig::default());
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    mgr.request_connection(p, qos(64.0), SimTime::from_secs(1))
        .unwrap();
    // Build a habit entirely in the west zone: C → D → C…
    for k in 0..3u64 {
        mgr.portable_moved(p, f4.d, SimTime::from_secs(10 + 20 * k));
        mgr.portable_moved(p, f4.c, SimTime::from_secs(20 + 20 * k));
    }
    // Cross the boundary: D → E.
    mgr.portable_moved(p, f4.d, SimTime::from_secs(100));
    let dropped = mgr.portable_moved(p, f4.e, SimTime::from_secs(110));
    assert!(dropped.is_empty());
    assert_eq!(mgr.profiles().transfers, 1, "profile handed over once");
    // The east zone now holds the portable's profile with its history.
    let east = mgr.profiles().server(ZoneId(1)).expect("zone 1 exists");
    assert!(east.portable(p).is_some());
    assert!(mgr
        .profiles()
        .server(ZoneId(0))
        .unwrap()
        .portable(p)
        .is_none());
    // Moving back transfers again.
    mgr.portable_moved(p, f4.d, SimTime::from_secs(120));
    assert_eq!(mgr.profiles().transfers, 2);
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn bad_channel_fraction_is_a_typed_error() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    for bad in [0.0, -0.3, 1.5, f64::NAN] {
        let err = mgr
            .channel_change(f4.c, bad, SimTime::from_secs(1))
            .expect_err("fraction outside (0, 1] must be rejected");
        assert!(matches!(err, ControlError::BadChannelFraction { .. }));
    }
    // Rejected inputs leave no trace.
    let wl = mgr.net.topology().wireless_link(f4.c);
    assert_eq!(mgr.net.link(wl).claim(ResvClaim::Channel), 0.0);
}

#[test]
fn link_failure_squeezes_riders_and_seals_admission() {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        dyn_pool: None,
        t_th: SimDuration::from_secs(0),
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
    let adaptive = QosRequest::bandwidth(200.0, 1600.0)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0);
    for i in 0..2 {
        let p = PortableId(60 + i);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        mgr.request_connection(p, adaptive, SimTime::from_secs(1 + u64::from(i)))
            .unwrap();
    }
    let ids: Vec<_> = mgr.net.live_connections().map(|c| c.id).collect();
    let wl = mgr.net.topology().wireless_link(f4.c);
    // Star topology: no detour exists, so the riders squeeze to b_min.
    mgr.link_failed(wl, SimTime::from_secs(10));
    assert!(mgr.is_link_down(wl));
    for id in &ids {
        let c = mgr.net.get(*id).expect("a link failure never drops");
        assert!((c.b_current - 200.0).abs() < 1e-6, "rate {}", c.b_current);
    }
    // The outage seal blocks new admissions on the dead link.
    let p = PortableId(90);
    mgr.portable_appears(p, f4.c, SimTime::from_secs(10));
    assert!(mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(11))
        .is_err());
    // A second failure of the same link is an idempotent no-op.
    mgr.link_failed(wl, SimTime::from_secs(12));
    assert_eq!(mgr.link_failures, 1);
    assert!(mgr.net.check_invariants().is_ok());
    // Restoration lifts the seal: rates re-grow and admission works.
    mgr.link_restored(wl, SimTime::from_secs(20));
    assert!(!mgr.is_link_down(wl));
    for id in &ids {
        assert!(mgr.net.get(*id).unwrap().b_current > 200.0 + 1e-6);
    }
    assert!(mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(21))
        .is_ok());
    assert!(mgr.net.check_invariants().is_ok());
}

/// A wired hop fails and comes back while eqn 2's gate stays shut (the
/// wireless excess never moves and δ is out of reach): the rider is
/// squeezed to its floor, yet every input of the maxmin problem is back
/// to its old bits before any round runs. The round another cell's
/// admission opens must still return the rider to its frozen share.
#[test]
fn a_rider_squeezed_inside_a_closed_gate_regrows_at_the_next_round() {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        dyn_pool: None,
        t_th: SimDuration::from_secs(0),
        delta: 5000.0,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
    let adaptive = QosRequest::bandwidth(100.0, 1600.0)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0);
    let rider = PortableId(1);
    mgr.portable_appears(rider, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(rider, adaptive, SimTime::from_secs(1))
        .unwrap();
    assert_eq!(mgr.net.get(id).unwrap().b_current, 1600.0);
    let wired = mgr.net.get(id).unwrap().route.links[1];
    let rounds = mgr.adaptation_rounds;
    mgr.link_failed(wired, SimTime::from_secs(10));
    assert_eq!(mgr.net.get(id).unwrap().b_current, 100.0);
    mgr.link_restored(wired, SimTime::from_secs(20));
    assert_eq!(mgr.adaptation_rounds, rounds, "the gate stayed shut");
    assert_eq!(mgr.net.get(id).unwrap().b_current, 100.0);
    let other = PortableId(2);
    mgr.portable_appears(other, f4.a, SimTime::from_secs(30));
    mgr.request_connection(other, adaptive, SimTime::from_secs(31))
        .unwrap();
    assert_eq!(mgr.adaptation_rounds, rounds + 1);
    assert_eq!(mgr.net.get(id).unwrap().b_current, 1600.0);
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn wired_link_failure_blocks_the_cell_until_restored() {
    let (mut mgr, f4) = figure4_manager(Strategy::None);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(1))
        .unwrap();
    // The backbone hop of C's route fails; the star offers no detour,
    // so the fixed-rate connection just rides at its floor.
    let wired = mgr.net.get(id).unwrap().route.links[1];
    mgr.link_failed(wired, SimTime::from_secs(10));
    assert!(mgr.net.get(id).is_some());
    let q = PortableId(51);
    mgr.portable_appears(q, f4.c, SimTime::from_secs(10));
    assert!(mgr
        .request_connection(q, qos(64.0), SimTime::from_secs(11))
        .is_err());
    mgr.link_restored(wired, SimTime::from_secs(20));
    assert!(mgr
        .request_connection(q, qos(64.0), SimTime::from_secs(21))
        .is_ok());
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn handoff_signalling_failure_forfeits_the_claims() {
    // Same setup as dyn_pool_rescues_sudden_static_movement, except the
    // handoff's signalling is lost: no claim (not even B_dyn) can be
    // consumed, plain admission fails at the full cell, and the
    // connection drops.
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let p = PortableId(50);
    mgr.portable_appears(p, f4.a, SimTime::ZERO);
    let now = SimTime::from_mins(10);
    let id = mgr.request_connection(p, qos(300.0), now).unwrap();
    let mut t = now;
    for i in 0..10 {
        let q = PortableId(600 + i);
        mgr.portable_appears(q, f4.d, SimTime::ZERO);
        t += SimDuration::from_secs(1);
        mgr.request_connection(q, qos(128.0), t).unwrap();
    }
    mgr.fail_next_handoff(p);
    let dropped = mgr.portable_moved(p, f4.d, t + SimDuration::from_secs(1));
    assert_eq!(dropped, vec![id]);
    assert_eq!(mgr.handoff_signalling_failures, 1);
    assert_eq!(mgr.metrics.claims_consumed.get(), 0);
    // Only the one signalled failure is consumed: a later handoff of a
    // fresh connection proceeds normally.
    let id2 = mgr
        .request_connection(p, qos(64.0), t + SimDuration::from_secs(2))
        .unwrap();
    let dropped = mgr.portable_moved(p, f4.e, t + SimDuration::from_secs(3));
    assert!(dropped.is_empty());
    assert!(mgr.net.get(id2).is_some());
    assert!(mgr.net.check_invariants().is_ok());
}

#[test]
fn profile_outage_falls_back_to_even_spread_and_recovers() {
    let (mut mgr, f4) = figure4_manager(Strategy::Paper);
    let p = PortableId(50);
    // Teach the profile the C → D → A habit.
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    for k in 0..4 {
        let t0 = SimTime::from_secs(600 * k + 10);
        mgr.portable_moved(p, f4.d, t0);
        mgr.portable_moved(p, f4.a, t0 + SimDuration::from_secs(30));
        mgr.portable_moved(p, f4.d, t0 + SimDuration::from_secs(300));
        mgr.portable_moved(p, f4.c, t0 + SimDuration::from_secs(330));
    }
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(3000))
        .unwrap();
    mgr.portable_moved(p, f4.d, SimTime::from_secs(3001));
    let wl_a = mgr.net.topology().wireless_link(f4.a);
    assert!(mgr.net.link(wl_a).claim(ResvClaim::Conn(id)) >= 64.0 - 1e-9);
    // The zone's profile server goes down: prediction is unavailable,
    // so the per-connection claim degrades into an even Cell(D) spread
    // over D's neighbours C, E, A (the stale-profile fallback).
    mgr.profile_server_down(ZoneId(0), SimTime::from_secs(3002));
    assert_eq!(mgr.net.link(wl_a).claim(ResvClaim::Conn(id)), 0.0);
    for n in [f4.c, f4.e, f4.a] {
        let wl = mgr.net.topology().wireless_link(n);
        let claim = mgr.net.link(wl).claim(ResvClaim::Cell(f4.d));
        assert!((claim - 64.0 / 3.0).abs() < 1e-9, "{n:?}: {claim}");
    }
    assert!(mgr.stale_profile_fallbacks > 0);
    // Recovery restores prediction-based claims from the (stale but
    // intact) profile.
    mgr.profile_server_up(ZoneId(0), SimTime::from_secs(3003));
    assert!(mgr.net.link(wl_a).claim(ResvClaim::Conn(id)) >= 64.0 - 1e-9);
    assert!(mgr.net.check_invariants().is_ok());
}

/// The guard's third condition, on a hand-built link where it is the
/// only one that matters. A `Channel` claim of 0.1 and a plan of three
/// `Cell` spreads — 0.1, 0.6, 0.9 — whose wipe-and-replay moves `b_resv`
/// by an ULP at each of the first three re-runs and by nothing at the
/// fourth. The plan never changes and nothing else writes the ledger, so
/// a guard that looked only at the plan and the revision would let the
/// link stand from the second refresh on, one ULP away from what the
/// wholesale refresh (`reference::reference_rewrite`) leaves.
#[test]
fn the_no_op_guard_reruns_until_a_run_changes_nothing() {
    use crate::claim_plan::{ClaimWrite, LinkPlan};
    use arm_net::LinkState;
    let writes =
        [(0, 0.1), (1, 0.6), (2, 0.9)].map(|(c, v)| ClaimWrite::Add(ResvClaim::Cell(CellId(c)), v));
    let mut guarded = LinkState::new(100.0);
    guarded.set_claim(ResvClaim::Channel, 0.1);
    let mut wholesale = guarded.clone();
    let bits = |l: &LinkState| {
        let claims: Vec<(ResvClaim, u64)> = l.claims().map(|(k, v)| (k, v.to_bits())).collect();
        (claims, l.sum_bits())
    };
    let mut plan = LinkPlan::default();
    let mut scratch = Vec::new();
    let mut reran = Vec::new();
    let mut resv = Vec::new();
    for step in 0..6 {
        for w in writes {
            plan.stage(w);
        }
        assert_eq!(plan.commit(), step == 0, "the plan changes once");
        reran.push(plan.apply(&mut guarded, &mut scratch, Twin::Production));
        super::reference::reference_rewrite(&mut wholesale, &writes);
        assert_eq!(bits(&guarded), bits(&wholesale), "refresh {step}");
        resv.push(guarded.b_resv().to_bits());
    }
    assert_eq!(reran, [true, true, true, true, false, false]);
    assert!(resv[0] != resv[1] && resv[1] != resv[2] && resv[2] == resv[3]);
    // Any write to the ledger, even one that changes no bit, puts the
    // link back on the re-run path.
    guarded.release_claim(ResvClaim::Outage);
    assert!(plan.apply(&mut guarded, &mut scratch, Twin::Production));
}

/// The floors the route tables are proved on: the Figure 4 office, the
/// 63-cell wing, and a campus whose backbone is a mesh with equal-cost
/// detours (so a table must reproduce Dijkstra's tie-breaks, not just
/// its hop counts).
fn office_wing_and_campus() -> [(IndoorEnvironment, Network); 3] {
    use arm_net::topology::Topology;

    let f4 = Figure4::build();
    let wing = arm_mobility::environment::office_wing(30);
    let campus_env = arm_mobility::environment::office_wing(4);
    // Campus backbone: a hub (node 0, where connections terminate) and
    // three building switches, every pair of the four joined — two
    // equal-cost ways from each building to the hub's neighbours — with
    // the cells dealt round-robin onto the buildings, and one cell two
    // switches deep.
    let campus_net = {
        let mut topo = Topology::new();
        let hub = topo.add_switch("hub");
        let buildings: Vec<_> = (0..3)
            .map(|i| topo.add_switch(format!("building-{i}")))
            .collect();
        for (i, b) in buildings.iter().enumerate() {
            topo.add_wired_duplex(hub, *b, 100_000.0, 0.0);
            topo.add_wired_duplex(*b, buildings[(i + 1) % 3], 100_000.0, 0.0);
        }
        let annex = topo.add_switch("annex");
        topo.add_wired_duplex(annex, buildings[1], 100_000.0, 0.0);
        topo.add_wired_duplex(annex, buildings[2], 100_000.0, 0.0);
        for (i, (_, info)) in campus_env.cells().enumerate() {
            let c = topo.add_cell(&info.name, 1600.0, 0.0);
            let sw = if i == 0 { annex } else { buildings[i % 3] };
            topo.add_wired_duplex(sw, topo.base_station(c), 100_000.0, 0.0);
        }
        Network::new(topo)
    };
    [
        (f4.env.clone(), f4.env.build_network(1600.0, 0.0, 100_000.0)),
        (wing.clone(), wing.build_network(1600.0, 0.0, 100_000.0)),
        (campus_env, campus_net),
    ]
}

/// The uplink route a connection is given — read from the manager's
/// route table, not from a Dijkstra run per connection — is the route
/// `shortest_path` returns, node for node and link for link, for every
/// cell of [`office_wing_and_campus`]. Checked on the table and on the
/// routes installed by a request and by a handoff.
#[test]
fn uplink_routes_equal_live_dijkstra_on_office_wing_and_campus() {
    use arm_net::routing::shortest_path;

    for (env, net) in office_wing_and_campus() {
        let mut mgr = ResourceManager::new(env.clone(), net, ManagerConfig::default());
        let live = |mgr: &ResourceManager, c: CellId| {
            let topo = mgr.net.topology();
            shortest_path(topo, topo.air_node(c), NodeId(0)).expect("connected")
        };
        assert_eq!(mgr.uplinks.len(), env.cells().count());
        for (c, _) in env.cells() {
            assert_eq!(
                ResourceManager::uplink_route(&mgr.uplinks, c),
                &live(&mgr, c),
                "{c:?}"
            );
        }
        // And as installed: one portable per cell requests there, then
        // hands off to a neighbour.
        for (i, (c, info)) in env.cells().enumerate() {
            let p = PortableId(9000 + i as u32);
            mgr.portable_appears(p, c, SimTime::ZERO);
            let id = mgr
                .request_connection(p, qos(16.0), SimTime::from_secs(1))
                .expect("an empty floor admits");
            assert_eq!(mgr.net.get(id).expect("installed").route, live(&mgr, c));
            let n = *info.neighbors.iter().next().expect("no isolated cells");
            assert!(mgr.portable_moved(p, n, SimTime::from_secs(2)).is_empty());
            assert_eq!(mgr.net.get(id).expect("live").route, live(&mgr, n));
            mgr.terminate(id, SimTime::from_secs(3));
        }
    }
}

/// The wired legs a multicast branch reserves — read from the manager's
/// neighbour route table — are the wired links of the route
/// `shortest_path` returns between the two base stations, for every
/// `(cell, neighbour)` of [`office_wing_and_campus`]: one single-source
/// run per cell finds what a run per neighbour found. Checked on the
/// table and on the claims a handoff's re-established branches hold.
#[test]
fn branch_legs_equal_live_dijkstra_on_office_wing_and_campus() {
    use arm_net::routing::shortest_path;

    for (env, net) in office_wing_and_campus() {
        let mut mgr = ResourceManager::new(env.clone(), net, ManagerConfig::default());
        let live = |mgr: &ResourceManager, c: CellId, n: CellId| -> Vec<LinkId> {
            let topo = mgr.net.topology();
            let route =
                shortest_path(topo, topo.base_station(c), topo.base_station(n)).expect("connected");
            let wired = |l: &LinkId| topo.link(*l).wireless_cell.is_none();
            route.links.into_iter().filter(wired).collect()
        };
        assert_eq!(mgr.branch_legs.len(), env.cell_count());
        for (c, info) in env.cells() {
            let row = &mgr.branch_legs[c.index()];
            let listed: Vec<CellId> = row.iter().map(|(n, _)| *n).collect();
            assert_eq!(listed, info.neighbors.iter().copied().collect::<Vec<_>>());
            for (n, legs) in row {
                assert_eq!(legs.as_ref(), Some(&live(&mgr, c, *n)), "{c:?} → {n:?}");
            }
        }
        // And as reserved: a portable in every cell hands off to a
        // neighbour; its connection's claim on each wired link is one
        // floor per branch crossing it.
        for (i, (c, info)) in env.cells().enumerate() {
            let p = PortableId(9000 + i as u32);
            mgr.portable_appears(p, c, SimTime::ZERO);
            let id = mgr
                .request_connection(p, qos(16.0), SimTime::from_secs(1))
                .expect("an empty floor admits");
            let to = *info.neighbors.iter().next().expect("no isolated cells");
            assert!(mgr.portable_moved(p, to, SimTime::from_secs(2)).is_empty());
            let mut expected = std::collections::BTreeMap::new();
            for n in env.neighbors(to) {
                for l in live(&mgr, to, n) {
                    *expected.entry(l).or_insert(0.0) += 16.0;
                }
            }
            assert_eq!(
                mgr.multicast.branches_of(id),
                env.neighbors(to).collect::<Vec<_>>()
            );
            for (l, link) in mgr.net.links() {
                if mgr.net.topology().link(l).wireless_cell.is_none() {
                    let want = expected.get(&l).copied().unwrap_or(0.0);
                    assert_eq!(link.claim(ResvClaim::Conn(id)), want, "{to:?} {l:?}");
                }
            }
            mgr.terminate(id, SimTime::from_secs(3));
        }
    }
}

/// A neighbour whose base station is wired to nothing has no legs in
/// the table: its branch counts as failed, the others stand, and nothing
/// panics.
#[test]
fn an_unwired_neighbour_is_a_failed_branch() {
    let f4 = Figure4::build();
    let net = {
        let mut topo = arm_net::topology::Topology::new();
        let sw = topo.add_switch("backbone");
        for (id, info) in f4.env.cells() {
            let c = topo.add_cell(&info.name, 1600.0, 0.0);
            if id != f4.a {
                topo.add_wired_duplex(sw, topo.base_station(c), 100_000.0, 0.0);
            }
        }
        Network::new(topo)
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, ManagerConfig::default());
    let legs = |c: CellId, n: CellId| {
        let row = &mgr.branch_legs[c.index()];
        row.iter()
            .find(|(m, _)| *m == n)
            .map(|(_, legs)| legs.is_some())
    };
    assert_eq!(legs(f4.d, f4.a), Some(false));
    assert_eq!(legs(f4.a, f4.d), Some(false));
    assert_eq!(legs(f4.d, f4.e), Some(true));
    let p = PortableId(50);
    mgr.portable_appears(p, f4.c, SimTime::ZERO);
    let id = mgr
        .request_connection(p, qos(64.0), SimTime::from_secs(1))
        .expect("C is wired");
    assert_eq!(mgr.multicast.failed_branches, 0);
    assert!(mgr
        .portable_moved(p, f4.d, SimTime::from_secs(2))
        .is_empty());
    assert_eq!(mgr.multicast.failed_branches, 1);
    assert_eq!(mgr.multicast.branches_of(id), vec![f4.c, f4.e]);
    assert!(mgr.net.check_invariants().is_ok());
}

/// One wired link's claims and running sums, as bits.
type WiredBits = (Vec<(ResvClaim, u64)>, [u64; 4]);

/// Every wired link's [`WiredBits`].
fn wired_bits(mgr: &ResourceManager) -> Vec<WiredBits> {
    mgr.net
        .links()
        .filter(|(l, _)| mgr.net.topology().link(*l).wireless_cell.is_none())
        .map(|(_, l)| {
            (
                l.claims().map(|(k, v)| (k, v.to_bits())).collect(),
                l.sum_bits(),
            )
        })
        .collect()
}

/// Every wired link's ledger revision.
fn wired_revisions(mgr: &ResourceManager) -> Vec<arm_net::link::Revision> {
    mgr.net
        .links()
        .filter(|(l, _)| mgr.net.topology().link(*l).wireless_cell.is_none())
        .map(|(_, l)| l.revision())
        .collect()
}

/// The behaviour the retiring tick changes, on a backbone that cannot
/// carry every branch: cell A's base station is wired to nothing, so a
/// branch toward A is refused whenever it is set up. The refusal stands
/// across slot ticks — `failed_branches` counts set-up attempts, and
/// the per-portable re-sync (the reference twin) counted one more at
/// every tick — and the branch is tried again at the portable's next
/// handoff toward A. A tick at which nobody settles writes no wired
/// ledger at all.
#[test]
fn a_refused_branch_waits_for_the_next_handoff() {
    let f4 = Figure4::build();
    let build = |reference: bool| {
        let mut topo = arm_net::topology::Topology::new();
        let sw = topo.add_switch("backbone");
        for (id, info) in f4.env.cells() {
            let c = topo.add_cell(&info.name, 1600.0, 0.0);
            if id != f4.a {
                topo.add_wired_duplex(sw, topo.base_station(c), 100_000.0, 0.0);
            }
        }
        let mut mgr =
            ResourceManager::new(f4.env.clone(), Network::new(topo), ManagerConfig::default());
        if reference {
            mgr.set_twin(Twin::WholeTableAndResync);
        }
        mgr
    };
    let (mut mgr, mut reference) = (build(false), build(true));
    let p = PortableId(50);
    let mut id = None;
    for m in [&mut mgr, &mut reference] {
        m.portable_appears(p, f4.c, SimTime::ZERO);
        id = Some(
            m.request_connection(p, qos(64.0), SimTime::from_secs(1))
                .expect("C is wired"),
        );
        assert!(m.portable_moved(p, f4.d, SimTime::from_secs(2)).is_empty());
        assert_eq!(m.multicast.failed_branches, 1);
    }
    let id = id.expect("admitted");
    // Three ticks inside T_th (5 min): p is mobile throughout.
    for min in 1..=3 {
        let revs = wired_revisions(&mgr);
        mgr.slot_tick(SimTime::from_mins(min));
        reference.slot_tick(SimTime::from_mins(min));
        assert_eq!(mgr.multicast.failed_branches, 1, "tick {min}");
        assert_eq!(
            mgr.multicast.branches_of(id),
            vec![f4.c, f4.e],
            "tick {min}"
        );
        assert_eq!(
            wired_revisions(&mgr),
            revs,
            "tick {min} wrote a wired ledger"
        );
        // The re-sync tried A again, every minute.
        assert_eq!(reference.multicast.failed_branches, 1 + min, "tick {min}");
        assert_eq!(wired_bits(&mgr), wired_bits(&reference), "tick {min}");
    }
    // Away from A and back: D → E sets up E's branches, E → D tries A
    // once more.
    let t = SimTime::from_mins(3) + SimDuration::from_secs(30);
    assert!(mgr.portable_moved(p, f4.e, t).is_empty());
    assert_eq!(mgr.multicast.failed_branches, 1);
    assert_eq!(
        mgr.multicast.branches_of(id),
        f4.env.neighbors(f4.e).collect::<Vec<_>>()
    );
    assert!(mgr
        .portable_moved(p, f4.d, t + SimDuration::from_secs(30))
        .is_empty());
    assert_eq!(mgr.multicast.failed_branches, 2);
    assert_eq!(mgr.multicast.branches_of(id), vec![f4.c, f4.e]);
    // Settled: the next tick after T_th in D retires the branches, and
    // writes the wired ledgers they held.
    let revs = wired_revisions(&mgr);
    mgr.slot_tick(SimTime::from_mins(10));
    assert!(mgr.multicast.branches_of(id).is_empty());
    assert_eq!(mgr.multicast.active_branches, 0);
    assert_ne!(wired_revisions(&mgr), revs);
    assert_eq!(mgr.multicast.failed_branches, 2);
    assert!(mgr.net.check_invariants().is_ok());
}

// ----------------------------------------------------------------------
// The static set's keeper, under a strategy with no dispatch pass
// ----------------------------------------------------------------------

/// A `Strategy::None` manager on Figure 4 with a `T_th` of 5 minutes.
fn statics_manager(t_th: SimDuration) -> (ResourceManager, Figure4) {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        t_th,
        ..Default::default()
    };
    (ResourceManager::new(f4.env.clone(), net, cfg), f4)
}

/// A refresh at an earlier instant than the last rebuilds the static set
/// by one scan and finds a portable that was static mobile again; its
/// flip is queued anew and due where it was.
#[test]
fn a_refresh_back_in_time_finds_statics_mobile_again() {
    let (mut mgr, f4) = statics_manager(SimDuration::from_mins(5));
    let p = PortableId(1);
    mgr.portable_appears(p, f4.c, SimTime::from_mins(1));
    mgr.slot_tick(SimTime::from_mins(7));
    assert_eq!(mgr.statics.list, [p]);
    assert!(mgr.statics.flips.is_empty());
    // The first refresh's scan, then the flip popped at 7 min.
    assert_eq!(mgr.refresh_stats().statics_looked, 2);
    mgr.slot_tick(SimTime::from_mins(2));
    assert!(mgr.statics.list.is_empty(), "static again back in time");
    assert_eq!(mgr.statics.flips.len(), 1);
    assert_eq!(mgr.refresh_stats().statics_looked, 3, "one rescan");
    mgr.slot_tick(SimTime::from_mins(5));
    assert!(mgr.statics.list.is_empty());
    mgr.slot_tick(SimTime::from_mins(6));
    assert_eq!(mgr.statics.list, [p]);
    assert_eq!(mgr.refresh_stats().statics_looked, 4);
    // After time went back, a track can flip before one queued earlier:
    // `q` entered at 10 min is queued for 15, `r` at 3 min for 8.
    let (q, r) = (PortableId(2), PortableId(3));
    mgr.portable_appears(q, f4.d, SimTime::from_mins(10));
    mgr.slot_tick(SimTime::from_mins(2));
    mgr.portable_appears(r, f4.e, SimTime::from_mins(3));
    mgr.slot_tick(SimTime::from_mins(8));
    assert_eq!(mgr.statics.list, [p, r]);
    mgr.slot_tick(SimTime::from_mins(15));
    assert_eq!(mgr.statics.list, [p, q, r]);
}

/// A restored manager's first refresh rebuilds the static set by one
/// scan and holds what the live manager kept; so does every later one.
#[test]
fn a_restored_manager_keeps_the_live_statics() {
    let (mut mgr, f4) = statics_manager(SimDuration::from_mins(5));
    for (k, cell) in [f4.a, f4.b, f4.c, f4.d].into_iter().enumerate() {
        let at = SimTime::from_mins(2 * k as u64);
        mgr.portable_appears(PortableId(k as u32), cell, at);
    }
    mgr.portable_moved(PortableId(0), f4.c, SimTime::from_mins(7));
    let json = mgr.snapshot().to_json().expect("snapshot serializes");
    let snap = ManagerSnapshot::from_json(&json).expect("snapshot parses");
    let mut restored = ResourceManager::restore(snap, Obs::off()).expect("restores");
    let (p0, p1, p2, p3) = (PortableId(0), PortableId(1), PortableId(2), PortableId(3));
    for (mins, want) in [(9, vec![p1, p2]), (12, vec![p0, p1, p2, p3])] {
        let t = SimTime::from_mins(mins);
        mgr.slot_tick(t);
        restored.slot_tick(t);
        assert_eq!(mgr.statics.list, want, "at {mins} min");
        assert_eq!(restored.statics.list, want, "restored, at {mins} min");
    }
    // One scan of four, then the flips of p3 and p0.
    assert_eq!(restored.refresh_stats().statics_looked, 6);
}

/// A `T_th` so large that no portable's flip lies before the end of
/// time queues nothing, and nothing turns static.
#[test]
fn no_flip_is_queued_that_never_falls_due() {
    let forever = SimTime::MAX.since(SimTime::ZERO);
    let (mut mgr, f4) = statics_manager(forever);
    for k in 0..4u32 {
        mgr.portable_appears(PortableId(k), f4.c, SimTime::from_secs(1 + u64::from(k)));
    }
    mgr.portable_moved(PortableId(0), f4.d, SimTime::from_mins(1));
    mgr.slot_tick(SimTime::from_mins(60));
    assert!(mgr.statics.flips.is_empty());
    assert!(mgr.statics.list.is_empty());
}

/// After a steady random walk the queue holds no more entries than there
/// were tracks within the last `T_th` — every older flip was popped —
/// and the kept set is the scan's.
#[test]
fn the_flip_queue_holds_only_the_last_t_th_of_tracks() {
    use arm_mobility::environment::office_wing;
    use arm_mobility::models::random_walk::{self, RandomWalkParams};
    use arm_sim::SimRng;

    let t_th = SimDuration::from_mins(2);
    let env = office_wing(4);
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        t_th,
        ..Default::default()
    };
    let params = RandomWalkParams {
        population: 60,
        mean_dwell: SimDuration::from_secs(90),
        span: SimDuration::from_mins(30),
        ..Default::default()
    };
    let trace = random_walk::generate(&env, &params, &mut SimRng::new(11));
    let mut mgr = ResourceManager::new(env, net, cfg);
    let mut next_slot = SimTime::ZERO + SLOT;
    for ev in trace.events() {
        while ev.time >= next_slot {
            mgr.slot_tick(next_slot);
            next_slot += SLOT;
        }
        match ev.from {
            None => mgr.portable_appears(ev.portable, ev.to, ev.time),
            Some(_) => {
                mgr.portable_moved(ev.portable, ev.to, ev.time);
            }
        }
    }
    let now = trace.events().last().expect("a walk").time;
    let recent = trace
        .events()
        .iter()
        .filter(|ev| ev.time + t_th > now)
        .count();
    let queued = mgr.statics.flips.len();
    assert!(queued > 0, "a steady walk keeps portables mobile");
    assert!(
        queued <= recent,
        "{queued} flips queued, {recent} recent tracks"
    );
    let scan: Vec<PortableId> = mgr
        .portables
        .iter()
        .filter(|(_, t)| t.state.is_static(t_th, now))
        .map(|(p, _)| *p)
        .collect();
    assert!(!scan.is_empty(), "a steady walk has statics");
    assert_eq!(mgr.statics.list, scan);
    // Far fewer looks than a scan per refresh.
    let stats = mgr.refresh_stats();
    assert!(stats.statics_looked * 4 < stats.refreshes * 60, "{stats:?}");
}

/// A connection ends while eqn 2's gate stays shut (δ is out of reach of
/// the capacity it frees), then its portable opens another, whose
/// admission opens the gate. Nothing names the ended id at that round
/// but the network's log of ended connections: the portable's index
/// lists only the new one. The round must drop the ended id from the
/// engine, as the whole-table round does, and leave the same rates.
#[test]
fn a_round_drops_a_connection_that_ended_while_the_gate_was_shut() {
    let f4 = Figure4::build();
    let run = |twin: Twin| {
        let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
        let cfg = ManagerConfig {
            strategy: Strategy::None,
            resolve_excess: true,
            dyn_pool: None,
            t_th: SimDuration::from_secs(0),
            delta: 5000.0,
            ..Default::default()
        };
        let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
        mgr.set_twin(twin);
        let adaptive = QosRequest::bandwidth(100.0, 1600.0)
            .with_delay(10.0)
            .with_jitter(10.0)
            .with_loss(1.0);
        let (a, b, cell) = (PortableId(1), PortableId(2), f4.c);
        let round_ran = |mgr: &mut ResourceManager, ev| mgr.apply(&ev).expect("accepted").round_ran;
        for (portable, t) in [(a, 1), (b, 2)] {
            let (t, qos) = (SimTime::from_secs(t), adaptive);
            round_ran(&mut mgr, ManagerEvent::Appear { t, portable, cell });
            let request = ManagerEvent::Request { t, portable, qos };
            assert!(round_ran(&mut mgr, request), "an admission shrinks");
        }
        let ended = mgr.connection_of(a).expect("a is connected");
        let (t, portable) = (SimTime::from_secs(10), a);
        let hang_up = ManagerEvent::Terminate { t, portable };
        assert!(!round_ran(&mut mgr, hang_up), "the gate stays shut");
        assert!(mgr.maxmin().rate(ended).is_some(), "no round ran yet");
        // A higher floor than the ended one's: the excess falls below
        // the last round's record, and a shrinkage always opens the gate.
        let t = SimTime::from_secs(20);
        let qos = QosRequest::bandwidth(200.0, 1600.0).with_delay(10.0);
        let request = ManagerEvent::Request { t, portable, qos };
        assert!(round_ran(&mut mgr, request));
        assert_eq!(mgr.maxmin().rate(ended), None, "{ended:?} left the engine");
        let rates: Vec<(ConnId, u64)> = mgr
            .net
            .live_connections()
            .map(|c| (c.id, c.b_current.to_bits()))
            .collect();
        let engine: Vec<(ConnId, u64)> = mgr
            .maxmin()
            .rates()
            .map(|(c, x)| (c, x.to_bits()))
            .collect();
        (rates, engine)
    };
    let (rates, engine) = run(Twin::Production);
    assert_eq!(rates.len(), 2);
    assert_eq!((rates, engine), run(Twin::WholeTable));
}

/// A portable that turns static with no write to its connection between
/// two rounds is a candidate of the second: the refresh feeds the
/// statics' flip to the round, which re-pins the connection from its
/// floor to its share of the excess, as the whole-table round does.
#[test]
fn a_round_re_pins_a_portable_that_turned_static_since_the_last() {
    let f4 = Figure4::build();
    let run = |twin: Twin| {
        let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
        let cfg = ManagerConfig {
            strategy: Strategy::None,
            resolve_excess: true,
            dyn_pool: None,
            t_th: SimDuration::from_secs(60),
            delta: 5000.0,
            ..Default::default()
        };
        let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
        mgr.set_twin(twin);
        let adaptive = QosRequest::bandwidth(100.0, 1600.0)
            .with_delay(10.0)
            .with_jitter(10.0)
            .with_loss(1.0);
        let (a, b, cell) = (PortableId(1), PortableId(2), f4.c);
        let connect = |mgr: &mut ResourceManager, portable, secs| {
            let (t, qos) = (SimTime::from_secs(secs), adaptive);
            assert!(mgr
                .apply(&ManagerEvent::Appear { t, portable, cell })
                .is_ok());
            let request = ManagerEvent::Request { t, portable, qos };
            mgr.apply(&request).expect("accepted").round_ran
        };
        assert!(connect(&mut mgr, a, 1), "an admission shrinks");
        let pinned = mgr.connection_of(a).expect("a is connected");
        let rate = |mgr: &ResourceManager| mgr.net.get(pinned).expect("live").b_current;
        assert_eq!(rate(&mgr), 100.0, "mobile: pinned at its floor");
        // `a` turns static at 61 s; `b`'s admission at 70 s writes only
        // `b`'s connection and opens the gate (a shrinkage).
        assert!(connect(&mut mgr, b, 70));
        assert!(mgr.is_static(a, SimTime::from_secs(70)));
        assert!(rate(&mgr) > 100.0, "static: re-pinned to its share");
        let rates: Vec<(ConnId, u64)> = mgr
            .net
            .live_connections()
            .map(|c| (c.id, c.b_current.to_bits()))
            .collect();
        let engine: Vec<(ConnId, u64)> = mgr
            .maxmin()
            .rates()
            .map(|(c, x)| (c, x.to_bits()))
            .collect();
        (rates, engine)
    };
    let (rates, engine) = run(Twin::Production);
    assert_eq!(rates.len(), 2);
    assert_eq!((rates, engine), run(Twin::WholeTable));
}
