//! Unit tests for the Table 2 round trip.

use arm_net::flowspec::{QosRequest, TrafficSpec};
use arm_net::ids::{CellId, ConnId, NodeId, PortableId};
use arm_net::link::ResvClaim;
use arm_net::routing::shortest_path;
use arm_net::topology::Topology;
use arm_net::{Connection, Network};
use arm_sim::SimTime;

use super::*;

/// Two cells joined by one switch; wireless 1600 kbps with 1% error,
/// backbone 10 Mbps error-free.
fn testbed() -> (Network, CellId, CellId) {
    let mut t = Topology::new();
    let sw = t.add_switch("sw");
    let c0 = t.add_cell("c0", 1600.0, 0.01);
    let c1 = t.add_cell("c1", 1600.0, 0.01);
    t.add_wired_duplex(sw, t.base_station(c0), 10_000.0, 0.0);
    t.add_wired_duplex(sw, t.base_station(c1), 10_000.0, 0.0);
    (Network::new(t), c0, c1)
}

fn install(net: &mut Network, cell: CellId, dest: CellId, qos: QosRequest) -> ConnId {
    let id = net.next_conn_id();
    let route = shortest_path(
        net.topology(),
        net.topology().air_node(cell),
        net.topology().air_node(dest),
    )
    .unwrap();
    net.install(Connection::new(
        id,
        PortableId(0),
        cell,
        NodeId(0),
        qos,
        route,
        SimTime::ZERO,
    ));
    id
}

fn req(conn: ConnId) -> AdmissionRequest {
    AdmissionRequest {
        conn,
        discipline: Discipline::Wfq,
        mobility: MobilityClass::Mobile,
        kind: RequestKind::New,
    }
}

#[test]
fn accepts_a_feasible_connection_and_reserves_floors() {
    let (mut net, c0, c1) = testbed();
    let qos = QosRequest::bandwidth(64.0, 256.0)
        .with_delay(2.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let out = admit(&mut net, req(id)).expect("feasible");
    assert_eq!(out.b_granted, 64.0, "mobile pinned at floor");
    let wl = net.topology().wireless_link(c0);
    assert_eq!(net.link(wl).sum_b_min(), 64.0);
    assert!(net.check_invariants().is_ok());
    // 4 hops; loss = 1 − 0.99² over the two wireless hops.
    assert!((out.loss - (1.0 - 0.99f64.powi(2))).abs() < 1e-12);
    assert_eq!(out.hop_delay_budgets.len(), 4);
}

#[test]
fn static_portable_granted_excess_share() {
    let (mut net, c0, c1) = testbed();
    let qos = QosRequest::bandwidth(64.0, 600.0)
        .with_delay(2.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let out = admit(
        &mut net,
        AdmissionRequest {
            mobility: MobilityClass::Static,
            ..req(id)
        },
    )
    .expect("feasible");
    // Empty network: advertised rate = full excess, so the stamped rate
    // is the demand (b_max − b_min) and the grant reaches b_max.
    assert!(
        (out.b_stamp - 536.0).abs() < 1e-6,
        "b_stamp={}",
        out.b_stamp
    );
    assert!((out.b_granted - 600.0).abs() < 1e-6);
    assert!((net.get(id).unwrap().b_current - 600.0).abs() < 1e-6);
    assert!(net.check_invariants().is_ok());
}

#[test]
fn bandwidth_rejection_names_the_bottleneck_link() {
    let (mut net, c0, c1) = testbed();
    // Fill cell 1's medium.
    let filler = install(
        &mut net,
        c1,
        c0,
        QosRequest::fixed(1550.0).with_delay(10.0).with_jitter(50.0),
    );
    let _ = admit(&mut net, req(filler)).expect("filler fits");
    let id = install(
        &mut net,
        c0,
        c1,
        QosRequest::fixed(100.0).with_delay(10.0).with_jitter(50.0),
    );
    let rej = admit(&mut net, req(id)).unwrap_err();
    assert_eq!(rej.test, TestKind::Bandwidth);
    // The forward pass hits cell 0's medium first — still feasible — and
    // fails at one of the two saturated links (wireless c1 or the shared
    // backbone direction filler also crosses).
    assert!(rej.link.is_some());
    // Nothing was reserved for the rejected connection.
    let wl0 = net.topology().wireless_link(c0);
    assert!(net.link(wl0).alloc(id).is_none());
}

#[test]
fn jitter_rejection_forward_pass() {
    let (mut net, c0, c1) = testbed();
    // (σ + l·L_max)/b_min with σ=8, L_max=1, b_min=64: hop 4 gives
    // 12/64 = 0.1875 s. A 0.15 s jitter bound fails at hop 3 or 4.
    let qos = QosRequest::bandwidth(64.0, 64.0)
        .with_delay(2.0)
        .with_jitter(0.15)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let rej = admit(&mut net, req(id)).unwrap_err();
    assert_eq!(rej.test, TestKind::Jitter);
    assert!(rej.link.is_some(), "fails during the forward pass");
}

#[test]
fn delay_rejection_end_to_end() {
    let (mut net, c0, c1) = testbed();
    // d_min = (σ + n·L_max)/b_min + Σ L_max/C_i
    //       = (8+4)/64 + 2/1600 + 2/10000 ≈ 0.1890 s.
    let qos = QosRequest::bandwidth(64.0, 64.0)
        .with_delay(0.15)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let rej = admit(&mut net, req(id)).unwrap_err();
    assert_eq!(rej.test, TestKind::Delay);
    assert_eq!(rej.link, None, "destination test");
}

#[test]
fn loss_rejection_end_to_end() {
    let (mut net, c0, c1) = testbed();
    // Two 1% wireless hops → ~1.99% loss; a 1% bound fails.
    let qos = QosRequest::bandwidth(64.0, 64.0)
        .with_delay(2.0)
        .with_jitter(1.0)
        .with_loss(0.01)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let rej = admit(&mut net, req(id)).unwrap_err();
    assert_eq!(rej.test, TestKind::PacketLoss);
    assert_eq!(rej.link, None);
}

#[test]
fn relaxed_budgets_sum_to_the_delay_bound() {
    let (mut net, c0, c1) = testbed();
    let qos = QosRequest::bandwidth(64.0, 256.0)
        .with_delay(1.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let out = admit(&mut net, req(id)).unwrap();
    let total: f64 = out.hop_delay_budgets.iter().sum();
    assert!(
        (total - qos.delay_bound).abs() < 1e-9,
        "uniform relaxation must exhaust the bound: {total}"
    );
    // Every relaxed budget exceeds its worst-case component.
    for (b, wl) in out
        .hop_delay_budgets
        .iter()
        .zip(&net.get(id).unwrap().route.links)
    {
        let c = net.link(*wl).capacity();
        assert!(*b >= 1.0 / 64.0 + 1.0 / c);
    }
}

#[test]
fn handoff_consumes_its_own_claim() {
    let (mut net, c0, c1) = testbed();
    // Cell 1 nearly full (a local flow pinning only its own medium), but
    // an advance claim was made for this conn.
    let filler = {
        let id = net.next_conn_id();
        let route = arm_net::Route {
            nodes: vec![net.topology().air_node(c1), net.topology().base_station(c1)],
            links: vec![net.topology().wireless_link(c1)],
        };
        net.install(Connection::new(
            id,
            PortableId(9),
            c1,
            NodeId(0),
            QosRequest::fixed(1400.0).with_delay(10.0).with_jitter(50.0),
            route,
            SimTime::ZERO,
        ));
        id
    };
    let _ = admit(&mut net, req(filler)).unwrap();
    let id = install(
        &mut net,
        c0,
        c1,
        QosRequest::fixed(150.0).with_delay(10.0).with_jitter(50.0),
    );
    let wl1 = net.topology().wireless_link(c1);
    net.link_mut(wl1).set_claim(ResvClaim::Conn(id), 100.0);
    // As a *new* connection it doesn't fit (1400 + 100 claim + 150 > 1600)...
    let rej = admit(&mut net, req(id)).unwrap_err();
    assert_eq!(rej.test, TestKind::Bandwidth);
    // ...but as a handoff it may consume its claim: 1400 + 150 ≤ 1600.
    let out = admit(
        &mut net,
        AdmissionRequest {
            kind: RequestKind::Handoff,
            ..req(id)
        },
    )
    .expect("handoff fits via its claim");
    assert_eq!(out.b_granted, 150.0);
    assert_eq!(
        net.link(wl1).claim(ResvClaim::Conn(id)),
        0.0,
        "claim consumed"
    );
    assert!(net.check_invariants().is_ok());
}

#[test]
fn rcsp_reserves_rate_dependent_buffers() {
    let (mut net, c0, c1) = testbed();
    let qos = QosRequest::bandwidth(64.0, 64.0)
        .with_delay(2.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let out = admit(
        &mut net,
        AdmissionRequest {
            discipline: Discipline::Rcsp,
            ..req(id)
        },
    )
    .unwrap();
    // First hop: σ + L_max + b·d'_1; later hops σ + b(d'_{l−1} + d'_l).
    let b = out.b_granted;
    let d = &out.hop_delay_budgets;
    assert!((out.hop_buffers[0] - (8.0 + 1.0 + b * d[0])).abs() < 1e-9);
    for l in 1..4 {
        assert!((out.hop_buffers[l] - (8.0 + b * (d[l - 1] + d[l]))).abs() < 1e-9);
    }
}

#[test]
fn wfq_buffers_grow_with_hop_index() {
    let (mut net, c0, c1) = testbed();
    let qos = QosRequest::bandwidth(64.0, 64.0)
        .with_delay(2.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let out = admit(&mut net, req(id)).unwrap();
    assert_eq!(out.hop_buffers, vec![9.0, 10.0, 11.0, 12.0]);
}

#[test]
fn buffer_pool_rejection() {
    let (mut net, c0, c1) = testbed();
    let wl0 = net.topology().wireless_link(c0);
    *net.link_mut(wl0) = arm_net::LinkState::new(1600.0).with_buffer_capacity(5.0);
    let qos = QosRequest::bandwidth(64.0, 64.0)
        .with_delay(2.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0)); // needs 9 kb at hop 1
    let id = install(&mut net, c0, c1, qos);
    let rej = admit(&mut net, req(id)).unwrap_err();
    assert_eq!(rej.test, TestKind::Buffer);
    assert_eq!(rej.link, Some(wl0));
    net.mark_blocked(id);
    assert!(net.check_invariants().is_ok());
}

#[test]
fn trivial_route_admits_vacuously() {
    let (mut net, c0, _) = testbed();
    let id = install(&mut net, c0, c0, QosRequest::fixed(64.0));
    let out = admit(&mut net, req(id)).unwrap();
    assert_eq!(out.b_granted, 64.0);
    assert!(out.hop_delay_budgets.is_empty());
}

#[test]
fn second_static_admission_shares_fairly() {
    let (mut net, c0, c1) = testbed();
    let mk = || {
        QosRequest::bandwidth(100.0, 2000.0)
            .with_delay(2.0)
            .with_jitter(2.0)
            .with_loss(0.05)
            .with_traffic(TrafficSpec::new(8.0, 100.0))
    };
    let a = install(&mut net, c0, c1, mk());
    let sreq = |conn| AdmissionRequest {
        mobility: MobilityClass::Static,
        ..req(conn)
    };
    let out_a = admit(&mut net, sreq(a)).unwrap();
    // a takes the whole 1600 kbps medium minus floors... capped by b_max=2000,
    // so it gets the wireless capacity 1600.
    assert!((out_a.b_granted - 1600.0).abs() < 1e-6);
    let b = install(&mut net, c0, c1, mk());
    let out_b = admit(&mut net, sreq(b)).unwrap();
    // The newcomer's stamped rate sees μ of the wireless link with a's
    // excess recorded: advertised = (1400 − ...) — it gets a positive
    // share and the conflict resolver evens things out afterwards.
    assert!(out_b.b_granted >= 100.0);
    crate::conflict::reference::resolve_network(&mut net);
    let ra = net.get(a).unwrap().b_current;
    let rb = net.get(b).unwrap().b_current;
    assert!((ra - 800.0).abs() < 1e-6, "ra={ra}");
    assert!((rb - 800.0).abs() < 1e-6, "rb={rb}");
}

/// Every ledger's bits, link by link — its four running sums, every
/// allocation and every claim — then every live connection's rate: what
/// two admissions must leave alike. (Not the revision: a clone starts a
/// lineage of its own.)
fn ledger_bits(net: &Network) -> Vec<String> {
    let mut out = Vec::new();
    for (lid, ls) in net.links() {
        out.push(format!("{lid:?} {:x?}", ls.sum_bits()));
        for (c, a) in ls.allocs() {
            let bits = [a.b_min, a.b_alloc, a.buffer].map(f64::to_bits);
            out.push(format!("{lid:?} {c:?} {bits:x?}"));
        }
        for (k, x) in ls.claims() {
            out.push(format!("{lid:?} {k:?} {:x}", x.to_bits()));
        }
    }
    for c in net.live_connections() {
        out.push(format!("{:?} {:x}", c.id, c.b_current.to_bits()));
    }
    out
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(512))]

    /// On a random load — up to eight earlier admissions, static and
    /// mobile, one wireless medium's buffer pool perhaps cut short — a
    /// request of every mobility, kind and discipline, with bounds loose
    /// and tight enough to fail every Table 2 row, and perhaps an
    /// advance claim of its own: the grant that collects the stamp only
    /// where it reads it decides, grants and writes every ledger bit for
    /// bit as the oracle that stamps every request, and the allocating
    /// [`admit`] reports the oracle's stamp.
    #[test]
    fn the_grant_matches_the_oracle_that_stamps_every_request(
        load in proptest::collection::vec(
            (0usize..3, 0usize..3, 16.0f64..400.0, 0.0f64..1200.0, proptest::prelude::any::<bool>()),
            0..9,
        ),
        (short_pool, pool, claim) in (0usize..4, 5.0f64..60.0, 0.0f64..300.0),
        (src, dst, b_min, range) in (0usize..3, 0usize..3, 16.0f64..400.0, 0.0f64..1200.0),
        (delay, jitter, loss, sigma) in (0.05f64..3.0, 0.05f64..2.0, 0.0f64..0.05, 0.0f64..32.0),
        (stat, handoff, rcsp) in (
            proptest::prelude::any::<bool>(),
            proptest::prelude::any::<bool>(),
            proptest::prelude::any::<bool>(),
        ),
    ) {
        let mut t = Topology::new();
        let sw = t.add_switch("sw");
        let cells = [0.0, 0.01, 0.02].map(|err| t.add_cell("c", 1600.0, err));
        for c in cells {
            t.add_wired_duplex(sw, t.base_station(c), 10_000.0, 0.0);
        }
        let mut net = Network::new(t);
        if let Some(c) = cells.get(short_pool) {
            let wl = net.topology().wireless_link(*c);
            *net.link_mut(wl) = arm_net::LinkState::new(1600.0).with_buffer_capacity(pool);
        }
        let mobility = |stat| if stat { MobilityClass::Static } else { MobilityClass::Mobile };
        for (s, d, b_min, range, stat) in load {
            let id = install(&mut net, cells[s], cells[d], QosRequest::bandwidth(b_min, b_min + range));
            let req = AdmissionRequest { mobility: mobility(stat), ..req(id) };
            if admit(&mut net, req).is_err() {
                net.mark_blocked(id);
            }
        }
        let qos = QosRequest::bandwidth(b_min, b_min + range)
            .with_delay(delay)
            .with_jitter(jitter)
            .with_loss(loss)
            .with_traffic(TrafficSpec::new(sigma, b_min));
        let id = install(&mut net, cells[src], cells[dst], qos);
        for lid in net.get(id).unwrap().route.links.clone() {
            net.link_mut(lid).set_claim(ResvClaim::Conn(id), claim);
        }
        let req = AdmissionRequest {
            conn: id,
            discipline: if rcsp { Discipline::Rcsp } else { Discipline::Wfq },
            mobility: mobility(stat),
            kind: if handoff { RequestKind::Handoff } else { RequestKind::New },
        };
        let (mut fast, mut slow, mut whole) = (net.clone(), net.clone(), net);
        let (mut fast_scratch, mut slow_scratch) = (AdmissionScratch::default(), AdmissionScratch::default());
        let got = admit_with(&mut fast, req, &mut fast_scratch);
        let want = reference::admit_with(&mut slow, req, &mut slow_scratch);
        let outcome = admit(&mut whole, req);
        proptest::prop_assert_eq!(ledger_bits(&fast), ledger_bits(&slow));
        proptest::prop_assert_eq!(ledger_bits(&whole), ledger_bits(&slow));
        match (got, want, outcome) {
            (Ok(g), Ok(w), Ok(out)) => {
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(g.b_granted.to_bits(), w.b_granted.to_bits());
                proptest::prop_assert_eq!(g.d_min.to_bits(), w.d_min.to_bits());
                proptest::prop_assert_eq!(g.loss.to_bits(), w.loss.to_bits());
                let stamped = reads_stamp(req).then_some(w.b_stamp.to_bits());
                proptest::prop_assert_eq!(g.b_stamp.map(f64::to_bits), stamped);
                proptest::prop_assert_eq!(bits(&fast_scratch.budgets), bits(&slow_scratch.budgets));
                proptest::prop_assert_eq!(bits(&fast_scratch.rev_buffers), bits(&slow_scratch.rev_buffers));
                proptest::prop_assert_eq!(out.b_stamp.to_bits(), w.b_stamp.to_bits());
                proptest::prop_assert_eq!(out.b_granted.to_bits(), w.b_granted.to_bits());
            }
            (Err(g), Err(w), Err(out)) => {
                proptest::prop_assert_eq!(g, w);
                proptest::prop_assert_eq!(out, w);
            }
            (g, w, out) => panic!("{g:?} vs the oracle's {w:?} (admit: {out:?})"),
        }
    }
}
