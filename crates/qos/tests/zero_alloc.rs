//! Zero-allocation steady-state contracts for the hot control-plane
//! paths, pinned by the counting global allocator: once resident
//! buffers have reached their high-water mark, a churn event on the
//! admission round trip and on the ADVERTISE/UPDATE packet path must
//! perform **no** heap allocation. A stray `collect()` or `clone()` on
//! these paths compiles fine and regresses silently — this test makes
//! it a hard failure. The counter tallies per thread, so the two tests
//! measure side by side.

use arm_alloc_counter::{allocations_during, CountingAlloc};
use arm_net::flowspec::{QosRequest, TrafficSpec};
use arm_net::ids::{CellId, ConnId, LinkId, NodeId, PortableId};
use arm_net::routing::shortest_path;
use arm_net::topology::Topology;
use arm_net::{Connection, Network};
use arm_qos::admission::{
    admit_with, AdmissionRequest, AdmissionScratch, Discipline, MobilityClass, RequestKind,
};
use arm_qos::maxmin::distributed::{DistributedMaxmin, Ev, Variant};
use arm_sim::{Engine, SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Two cells joined by one switch (the admission testbed).
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
    .expect("testbed is connected");
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

/// One steady-state admission churn event: the full Table 2 round trip
/// (forward tests, destination tests, reverse pass, firm reservation)
/// followed by the release that a departure or handoff-away performs.
fn admission_cycle(
    net: &mut Network,
    id: ConnId,
    scratch: &mut AdmissionScratch,
    route: &mut Vec<LinkId>,
) {
    let req = AdmissionRequest {
        conn: id,
        discipline: Discipline::Rcsp,
        mobility: MobilityClass::Mobile,
        kind: RequestKind::New,
    };
    let grant = admit_with(net, req, scratch).expect("feasible in the empty testbed");
    assert!(grant.b_granted >= 64.0);
    route.clear();
    route.extend_from_slice(&net.get(id).expect("installed").route.links);
    net.release_route(id, route);
}

#[test]
fn admission_round_trip_is_allocation_free_in_steady_state() {
    let (mut net, c0, c1) = testbed();
    let qos = QosRequest::bandwidth(64.0, 256.0)
        .with_delay(2.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    let id = install(&mut net, c0, c1, qos);
    let mut scratch = AdmissionScratch::default();
    let mut route = Vec::new();

    // Warm-up: resident buffers and ledger vectors grow to their
    // high-water mark on the first few cycles.
    for _ in 0..4 {
        admission_cycle(&mut net, id, &mut scratch, &mut route);
    }

    let (_, allocs) = allocations_during(|| {
        for _ in 0..32 {
            admission_cycle(&mut net, id, &mut scratch, &mut route);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state admission round trip allocated {allocs} times over 32 cycles"
    );
}

/// One steady-state adaptation churn event: a link's excess changes,
/// the protocol wakes its connections, runs the ADVERTISE/UPDATE
/// sessions to quiescence and republishes the converged rates.
fn adaptation_cycle(engine: &mut Engine<DistributedMaxmin>, excess: f64) {
    let now = engine.now();
    engine.schedule_at(
        now,
        Ev::ChangeExcess {
            link: LinkId(0),
            excess,
        },
    );
    let stop = engine.run();
    assert_eq!(stop, arm_sim::StopCondition::QueueEmpty);
    assert!(engine.model().is_quiescent());
}

#[test]
fn advertise_update_path_is_allocation_free_in_steady_state() {
    let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
    proto.add_link(LinkId(0), 30.0);
    proto.add_link(LinkId(1), 100.0);
    proto.add_conn(ConnId(0), vec![LinkId(0), LinkId(1)], 1000.0);
    proto.add_conn(ConnId(1), vec![LinkId(0)], 1000.0);
    let mut engine = Engine::new(proto).with_event_budget(10_000_000);

    // Warm-up: converge once per excess value so every map key, queue
    // slot and resident buffer exists before measuring.
    for i in 0..6 {
        adaptation_cycle(&mut engine, 30.0 + f64::from(i % 2));
    }

    let (_, allocs) = allocations_during(|| {
        for i in 0..16 {
            adaptation_cycle(&mut engine, 30.0 + f64::from(i % 2));
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state ADVERTISE/UPDATE churn allocated {allocs} times over 16 cycles"
    );

    // The measured cycles did real work: rates track the final excess.
    let r0 = engine.model().rates()[&ConnId(0)];
    let r1 = engine.model().rates()[&ConnId(1)];
    assert!((r0 - 15.5).abs() < 1e-6, "r0={r0}");
    assert!((r1 - 15.5).abs() < 1e-6, "r1={r1}");
}
