//! Zero-allocation contract for the adaptation round's repair path: a
//! round that finds a ledger rate knocked off its frozen target — no
//! input changed, so nothing is re-solved — puts it back on resident
//! buffers alone. Pinned by the counting global allocator.

use arm_alloc_counter::{allocations_during, CountingAlloc};
use arm_net::flowspec::QosRequest;
use arm_net::ids::{ConnId, NodeId, PortableId};
use arm_net::routing::shortest_path;
use arm_net::topology::Topology;
use arm_net::{Connection, Network};
use arm_qos::conflict::{resolve_network, ResolveScratch};
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use arm_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn restoring_a_knocked_off_rate_is_allocation_free() {
    let mut t = Topology::new();
    let sw = t.add_switch("sw");
    let cells = [t.add_cell("c0", 1600.0, 0.0), t.add_cell("c1", 1600.0, 0.0)];
    for c in cells {
        t.add_wired_duplex(sw, t.base_station(c), 10_000.0, 0.0);
    }
    let mut net = Network::new(t);
    let qos = QosRequest::bandwidth(64.0, 1600.0);
    let ids: Vec<ConnId> = [cells[0], cells[0], cells[1]]
        .into_iter()
        .zip(0u32..)
        .map(|(cell, p)| {
            let id = net.next_conn_id();
            let topo = net.topology();
            let route = shortest_path(topo, topo.air_node(cell), NodeId(0)).expect("connected");
            let conn = Connection::new(
                id,
                PortableId(p),
                cell,
                NodeId(0),
                qos,
                route.clone(),
                SimTime::ZERO,
            );
            net.install(conn);
            let no_delay = vec![0.0; route.links.len()];
            net.reserve_route(id, &route.links, qos.b_min, &no_delay, false)
                .expect("floors fit");
            id
        })
        .collect();
    let mut engine = IncrementalMaxmin::new();
    let mut scratch = ResolveScratch::default();
    let is_static = |_: PortableId| true;
    // The first round sees a network new to the engine; the later ones
    // know it, and no connection ends.
    let mut round = |net: &mut Network, engine: &mut IncrementalMaxmin, ended| {
        net.set_conn_rate(ids[0], qos.b_min).expect("floor fits");
        resolve_network(net, &is_static, &ids, ended, engine, &mut scratch)
    };
    // Warm-up: the first round solves, the second grows `changes`.
    round(&mut net, &mut engine, None);
    round(&mut net, &mut engine, Some(&[]));
    let target = net.get(ids[0]).expect("live").b_current;
    assert_eq!(target, 800.0);
    let solves = engine.stats.incremental_solves;

    let (restored, allocs) = allocations_during(|| {
        (0..16)
            .map(|_| round(&mut net, &mut engine, Some(&[])))
            .sum::<usize>()
    });
    assert_eq!(restored, 16, "one rate restored per round");
    assert_eq!(net.get(ids[0]).expect("live").b_current, target);
    assert_eq!(engine.stats.incremental_solves, solves);
    assert_eq!(
        allocs, 0,
        "restoring a knocked-off rate allocated {allocs} times over 16 rounds"
    );
}
