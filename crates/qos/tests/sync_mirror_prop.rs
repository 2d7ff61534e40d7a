//! Mirror property for [`IncrementalMaxmin::sync_network`] — the sync
//! the manager runs before every adaptation round: after syncing against
//! *any* sequence of network states — cells (and therefore links)
//! appearing and disappearing, connections churning, rates moving — the
//! engine's inputs must exactly equal a from-scratch
//! [`MaxminProblem::from_network`] build over the current network, its
//! structural invariants must hold, and its allocation must be
//! bit-identical to a from-scratch component fill.
//!
//! This pins the two staleness fixes structurally: a pruned-link leak or
//! a missed dirty mark shows up as a mirror divergence on some generated
//! sequence, not just on the hand-written regression cases.

use std::collections::BTreeMap;

use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, NodeId, PortableId};
use arm_net::routing::shortest_path;
use arm_net::topology::Topology;
use arm_net::{Connection, Network};
use arm_qos::maxmin::centralized::{components, link_index, solve_component, MaxminProblem};
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use arm_sim::SimTime;
use proptest::prelude::*;

/// One epoch of the network's life: the topology is rebuilt with
/// `cells` cells (modelling wings powering on and off — links vanish
/// and appear between epochs) and the listed connections are admitted.
#[derive(Clone, Debug)]
struct Epoch {
    /// Number of cells in this epoch's topology (1..=4).
    cells: usize,
    /// Connections: (home cell index, b_min, b_max).
    conns: Vec<(usize, f64, f64)>,
}

fn epoch_strategy() -> impl Strategy<Value = Epoch> {
    (1usize..=4).prop_flat_map(|cells| {
        let conns = prop::collection::vec(
            (
                0..cells,
                10.0f64..50.0,
                prop_oneof![Just(2000.0f64), 60.0f64..400.0],
            ),
            0..6,
        );
        (Just(cells), conns).prop_map(|(cells, conns)| Epoch { cells, conns })
    })
}

fn net_with_cells(n: usize) -> Network {
    let mut t = Topology::new();
    let sw = t.add_switch("sw");
    for i in 0..n {
        let c = t.add_cell(format!("c{i}"), 1000.0, 0.0);
        t.add_wired_duplex(sw, t.base_station(c), 100_000.0, 0.0);
    }
    Network::new(t)
}

fn admit_local(net: &mut Network, cell: CellId, portable: u32, qos: QosRequest) -> ConnId {
    let id = net.next_conn_id();
    let route = shortest_path(
        net.topology(),
        net.topology().air_node(cell),
        net.topology().base_station(cell),
    )
    .expect("cell route exists");
    net.install(Connection::new(
        id,
        PortableId(portable),
        cell,
        NodeId(0),
        qos,
        route.clone(),
        SimTime::ZERO,
    ));
    net.reserve_route(id, &route, qos.b_min, &vec![0.0; route.links.len()], false)
        .expect("admission fits");
    id
}

/// From-scratch oracle: problem and allocation, both built with no
/// resident state.
fn fresh_solution(net: &Network) -> (MaxminProblem, BTreeMap<ConnId, f64>) {
    let p = MaxminProblem::from_network(net);
    let index = link_index(&p.conns);
    let mut alloc = BTreeMap::new();
    for comp in components(&p.conns, &index) {
        solve_component(&p.link_excess, &p.conns, &index, &comp, &mut alloc);
    }
    (p, alloc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The resident engine, synced across arbitrary topology and
    /// connection churn, is indistinguishable from a from-scratch build.
    #[test]
    fn synced_engine_mirrors_from_scratch_build(
        epochs in prop::collection::vec(epoch_strategy(), 1..6),
    ) {
        let mut engine = IncrementalMaxmin::new();
        for (gen, ep) in epochs.iter().enumerate() {
            let mut net = net_with_cells(ep.cells);
            for (i, (cell, b_min, b_max)) in ep.conns.iter().enumerate() {
                // Floors sum to well under the 1000 kbps cell capacity
                // (≤ 6 conns × b_min < 50), so admission always fits.
                let qos = QosRequest::bandwidth(*b_min, b_min.max(*b_max));
                admit_local(&mut net, CellId(*cell as u32), (gen * 16 + i) as u32, qos);
            }
            // A new network each epoch: every connection is a candidate.
            let live: Vec<ConnId> = net.live_connections().map(|c| c.id).collect();
            engine.sync_network(&net, &live, &|_| true);
            prop_assert_eq!(engine.check_invariants(), Ok(()), "epoch {}", gen);

            let (fresh, alloc) = fresh_solution(&net);

            // Inputs mirror exactly: capacities (bit-equal f64s), conn
            // demands and routes.
            let synced = engine.as_problem();
            prop_assert_eq!(
                &synced.link_excess, &fresh.link_excess,
                "epoch {}: link_excess diverged from from-scratch build", gen
            );
            prop_assert_eq!(
                synced.conns.keys().collect::<Vec<_>>(),
                fresh.conns.keys().collect::<Vec<_>>(),
                "epoch {}: conn key sets diverged", gen
            );
            for (c, want) in &fresh.conns {
                let got = &synced.conns[c];
                prop_assert_eq!(
                    got.demand.to_bits(), want.demand.to_bits(),
                    "epoch {}: {:?} demand diverged", gen, c
                );
                prop_assert_eq!(
                    &got.links, &want.links,
                    "epoch {}: {:?} route diverged", gen, c
                );
            }

            // Outputs mirror exactly after the (possibly partial) refill.
            engine.resolve();
            let got: BTreeMap<ConnId, f64> = engine.rates().collect();
            prop_assert_eq!(got.len(), alloc.len(), "epoch {}: allocation keys", gen);
            for (c, want) in &alloc {
                prop_assert_eq!(
                    got[c].to_bits(), want.to_bits(),
                    "epoch {}: {:?} allocation not bit-identical", gen, c
                );
            }
            prop_assert!(fresh.verify_maxmin(&got).is_ok(), "epoch {}: not maxmin", gen);
            prop_assert_eq!(engine.check_invariants(), Ok(()), "epoch {}", gen);
        }
    }
}
