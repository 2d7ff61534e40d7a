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
//!
//! A second property holds the sync that reads only what the network
//! logged — the connections of portables written since the last sync,
//! or whose `include` verdict flipped, and the connections ended since —
//! to the whole sync, which walks every link, every live connection and
//! every connection the engine holds: on one network under random churn
//! the two engines' inputs and allocations stay bit-identical.

use std::collections::{BTreeMap, BTreeSet};

use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, NodeId, PortableId};
use arm_net::link::ResvClaim;
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
    net.reserve_route(
        id,
        &route.links,
        qos.b_min,
        &vec![0.0; route.links.len()],
        false,
    )
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

/// One step of the churn the logged sync is held to the whole sync on.
#[derive(Clone, Debug)]
enum Churn {
    /// Portable `p` opens a connection in cell `cell`.
    Admit {
        p: u32,
        cell: usize,
        b_min: f64,
        b_max: f64,
    },
    /// The `k`-th live connection (mod their count) ends.
    End { k: usize },
    /// The `k`-th live connection hands off to cell `cell`: a new route
    /// through its record.
    Move { k: usize, cell: usize },
    /// The `k`-th live connection's `b_max` is re-negotiated.
    Widen { k: usize, b_max: f64 },
    /// The `k`-th live connection's ledger rate moves to a fraction of
    /// its range: a logged write that changes no engine input.
    Rerate { k: usize, frac: f64 },
    /// A channel claim on cell `cell`'s wireless link: its excess moves.
    Fade { cell: usize, amount: f64 },
    /// Portable `p`'s `include` verdict flips.
    Flip { p: u32 },
    /// Both engines sync and resolve; their states are compared.
    Sync,
}

const CELLS: usize = 3;
const PORTABLES: u32 = 5;

fn churn_strategy() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (0..PORTABLES, 0..CELLS, 10.0f64..60.0, 60.0f64..900.0).prop_map(
            |(p, cell, b_min, b_max)| Churn::Admit {
                p,
                cell,
                b_min,
                b_max
            }
        ),
        any::<usize>().prop_map(|k| Churn::End { k }),
        (any::<usize>(), 0..CELLS).prop_map(|(k, cell)| Churn::Move { k, cell }),
        (any::<usize>(), 60.0f64..900.0).prop_map(|(k, b_max)| Churn::Widen { k, b_max }),
        (any::<usize>(), 0.0f64..=1.0).prop_map(|(k, frac)| Churn::Rerate { k, frac }),
        (0..CELLS, prop_oneof![Just(0.0f64), 0.0f64..400.0])
            .prop_map(|(cell, amount)| Churn::Fade { cell, amount }),
        (0..PORTABLES).prop_map(|p| Churn::Flip { p }),
        Just(Churn::Sync),
        Just(Churn::Sync),
    ]
}

/// The route from cell `cell`'s air node to its base station.
fn local_route(net: &Network, cell: usize) -> arm_net::routing::Route {
    let topo = net.topology();
    let cell = CellId(cell as u32);
    shortest_path(topo, topo.air_node(cell), topo.base_station(cell)).expect("cell route exists")
}

/// The `k`-th live connection, mod their count.
fn pick(net: &Network, k: usize) -> Option<ConnId> {
    let n = net.live_connections().count();
    (n > 0).then(|| net.live_connections().nth(k % n).map(|c| c.id))?
}

/// Apply one step of churn to `net` (not [`Churn::Sync`]). A step that
/// cannot fit leaves the network as it was.
fn churn(net: &mut Network, statics: &mut BTreeSet<PortableId>, step: &Churn) {
    match *step {
        Churn::Admit {
            p,
            cell,
            b_min,
            b_max,
        } => {
            let id = net.next_conn_id();
            let route = local_route(net, cell);
            let qos = QosRequest::bandwidth(b_min, b_max);
            let cell = CellId(cell as u32);
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
            let buffers = vec![0.0; route.links.len()];
            if net
                .reserve_route(id, &route.links, b_min, &buffers, false)
                .is_err()
            {
                net.mark_blocked(id);
            }
        }
        Churn::End { k } => {
            if let Some(id) = pick(net, k) {
                net.finish(id);
            }
        }
        Churn::Move { k, cell } => {
            let Some(id) = pick(net, k) else { return };
            let c = net.get(id).expect("live").clone();
            let route = local_route(net, cell);
            net.release_route(id, &c.route.links);
            let buffers = vec![0.0; route.links.len()];
            if net
                .reserve_route(id, &route.links, c.qos.b_min, &buffers, true)
                .is_ok()
            {
                let rec = net.get_mut(id).expect("live");
                (rec.route, rec.cell, rec.b_current) = (route, CellId(cell as u32), c.qos.b_min);
            } else {
                let buffers = vec![0.0; c.route.links.len()];
                net.reserve_route(id, &c.route.links, c.qos.b_min, &buffers, true)
                    .expect("its old floor fits");
                net.set_conn_rate(id, c.qos.b_min).expect("the floor fits");
            }
        }
        Churn::Widen { k, b_max } => {
            if let Some(id) = pick(net, k) {
                let rec = net.get_mut(id).expect("live");
                rec.qos.b_max = b_max.max(rec.b_current);
            }
        }
        Churn::Rerate { k, frac } => {
            if let Some(id) = pick(net, k) {
                let q = net.get(id).expect("live").qos;
                let _ = net.set_conn_rate(id, q.b_min + frac * (q.b_max - q.b_min));
            }
        }
        Churn::Fade { cell, amount } => {
            let wl = net.topology().wireless_link(CellId(cell as u32));
            net.link_mut(wl).set_claim(ResvClaim::Channel, amount);
        }
        Churn::Flip { p } => {
            let p = PortableId(p);
            if !statics.remove(&p) {
                statics.insert(p);
            }
        }
        Churn::Sync => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sync fed the network's logs and the statics diff, against the
    /// whole sync on the same network: the same inputs and the same
    /// allocation, bit for bit, at every sync.
    #[test]
    fn the_logged_sync_matches_the_whole_sync(
        steps in prop::collection::vec(churn_strategy(), 1..60),
    ) {
        let mut net = net_with_cells(CELLS);
        let (mut logged, mut whole) = (IncrementalMaxmin::new(), IncrementalMaxmin::new());
        let mut statics: BTreeSet<PortableId> = (0..PORTABLES).map(PortableId).collect();
        let mut seen = statics.clone();
        let (mut touched, mut ended, mut conns) = (Vec::new(), Vec::new(), Vec::new());
        for (k, step) in steps.iter().chain([&Churn::Sync]).enumerate() {
            churn(&mut net, &mut statics, step);
            if !matches!(step, Churn::Sync) {
                continue;
            }
            let all = net.read_changed(0, &mut touched);
            net.read_ended(&mut ended);
            touched.extend(statics.symmetric_difference(&seen));
            touched.sort_unstable();
            touched.dedup();
            seen.clone_from(&statics);
            conns.clear();
            for p in &touched {
                conns.extend_from_slice(net.conn_ids_of_portable(*p));
            }
            conns.sort_unstable();
            let include = |c: &Connection| statics.contains(&c.portable);
            let every: Vec<ConnId> = net.live_connections().map(|c| c.id).collect();
            if all {
                logged.sync_network(&net, &every, None, &include);
            } else {
                logged.sync_network(&net, &conns, Some(&ended), &include);
            }
            whole.sync_network(&net, &every, None, &include);
            logged.resolve();
            whole.resolve();
            prop_assert_eq!(logged.check_invariants(), Ok(()), "step {}", k);
            let (ours, theirs) = (logged.as_problem(), whole.as_problem());
            prop_assert_eq!(
                ours.link_excess.iter().map(|(l, x)| (*l, x.to_bits())).collect::<Vec<_>>(),
                theirs.link_excess.iter().map(|(l, x)| (*l, x.to_bits())).collect::<Vec<_>>(),
                "step {}: link excess", k
            );
            let demands = |p: &MaxminProblem| -> Vec<_> {
                p.conns.iter().map(|(c, d)| (*c, d.demand.to_bits(), d.links.clone())).collect()
            };
            prop_assert_eq!(demands(&ours), demands(&theirs), "step {}: connections", k);
            let rates = |e: &IncrementalMaxmin| -> Vec<(ConnId, u64)> {
                e.rates().map(|(c, x)| (c, x.to_bits())).collect()
            };
            prop_assert_eq!(rates(&logged), rates(&whole), "step {}: allocation", k);
        }
    }

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
            engine.sync_network(&net, &live, None, &|_| true);
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
