//! Resource-conflict resolution (§5.2).
//!
//! Conflicts arise in two situations: (a) excess resources appear and
//! must be distributed among competing connections, and (b) a new
//! connection can be admitted within everyone's pre-negotiated lower
//! bounds but the *currently free* excess is insufficient. Both resolve
//! to the same operation: recompute the maxmin-fair division of each
//! link's excess and move allocations to it — never below any
//! connection's `b_min`, never above its `b_max`.
//!
//! This module is the *synchronous* resolution path used by the
//! large-scale experiments (one call per admission/handoff/departure
//! epoch); the message-level path is
//! [`crate::maxmin::distributed::DistributedMaxmin`].
//!
//! [`resolve_network`] is the one resolver, run against the manager's
//! resident [`IncrementalMaxmin`] engine on the caller's thread. The
//! from-scratch solvers in the test-only `reference` module are what it
//! is compared against.

use arm_net::ids::ConnId;
use arm_net::{Network, PortableId};
use arm_sim::Audited;

use crate::maxmin::centralized::apply_allocation;
use crate::maxmin::incremental::IncrementalMaxmin;

/// Resident buffers for [`resolve_network`], so a steady-state
/// adaptation round allocates nothing: the caller keeps one of these
/// alive across rounds and the buffers' capacity is reused.
#[derive(Clone, Debug, Default)]
pub struct ResolveScratch {
    /// `(conn, target rate)` pairs pending application, decreases first.
    changes: Vec<(ConnId, f64)>,
}

/// Pin each mobile portable's connection among `conns` at its floor
/// (§3.4.2 — "the QoS for its connections are kept at the
/// pre-negotiated minimum level"), in the order given, so only static
/// portables' connections compete for the excess. Returns the number of
/// connections moved.
fn pin_mobiles(
    net: &mut Network,
    is_static: &dyn Fn(PortableId) -> bool,
    conns: &[ConnId],
) -> usize {
    let mut pinned = 0;
    for id in conns {
        let Some(c) = net.get(*id) else {
            continue;
        };
        if !is_static(c.portable) && c.b_current > c.qos.b_min + 1e-9 {
            let floor = c.qos.b_min;
            net.set_conn_rate(*id, floor)
                .invariant("decreasing to floor always fits");
            pinned += 1;
        }
    }
    pinned
}

/// Re-divide the excess maxmin-fairly among static portables'
/// connections and move the ledgers to it (§5.2), mobiles pinned at
/// their floors. The round reconciles the engine with the network it is
/// handed: the engine is diff-synced against the ledgers (only genuine
/// input changes dirty anything), re-fills the dirty components, and
/// then each connection whose target or ledger rate may have moved is
/// compared with its ledger rate and moved onto its target: those the
/// re-fill reached, and the candidates the engine holds. A frozen rate
/// stays valid while its component's inputs are unchanged, but the
/// ledger can leave it with no input change at all (a squeeze and an
/// outage seal that both come and go while eqn 2's gate is shut); such
/// a rate write is logged, so the connection is a candidate, and the
/// comparison needs no re-solve to repair it. The resulting rates are
/// bit-identical to a from-scratch
/// [`MaxminProblem`](crate::maxmin::centralized::MaxminProblem) solve
/// because both run the same per-component water-filling on the same
/// inputs (see the `arm_qos::maxmin::incremental` module docs) and the
/// same `apply_allocation`, which meets the moves in the same order.
///
/// `conns` (ascending) are the candidates the pin and the sync walk:
/// every live connection whose record was written, or whose portable's
/// `is_static` verdict flipped, since the previous round on this
/// engine. `ended` (ascending) are the connections the network ended
/// since that round. Every other connection is where that round left
/// it — a mobile one at its floor, a static one's inputs in the engine
/// and its ledger rate on its target — so walking it would change
/// nothing. With `ended` `None` the network is new to the engine:
/// `conns` must be every live connection, and the sync and the
/// comparison walk every link and every connection the engine holds
/// ([`IncrementalMaxmin::sync_network`]).
///
/// Returns the number of rate moves: mobiles pinned plus connections
/// moved onto their targets.
pub fn resolve_network(
    net: &mut Network,
    is_static: &dyn Fn(PortableId) -> bool,
    conns: &[ConnId],
    ended: Option<&[ConnId]>,
    engine: &mut IncrementalMaxmin,
    scratch: &mut ResolveScratch,
) -> usize {
    // Pin mobile connections at their floors first (frees excess).
    let pinned = pin_mobiles(net, is_static, conns);
    engine.sync_network(net, conns, ended, &|c| is_static(c.portable));
    engine.resolve();
    let changes = &mut scratch.changes;
    if ended.is_some() {
        let compared = engine.touched_rates().len() as u64;
        engine.stats.conns_compared += compared;
        pinned + apply_allocation(net, engine.touched_rates(), changes)
    } else {
        engine.stats.conns_compared += engine.conn_count() as u64;
        pinned + apply_allocation(net, engine.rates(), changes)
    }
}

/// From-scratch resolvers: rebuild the whole `MaxminProblem` from the
/// network and solve it. The reference [`resolve_network`] is tested
/// against, compiled for tests only so nothing else can call it.
#[cfg(test)]
pub(crate) mod reference {
    use arm_net::ids::ConnId;
    use arm_net::{Network, PortableId};

    use super::pin_mobiles;
    use crate::maxmin::centralized::{apply_allocation, MaxminProblem};

    /// Recompute the maxmin division of excess bandwidth over the whole
    /// network and apply it to every live connection. Returns the number
    /// of connections whose rate changed.
    pub(crate) fn resolve_network(net: &mut Network) -> usize {
        let problem = MaxminProblem::from_network(net);
        let alloc = problem.solve();
        let before: Vec<(ConnId, f64)> = net
            .live_connections()
            .map(|c| (c.id, c.b_current))
            .collect();
        apply_allocation(net, alloc, &mut Vec::new());
        before
            .into_iter()
            .filter(|(id, old)| {
                net.get(*id)
                    .is_some_and(|c| (c.b_current - old).abs() > 1e-9)
            })
            .count()
    }

    /// Like [`resolve_network`], but honouring the paper's static/mobile
    /// policy: connections of *mobile* portables are pinned at `b_min`,
    /// so only static portables' connections compete for the excess.
    /// Returns the number of rate moves: pins plus re-rated statics.
    pub(crate) fn resolve_network_with_policy(
        net: &mut Network,
        is_static: &dyn Fn(PortableId) -> bool,
    ) -> usize {
        // Pin every mobile connection at its floor first (frees excess).
        let live: Vec<ConnId> = net.live_connections().map(|c| c.id).collect();
        let pinned = pin_mobiles(net, is_static, &live);
        // Solve maxmin over static connections only.
        let mut problem = MaxminProblem::from_network(net);
        problem
            .conns
            .retain(|id, _| net.get(*id).is_some_and(|c| is_static(c.portable)));
        let alloc = problem.solve();
        let changed = alloc
            .iter()
            .filter(|(id, x)| {
                net.get(**id)
                    .is_some_and(|c| (c.qos.b_min + **x - c.b_current).abs() > 1e-9)
            })
            .count();
        apply_allocation(net, alloc, &mut Vec::new());
        pinned + changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_net::flowspec::QosRequest;
    use arm_net::ids::{CellId, NodeId};
    use arm_net::routing::shortest_path;
    use arm_net::topology::Topology;
    use arm_net::{Connection, PortableId};
    use arm_sim::SimTime;

    fn one_cell_net() -> (Network, CellId) {
        let mut t = Topology::new();
        let sw = t.add_switch("sw");
        let c = t.add_cell("c", 1000.0, 0.0);
        t.add_wired_duplex(sw, t.base_station(c), 100_000.0, 0.0);
        (Network::new(t), c)
    }

    fn admit_local(net: &mut Network, cell: CellId, portable: u32, qos: QosRequest) -> ConnId {
        let id = net.next_conn_id();
        let route = shortest_path(
            net.topology(),
            net.topology().air_node(cell),
            net.topology().base_station(cell),
        )
        .unwrap();
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
        .unwrap();
        id
    }

    #[test]
    fn excess_distributed_evenly() {
        let (mut net, cell) = one_cell_net();
        let a = admit_local(&mut net, cell, 0, QosRequest::bandwidth(100.0, 2000.0));
        let b = admit_local(&mut net, cell, 1, QosRequest::bandwidth(100.0, 2000.0));
        reference::resolve_network(&mut net);
        // 1000 capacity, floors 200, excess 800 → 400 each → 500 each.
        assert!((net.get(a).unwrap().b_current - 500.0).abs() < 1e-6);
        assert!((net.get(b).unwrap().b_current - 500.0).abs() < 1e-6);
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn b_max_caps_the_share() {
        let (mut net, cell) = one_cell_net();
        let a = admit_local(&mut net, cell, 0, QosRequest::bandwidth(100.0, 250.0));
        let b = admit_local(&mut net, cell, 1, QosRequest::bandwidth(100.0, 2000.0));
        reference::resolve_network(&mut net);
        assert!((net.get(a).unwrap().b_current - 250.0).abs() < 1e-6);
        // b takes the rest: 1000 − 250 = 750.
        assert!((net.get(b).unwrap().b_current - 750.0).abs() < 1e-6);
    }

    #[test]
    fn new_admission_squeezes_then_resolves() {
        let (mut net, cell) = one_cell_net();
        let a = admit_local(&mut net, cell, 0, QosRequest::bandwidth(100.0, 2000.0));
        reference::resolve_network(&mut net);
        assert!((net.get(a).unwrap().b_current - 1000.0).abs() < 1e-6);
        // Conflict case (b): floors fit but free excess is 0.
        let b = admit_local(&mut net, cell, 1, QosRequest::bandwidth(300.0, 2000.0));
        reference::resolve_network(&mut net);
        let ra = net.get(a).unwrap().b_current;
        let rb = net.get(b).unwrap().b_current;
        // Floors 100 + 300, excess 600. Maxmin raises both by 300:
        // a = 400, b = 600.
        assert!((ra - 400.0).abs() < 1e-6, "ra={ra}");
        assert!((rb - 600.0).abs() < 1e-6, "rb={rb}");
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn mobile_portables_pinned_to_floor() {
        let (mut net, cell) = one_cell_net();
        let stat = admit_local(&mut net, cell, 0, QosRequest::bandwidth(100.0, 2000.0));
        let mob = admit_local(&mut net, cell, 1, QosRequest::bandwidth(100.0, 2000.0));
        let is_static = |p: PortableId| p == PortableId(0);
        reference::resolve_network_with_policy(&mut net, &is_static);
        assert!((net.get(mob).unwrap().b_current - 100.0).abs() < 1e-9);
        // The static portable takes all the excess: 1000 − 100 = 900.
        assert!((net.get(stat).unwrap().b_current - 900.0).abs() < 1e-6);
    }

    /// The resolver against the from-scratch reference on twin
    /// networks, through admissions, a capacity fade and a departure:
    /// same count returned, same rate on every connection bit for bit.
    /// The resolver is handed only the connections of the portables the
    /// network logged a write for since the last round (every one on
    /// the first); the reference walks the whole table.
    #[test]
    fn resident_resolver_matches_the_reference_bit_for_bit() {
        let mut t = Topology::new();
        let sw = t.add_switch("sw");
        let cells: Vec<CellId> = (0..3)
            .map(|i| {
                let c = t.add_cell(format!("c{i}"), 1000.0, 0.0);
                t.add_wired_duplex(sw, t.base_station(c), 100_000.0, 0.0);
                c
            })
            .collect();
        let mut live = Network::new(t);
        let mut twin = live.clone();
        let mut engine = IncrementalMaxmin::new();
        let mut scratch = ResolveScratch::default();
        // Every third portable is mobile: pinned at its floor.
        let is_static = |p: PortableId| p.0 % 3 != 0;
        let (mut touched, mut conns, mut ended) = (Vec::new(), Vec::new(), Vec::new());
        let mut round = |live: &mut Network, twin: &mut Network| {
            let all = live.read_changed(0, &mut touched);
            live.read_ended(&mut ended);
            conns.clear();
            if all {
                conns.extend(live.live_connections().map(|c| c.id));
            } else {
                for p in &touched {
                    conns.extend_from_slice(live.conn_ids_of_portable(*p));
                }
                conns.sort_unstable();
            }
            let ended = (!all).then_some(ended.as_slice());
            let n = resolve_network(live, &is_static, &conns, ended, &mut engine, &mut scratch);
            assert_eq!(n, reference::resolve_network_with_policy(twin, &is_static));
            let rates = |net: &Network| -> Vec<(ConnId, u64)> {
                net.live_connections()
                    .map(|c| (c.id, c.b_current.to_bits()))
                    .collect()
            };
            assert_eq!(rates(live), rates(twin));
            assert!(live.check_invariants().is_ok());
        };
        let mut ids = Vec::new();
        for p in 0..9u32 {
            let cell = cells[p as usize % cells.len()];
            let qos = QosRequest::bandwidth(40.0 + f64::from(p), 300.0 + 150.0 * f64::from(p));
            ids.push(admit_local(&mut live, cell, p, qos));
            admit_local(&mut twin, cell, p, qos);
            round(&mut live, &mut twin);
        }
        for net in [&mut live, &mut twin] {
            let wl = net.topology().wireless_link(cells[1]);
            net.link_mut(wl)
                .set_claim(arm_net::link::ResvClaim::Channel, 412.5);
        }
        round(&mut live, &mut twin);
        for net in [&mut live, &mut twin] {
            net.finish(ids[4]);
        }
        round(&mut live, &mut twin);
        assert!(
            engine.stats.conns_reused > 0,
            "clean components are skipped: {:?}",
            engine.stats
        );
    }

    /// The ledger can leave a frozen target with no input change (here
    /// a direct `set_conn_rate`; through the manager, a squeeze and an
    /// outage seal that both come and go inside one closed eqn-2 gate).
    /// The next round must put it back without re-solving anything.
    /// `tests/zero_alloc.rs` pins the same round at zero allocations.
    #[test]
    fn resolve_network_restores_a_rate_knocked_off_its_frozen_target() {
        let (mut net, cell) = one_cell_net();
        let a = admit_local(&mut net, cell, 0, QosRequest::bandwidth(100.0, 2000.0));
        let b = admit_local(&mut net, cell, 1, QosRequest::bandwidth(100.0, 2000.0));
        let mut engine = IncrementalMaxmin::new();
        let mut scratch = ResolveScratch::default();
        let is_static = |_: PortableId| true;
        resolve_network(
            &mut net,
            &is_static,
            &[a, b],
            None,
            &mut engine,
            &mut scratch,
        );
        let target = net.get(a).unwrap().b_current;
        assert_eq!(target, 500.0);
        net.set_conn_rate(a, 100.0).unwrap();
        let before = engine.stats;
        let logged = Some(&[][..]);
        let changed = resolve_network(
            &mut net,
            &is_static,
            &[a],
            logged,
            &mut engine,
            &mut scratch,
        );
        assert_eq!(changed, 1);
        assert_eq!(net.get(a).unwrap().b_current.to_bits(), target.to_bits());
        assert_eq!(net.get(b).unwrap().b_current.to_bits(), target.to_bits());
        assert_eq!(
            engine.stats.incremental_solves, before.incremental_solves,
            "no input changed: the frozen allocation is still valid"
        );
        assert_eq!(engine.stats.cache_hits, before.cache_hits + 1);
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn malformed_allocation_degrades_to_floor_not_panic() {
        // Regression: a NaN or negative excess entry (impossible from
        // `solve`, but reachable through hand-built allocations) used to
        // flow into `set_conn_rate` unchecked; now it clamps to the
        // guaranteed floor.
        let (mut net, cell) = one_cell_net();
        let a = admit_local(&mut net, cell, 0, QosRequest::bandwidth(100.0, 2000.0));
        let b = admit_local(&mut net, cell, 1, QosRequest::bandwidth(100.0, 2000.0));
        let mut alloc = std::collections::BTreeMap::new();
        alloc.insert(a, f64::NAN);
        alloc.insert(b, -50.0);
        apply_allocation(&mut net, alloc, &mut Vec::new());
        assert_eq!(net.get(a).unwrap().b_current, 100.0);
        assert_eq!(net.get(b).unwrap().b_current, 100.0);
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn departure_redistributes() {
        let (mut net, cell) = one_cell_net();
        let a = admit_local(&mut net, cell, 0, QosRequest::bandwidth(100.0, 2000.0));
        let b = admit_local(&mut net, cell, 1, QosRequest::bandwidth(100.0, 2000.0));
        reference::resolve_network(&mut net);
        net.finish(b);
        reference::resolve_network(&mut net);
        assert!((net.get(a).unwrap().b_current - 1000.0).abs() < 1e-6);
        assert!(net.check_invariants().is_ok());
    }
}
