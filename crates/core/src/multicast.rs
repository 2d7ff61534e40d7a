//! Multicast pre-setup on the wired backbone (§4).
//!
//! "To reduce transient behavior of connections to a mobile upon handoff,
//! the backbone network will also set up multicast routes for the
//! connection in all neighboring cells so that the network can multicast
//! the packets to the pre-allocated buffer space in these neighbors. To
//! set up these multicast routes on the wired network, end-to-end
//! admission control test\[s\] and associated resource reservation are also
//! performed for them. However, the failure of the end-to-end test along
//! any route will not cause the forced termination of the connection."
//!
//! Mechanically: for a mobile portable's connection homed in cell `c`,
//! the manager reserves, along the *wired* part of a route to each
//! neighbour's base station, the connection's floor plus buffer — under a
//! dedicated multicast claim so the wireless media of the neighbours are
//! untouched (those are governed by the advance-reservation claims).
//! Failures are recorded but non-fatal, exactly per the paper.

use std::collections::BTreeMap;

use arm_net::ids::{CellId, ConnId, LinkId};
use arm_net::link::ResvClaim;
use arm_net::Network;
use serde::{Deserialize, Serialize};

/// The wired legs currently reserved for one connection's multicast
/// fan-out: neighbour cell → wired links of the branch.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MulticastState {
    branches: BTreeMap<ConnId, BTreeMap<CellId, Vec<LinkId>>>,
    /// Branch set-up attempts that failed admission (non-fatal).
    pub failed_branches: u64,
    /// Branches currently established.
    pub active_branches: usize,
}

impl MulticastState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)establish the multicast branches for `conn` along `legs`, its
    /// home cell's row of the manager's neighbour route table
    /// (`arm_net::routing::neighbor_legs`). Existing branches are torn
    /// down first (the neighbour set changes with every handoff).
    /// Reserves `b_min` on the *wired* links of each branch under
    /// [`ResvClaim::Conn`]; the wireless media are deliberately excluded.
    pub fn establish(
        &mut self,
        net: &mut Network,
        conn: ConnId,
        b_min: f64,
        legs: &[(CellId, Option<Vec<LinkId>>)],
    ) {
        self.teardown(net, conn);
        let mut branches = BTreeMap::new();
        for (n, wired) in legs {
            // Admission on the wired legs only: every link must fit the
            // floor beside its existing floors and claims. A neighbour
            // the backbone cannot reach fails the same way.
            let Some(wired) = wired
                .as_ref()
                .filter(|w| w.iter().all(|l| net.link(*l).admits(b_min)))
            else {
                self.failed_branches += 1;
                continue;
            };
            for l in wired {
                let cur = net.link(*l).claim(ResvClaim::Conn(conn));
                net.link_mut(*l)
                    .set_claim(ResvClaim::Conn(conn), cur + b_min);
            }
            branches.insert(*n, wired.clone());
        }
        self.active_branches += branches.len();
        if !branches.is_empty() {
            self.branches.insert(conn, branches);
        }
    }

    /// Tear down every branch of `conn` (termination, drop, or before
    /// re-establishing after a handoff).
    pub fn teardown(&mut self, net: &mut Network, conn: ConnId) {
        if let Some(branches) = self.branches.remove(&conn) {
            for (_, links) in branches {
                self.active_branches = self.active_branches.saturating_sub(1);
                for l in links {
                    net.link_mut(l).release_claim(ResvClaim::Conn(conn));
                }
            }
        }
    }

    /// The neighbours currently receiving `conn`'s multicast.
    pub fn branches_of(&self, conn: ConnId) -> Vec<CellId> {
        self.branches
            .get(&conn)
            .map(|b| b.keys().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_mobility::environment::Figure4;
    use arm_net::routing::{neighbor_legs, shortest_path, NeighborLegs};

    fn setup() -> (Network, Figure4, Vec<NeighborLegs>) {
        let f4 = Figure4::build();
        // Modest backbone so multicast reservations can actually fail.
        let net = f4.env.build_network(1600.0, 0.0, 1000.0);
        let legs = neighbor_legs(net.topology(), |c| f4.env.neighbors(c));
        (net, f4, legs)
    }

    #[test]
    fn branches_reserve_only_wired_links() {
        let (mut net, f4, legs) = setup();
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()]);
        assert_eq!(
            mc.branches_of(conn),
            f4.env.neighbors(f4.d).collect::<Vec<_>>()
        );
        // Wireless media untouched.
        for (cell, _) in f4.env.cells() {
            let wl = net.topology().wireless_link(cell);
            assert_eq!(net.link(wl).claim(ResvClaim::Conn(conn)), 0.0);
        }
        // Wired links toward each neighbour hold the claim.
        let dst = net.topology().base_station(f4.a);
        let src = net.topology().base_station(f4.d);
        let route = shortest_path(net.topology(), src, dst).expect("connected");
        let wired: Vec<LinkId> = route
            .links
            .iter()
            .copied()
            .filter(|l| net.topology().link(*l).wireless_cell.is_none())
            .collect();
        assert!(!wired.is_empty());
        for l in wired {
            assert!(net.link(l).claim(ResvClaim::Conn(conn)) >= 64.0);
        }
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn reestablish_moves_branches_with_the_portable() {
        let (mut net, f4, legs) = setup();
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()]);
        let before = mc.branches_of(conn);
        assert!(before.contains(&f4.a));
        // Handoff D → E: branches now cover E's neighbours only.
        mc.establish(&mut net, conn, 64.0, &legs[f4.e.index()]);
        let after = mc.branches_of(conn);
        assert!(after.contains(&f4.b));
        assert!(!after.contains(&f4.a));
        // No leaked claims on the old branches beyond the new ones.
        mc.teardown(&mut net, conn);
        for i in 0..net.topology().link_count() {
            let l = LinkId::from_index(i);
            assert_eq!(net.link(l).claim(ResvClaim::Conn(conn)), 0.0, "{l:?}");
        }
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn branch_failure_is_nonfatal_and_counted() {
        let (mut net, f4, legs) = setup();
        // Saturate the backbone toward A.
        let bs_a = net.topology().base_station(f4.a);
        let hub = arm_net::ids::NodeId(0);
        let route = shortest_path(net.topology(), hub, bs_a).expect("connected");
        for l in &route.links {
            if net.topology().link(*l).wireless_cell.is_none() {
                let cap = net.link(*l).capacity();
                net.link_mut(*l).set_claim(ResvClaim::DynPool, cap);
            }
        }
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()]);
        // The A branch failed; the others stand.
        assert!(mc.failed_branches >= 1);
        assert!(!mc.branches_of(conn).contains(&f4.a));
        assert!(mc.branches_of(conn).contains(&f4.e));
    }

    #[test]
    fn teardown_is_idempotent() {
        let (mut net, f4, legs) = setup();
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()][..1]);
        assert_eq!(mc.branches_of(conn), vec![f4.a]);
        mc.teardown(&mut net, conn);
        mc.teardown(&mut net, conn);
        assert_eq!(mc.branches_of(conn).len(), 0);
    }
}
