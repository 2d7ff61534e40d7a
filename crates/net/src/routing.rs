// Audited: every expect in this file is an `invariant:`/`precondition:`
// panic (see the arm-check `no-panic` lint).
#![allow(clippy::expect_used)]

//! Route computation over the backbone.
//!
//! §4's overview assumes "an appropriate route found by a routing
//! algorithm"; the paper does not innovate here, so we provide a standard
//! Dijkstra over the directed edge graph, minimising hop count with
//! propagation delay as a tie-break. Multicast fan-out (the pre-setup of
//! routes into every neighbouring cell, §4) is computed as independent
//! unicast routes that the caller may overlap-count — adequate because
//! indoor backbones are small trees or meshes where shared prefixes are
//! found naturally by identical shortest-path prefixes.

use serde::{Deserialize, Serialize};

use crate::ids::{LinkId, NodeId};
use crate::topology::Topology;

/// A loop-free path: the node sequence and the capacity resources of each
/// hop, in travel order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Visited nodes, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Link resources consumed, one per hop (`nodes.len() - 1` of them).
    pub links: Vec<LinkId>,
}

impl Route {
    /// Number of hops (links).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        *self
            .nodes
            .first()
            .expect("invariant: route has at least one node")
    }

    /// Destination node.
    pub fn destination(&self) -> NodeId {
        *self
            .nodes
            .last()
            .expect("invariant: route has at least one node")
    }

    /// Whether the route traverses the given link resource.
    pub fn uses_link(&self, l: LinkId) -> bool {
        self.links.contains(&l)
    }

    /// The trivial single-node route.
    pub fn trivial(n: NodeId) -> Self {
        Route {
            nodes: vec![n],
            links: Vec::new(),
        }
    }
}

/// Shortest path from `src` to `dst` by `(hops, total prop delay)`.
///
/// Returns `None` when `dst` is unreachable.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Route> {
    shortest_path_avoiding(topo, src, dst, &std::collections::BTreeSet::new())
}

/// Shortest path from `src` to `dst` that traverses none of the links in
/// `avoid` — used to route around failed links. Returns `None` when no
/// such path exists.
pub fn shortest_path_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    avoid: &std::collections::BTreeSet<LinkId>,
) -> Option<Route> {
    if src == dst {
        return Some(Route::trivial(src));
    }
    const UNSEEN: u64 = u64::MAX;
    // Cost packs (hops, delay in ns) lexicographically into a u64-pair.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Cost {
        hops: u32,
        delay_ns: u64,
    }
    let n = topo.node_count();
    let mut best = vec![
        Cost {
            hops: u32::MAX,
            delay_ns: UNSEEN,
        };
        n
    ];
    // (cost, node) min-heap via BinaryHeap<Reverse<_>> with node index as
    // the final deterministic tie-break.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap = BinaryHeap::new();
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    best[src.index()] = Cost {
        hops: 0,
        delay_ns: 0,
    };
    heap.push(Reverse((0u32, 0u64, src.index())));
    while let Some(Reverse((hops, delay_ns, u))) = heap.pop() {
        let cur = best[u];
        if (hops, delay_ns) != (cur.hops, cur.delay_ns) {
            continue; // stale entry
        }
        if u == dst.index() {
            break;
        }
        for edge in topo.out_edges(NodeId::from_index(u)) {
            if avoid.contains(&edge.link) {
                continue;
            }
            let v = edge.to.index();
            let spec = topo.link(edge.link);
            let cand = Cost {
                hops: hops + 1,
                delay_ns: delay_ns + (spec.prop_delay * 1e9) as u64,
            };
            if (cand.hops, cand.delay_ns) < (best[v].hops, best[v].delay_ns) {
                best[v] = cand;
                prev[v] = Some((NodeId::from_index(u), edge.link));
                heap.push(Reverse((cand.hops, cand.delay_ns, v)));
            }
        }
    }
    if best[dst.index()].hops == u32::MAX {
        return None;
    }
    // Walk predecessors back to the source.
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = prev[cur.index()].expect("invariant: predecessor chain broken");
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Route { nodes, links })
}

/// Routes from `src` to the air node of every listed cell — the multicast
/// pre-setup of §4 (packets are multicast to pre-allocated buffers in all
/// neighbouring cells of a mobile's current cell).
pub fn multicast_routes(
    topo: &Topology,
    src: NodeId,
    cells: &[crate::ids::CellId],
) -> Vec<(crate::ids::CellId, Option<Route>)> {
    cells
        .iter()
        .map(|c| (*c, shortest_path(topo, src, topo.air_node(*c))))
        .collect()
}

/// Every cell's air-to-server route (wireless hop first), indexed by
/// [`CellId::index`](crate::ids::CellId::index): entry `c` is exactly
/// `shortest_path(topo, topo.air_node(c), server)`, `None` for a cell
/// that cannot reach the server. One Dijkstra per cell; the topology is
/// static, so a holder builds the table once and never invalidates it.
pub fn uplink_routes(topo: &Topology, server: NodeId) -> Vec<Option<Route>> {
    topo.cells()
        .map(|(c, _)| shortest_path(topo, topo.air_node(c), server))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CellId;

    /// Star backbone: one switch, three cells.
    fn star() -> (Topology, Vec<CellId>) {
        let mut t = Topology::new();
        let sw = t.add_switch("sw");
        let cells: Vec<CellId> = (0..3)
            .map(|i| {
                let c = t.add_cell(format!("c{i}"), 1600.0, 0.0);
                t.add_wired_duplex(sw, t.base_station(c), 10_000.0, 0.001);
                c
            })
            .collect();
        (t, cells)
    }

    #[test]
    fn air_to_air_route_is_four_hops() {
        let (t, cells) = star();
        let r = shortest_path(&t, t.air_node(cells[0]), t.air_node(cells[1])).unwrap();
        // air0 → bs0 → sw → bs1 → air1
        assert_eq!(r.hop_count(), 4);
        assert_eq!(r.source(), t.air_node(cells[0]));
        assert_eq!(r.destination(), t.air_node(cells[1]));
        assert!(r.uses_link(t.wireless_link(cells[0])));
        assert!(r.uses_link(t.wireless_link(cells[1])));
    }

    #[test]
    fn trivial_route() {
        let (t, cells) = star();
        let n = t.air_node(cells[0]);
        let r = shortest_path(&t, n, n).unwrap();
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.nodes, vec![n]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        assert!(shortest_path(&t, a, b).is_none());
    }

    #[test]
    fn uplink_table_is_dense_by_cell_and_none_where_unreachable() {
        let (mut t, cells) = star();
        // `star` adds the switch first.
        let sw = NodeId::from_index(0);
        // A cell whose base station is wired to nothing.
        let island = t.add_cell("island", 1600.0, 0.0);
        let table = uplink_routes(&t, sw);
        assert_eq!(table.len(), t.cell_count());
        for &c in &cells {
            let route = table[c.index()]
                .as_ref()
                .expect("star cell reaches the hub");
            assert_eq!(route.links.first().copied(), Some(t.wireless_link(c)));
            assert_eq!(route.hop_count(), 2, "wireless hop + wired hop");
            assert_eq!(
                table[c.index()],
                shortest_path(&t, t.air_node(c), sw),
                "the table's route is the one Dijkstra returns"
            );
        }
        assert_eq!(table[island.index()], None);
    }

    #[test]
    fn avoiding_a_failed_link_takes_the_detour() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let c = t.add_switch("c");
        t.add_wired_simplex(a, b, 100.0, 0.001);
        t.add_wired_simplex(a, c, 100.0, 0.001);
        t.add_wired_simplex(c, b, 100.0, 0.001);
        let direct = shortest_path(&t, a, b).unwrap();
        assert_eq!(direct.hop_count(), 1);
        let mut avoid = std::collections::BTreeSet::new();
        avoid.insert(direct.links[0]);
        let detour = shortest_path_avoiding(&t, a, b, &avoid).unwrap();
        assert_eq!(detour.hop_count(), 2);
        assert!(!detour.uses_link(direct.links[0]));
        // Avoiding every outbound link makes the destination unreachable.
        for e in t.out_edges(a) {
            avoid.insert(e.link);
        }
        assert!(shortest_path_avoiding(&t, a, b, &avoid).is_none());
    }

    #[test]
    fn prefers_fewer_hops_then_lower_delay() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let c = t.add_switch("c");
        // Direct high-delay edge vs two-hop low-delay path.
        t.add_wired_simplex(a, b, 100.0, 0.5);
        t.add_wired_simplex(a, c, 100.0, 0.001);
        t.add_wired_simplex(c, b, 100.0, 0.001);
        let r = shortest_path(&t, a, b).unwrap();
        assert_eq!(r.hop_count(), 1, "hop count dominates delay");

        // Among equal hop counts, delay decides.
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let slow = t.add_wired_simplex(a, b, 100.0, 0.5);
        let fast = t.add_wired_simplex(a, b, 100.0, 0.001);
        let r = shortest_path(&t, a, b).unwrap();
        assert_eq!(r.links, vec![fast]);
        assert_ne!(r.links, vec![slow]);
    }

    #[test]
    fn multicast_covers_all_neighbours() {
        let (t, cells) = star();
        let src = t.base_station(cells[0]);
        let routes = multicast_routes(&t, src, &cells[1..]);
        assert_eq!(routes.len(), 2);
        for (cell, r) in routes {
            let r = r.expect("reachable");
            assert_eq!(r.destination(), t.air_node(cell));
            // bs0 → sw → bsX → airX
            assert_eq!(r.hop_count(), 3);
        }
    }

    #[test]
    fn route_is_loop_free() {
        let (t, cells) = star();
        let r = shortest_path(&t, t.air_node(cells[0]), t.air_node(cells[2])).unwrap();
        let mut seen = std::collections::HashSet::new();
        for n in &r.nodes {
            assert!(seen.insert(*n), "node repeated: {n:?}");
        }
    }
}
