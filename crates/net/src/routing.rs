//! Route computation over the backbone.
//!
//! §4's overview assumes "an appropriate route found by a routing
//! algorithm"; the paper does not innovate here, so we provide a standard
//! Dijkstra over the directed edge graph, minimising hop count with
//! propagation delay as a tie-break. Multicast fan-out (the pre-setup of
//! routes into every neighbouring cell, §4) is [`neighbor_legs`]: one
//! unicast route per neighbour, read off a single Dijkstra per cell,
//! which the caller may overlap-count — adequate because indoor
//! backbones are small trees or meshes where shared prefixes are found
//! naturally by identical shortest-path prefixes.

use arm_sim::Audited;
use serde::{Deserialize, Serialize};

use crate::ids::{CellId, LinkId, NodeId};
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
        *self.nodes.first().invariant("route has at least one node")
    }

    /// Destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().invariant("route has at least one node")
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
    route_to(&predecessors(topo, src, &[dst], avoid), src, dst)
}

/// Dijkstra from `src` by `(hops, total prop delay)`: every reached
/// node's predecessor hop on its shortest path. The search stops once
/// every node of `targets` is settled (or nothing is left to reach);
/// the entries on their paths are by then what a run toward each one
/// alone leaves — a settled node's entry never changes, and every node
/// on a path settles before its end — which is what lets one run per
/// source stand in for a run per destination.
fn predecessors(
    topo: &Topology,
    src: NodeId,
    targets: &[NodeId],
    avoid: &std::collections::BTreeSet<LinkId>,
) -> Vec<Option<(NodeId, LinkId)>> {
    let n = topo.node_count();
    let mut pending = targets.to_vec();
    // Cost is (hops, delay in ns), compared lexicographically.
    let mut best = vec![(u32::MAX, u64::MAX); n];
    // (cost, node) min-heap via BinaryHeap<Reverse<_>> with node index as
    // the final deterministic tie-break.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap = BinaryHeap::new();
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    best[src.index()] = (0, 0);
    heap.push(Reverse((0u32, 0u64, src.index())));
    while let Some(Reverse((hops, delay_ns, u))) = heap.pop() {
        if (hops, delay_ns) != best[u] {
            continue; // stale entry
        }
        pending.retain(|t| t.index() != u);
        if pending.is_empty() {
            break;
        }
        for edge in topo.out_edges(NodeId::from_index(u)) {
            if avoid.contains(&edge.link) {
                continue;
            }
            let v = edge.to.index();
            let spec = topo.link(edge.link);
            let cand = (hops + 1, delay_ns + (spec.prop_delay * 1e9) as u64);
            if cand < best[v] {
                best[v] = cand;
                prev[v] = Some((NodeId::from_index(u), edge.link));
                heap.push(Reverse((cand.0, cand.1, v)));
            }
        }
    }
    prev
}

/// The route `src → dst` read off a predecessor table of `src`, `None`
/// when the search never reached `dst`.
fn route_to(prev: &[Option<(NodeId, LinkId)>], src: NodeId, dst: NodeId) -> Option<Route> {
    if src == dst {
        return Some(Route::trivial(src));
    }
    prev[dst.index()]?;
    // Walk predecessors back to the source.
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = prev[cur.index()].invariant("predecessor chain broken");
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Route { nodes, links })
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

/// One cell's §4 multicast fan-out: each neighbour, ascending, with the
/// wired links of the route between the two base stations — `None` for
/// a neighbour the backbone cannot reach.
pub type NeighborLegs = Vec<(CellId, Option<Vec<LinkId>>)>;

/// Every cell's [`NeighborLegs`], indexed by
/// [`CellId::index`](crate::ids::CellId::index): the legs toward
/// neighbour `n` of cell `c` are exactly the wired links of
/// `shortest_path(topo, topo.base_station(c), topo.base_station(n))`.
/// One Dijkstra per cell, run until its last neighbour is settled,
/// however many neighbours it has; like [`uplink_routes`], built once
/// over the static topology and never invalidated. `neighbors` is the
/// floor plan's relation — the topology knows only the wiring.
pub fn neighbor_legs<I: IntoIterator<Item = CellId>>(
    topo: &Topology,
    neighbors: impl Fn(CellId) -> I,
) -> Vec<NeighborLegs> {
    let avoid = std::collections::BTreeSet::new();
    topo.cells()
        .map(|(c, ports)| {
            let src = ports.base_station;
            let ns: Vec<CellId> = neighbors(c).into_iter().collect();
            let targets: Vec<NodeId> = ns.iter().map(|n| topo.base_station(*n)).collect();
            let prev = predecessors(topo, src, &targets, &avoid);
            ns.into_iter()
                .map(|n| {
                    let legs = route_to(&prev, src, topo.base_station(n)).map(|route| {
                        let mut links = route.links;
                        links.retain(|l| topo.link(*l).wireless_cell.is_none());
                        links
                    });
                    (n, legs)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn neighbour_table_holds_the_wired_links_of_each_live_route() {
        let (mut t, cells) = star();
        let island = t.add_cell("island", 1600.0, 0.0);
        // A ring of the three star cells, with the island hung off cell 0.
        let ring = |c: CellId| -> Vec<CellId> {
            let i = cells.iter().position(|x| *x == c);
            let mut ns: Vec<CellId> = match i {
                Some(i) => vec![cells[(i + 1) % 3], cells[(i + 2) % 3]],
                None => vec![cells[0]],
            };
            if c == cells[0] {
                ns.push(island);
            }
            ns
        };
        let table = neighbor_legs(&t, ring);
        assert_eq!(table.len(), t.cell_count());
        for (c, _) in t.cells() {
            let row = &table[c.index()];
            assert_eq!(row.iter().map(|(n, _)| *n).collect::<Vec<_>>(), ring(c));
            for (n, legs) in row {
                let live = shortest_path(&t, t.base_station(c), t.base_station(*n)).map(|r| {
                    let wired = |l: &LinkId| t.link(*l).wireless_cell.is_none();
                    r.links.into_iter().filter(wired).collect::<Vec<_>>()
                });
                assert_eq!(legs, &live, "{c:?} → {n:?}");
                assert_eq!(legs.is_none(), c == island || *n == island);
                assert!(legs.as_ref().is_none_or(|l| l.len() == 2), "bs → sw → bs");
            }
        }
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
    fn route_is_loop_free() {
        let (t, cells) = star();
        let r = shortest_path(&t, t.air_node(cells[0]), t.air_node(cells[2])).unwrap();
        let mut seen = std::collections::HashSet::new();
        for n in &r.nodes {
            assert!(seen.insert(*n), "node repeated: {n:?}");
        }
    }
}
