//! The node/link graph.
//!
//! Nodes are backbone **switches** and **base stations**; each base station
//! serves one wireless **cell**. Wired links are full-duplex and modelled
//! as two independent capacity resources (one per direction). The wireless
//! hop of a cell is a **single shared-medium resource**: the paper speaks
//! of "cell throughput" (e.g. 1.6 Mbps in §7.1) shared by all uplink and
//! downlink traffic in the cell, so both graph directions of the air
//! interface map onto one capacity ledger.
//!
//! To give the air interface a place in route computations, every cell gets
//! an auxiliary *air node* representing the portable side of the medium; a
//! connection terminating at a portable in cell `c` routes to `air(c)`.

use serde::{Deserialize, Serialize};

use crate::ids::{CellId, LinkId, NodeId};

/// What a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum NodeKind {
    /// A backbone packet switch (WFQ or RCSP scheduler, per Table 2).
    Switch,
    /// The base station serving a cell.
    BaseStation(CellId),
    /// The portable side of a cell's wireless medium (route endpoint).
    Air(CellId),
}

/// Static description of a capacity resource.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Link speed `C_l` (kbps).
    pub(crate) capacity: f64,
    /// Propagation delay (seconds). The paper omits propagation delay "for
    /// simplicity of presentation"; we carry it but default it to zero.
    pub(crate) prop_delay: f64,
    /// Per-link packet error probability `p_e,l` (wireless links are
    /// error-prone; wired links typically 0).
    pub error_prob: f64,
    /// The cell whose shared medium this is, if wireless.
    pub wireless_cell: Option<CellId>,
}

/// A node record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node {
    /// What the node is.
    pub(crate) kind: NodeKind,
    /// Debug name.
    pub name: String,
}

/// A directed edge in the routing graph, referencing its capacity resource.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// Tail.
    pub(crate) from: NodeId,
    /// Head.
    pub to: NodeId,
    /// The capacity resource this edge consumes.
    pub link: LinkId,
}

/// Per-cell wiring produced by [`Topology::add_cell`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct CellPorts {
    /// The base-station node.
    pub(crate) base_station: NodeId,
    /// The air node (portable side of the medium).
    pub(crate) air: NodeId,
    /// The shared wireless medium resource.
    pub(crate) wireless: LinkId,
}

/// The static network graph.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<LinkSpec>,
    edges: Vec<Edge>,
    /// Outgoing edge indices per node.
    out_adj: Vec<Vec<usize>>,
    /// Cell wiring, indexed by `CellId`.
    cells: Vec<CellPorts>,
}

impl Topology {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a backbone switch.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.push_node(Node {
            kind: NodeKind::Switch,
            name: name.into(),
        })
    }

    /// Add a cell: creates its base station, its air node, and the shared
    /// wireless medium with the given cell throughput (kbps) and wireless
    /// error probability. Returns the new `CellId`.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        cell_throughput: f64,
        error_prob: f64,
    ) -> CellId {
        let cell = CellId::from_index(self.cells.len());
        let name = name.into();
        let bs = self.push_node(Node {
            kind: NodeKind::BaseStation(cell),
            name: format!("bs:{name}"),
        });
        let air = self.push_node(Node {
            kind: NodeKind::Air(cell),
            name: format!("air:{name}"),
        });
        let link = self.push_link(LinkSpec {
            capacity: cell_throughput,
            prop_delay: 0.0,
            error_prob,
            wireless_cell: Some(cell),
        });
        // Both directions of the air interface share the one medium.
        self.push_edge(bs, air, link);
        self.push_edge(air, bs, link);
        self.cells.push(CellPorts {
            base_station: bs,
            air,
            wireless: link,
        });
        cell
    }

    /// Add a full-duplex wired link: two independent capacity resources.
    /// Returns `(a→b, b→a)` link ids.
    pub fn add_wired_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        prop_delay: f64,
    ) -> (LinkId, LinkId) {
        let ab = self.add_wired_simplex(a, b, capacity, prop_delay);
        (ab, self.add_wired_simplex(b, a, capacity, prop_delay))
    }

    /// Add a one-way wired link: half of a duplex one, and on its own
    /// the asymmetric bottleneck some tests need.
    pub(crate) fn add_wired_simplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        prop_delay: f64,
    ) -> LinkId {
        let ab = self.push_link(LinkSpec {
            capacity,
            prop_delay,
            error_prob: 0.0,
            wireless_cell: None,
        });
        self.push_edge(a, b, ab);
        ab
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        self.out_adj.push(Vec::new());
        id
    }

    fn push_link(&mut self, spec: LinkSpec) -> LinkId {
        let id = LinkId::from_index(self.links.len());
        self.links.push(spec);
        id
    }

    fn push_edge(&mut self, from: NodeId, to: NodeId, link: LinkId) {
        let idx = self.edges.len();
        self.edges.push(Edge { from, to, link });
        self.out_adj[from.index()].push(idx);
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of capacity resources (links).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Node record.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link spec.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.index()]
    }

    /// All cells.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (CellId, &CellPorts)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.out_adj[n.index()].iter().map(move |i| &self.edges[*i])
    }

    /// The base-station node of a cell.
    pub fn base_station(&self, cell: CellId) -> NodeId {
        self.cells[cell.index()].base_station
    }

    /// The air node of a cell.
    pub fn air_node(&self, cell: CellId) -> NodeId {
        self.cells[cell.index()].air
    }

    /// The shared wireless medium of a cell.
    pub fn wireless_link(&self, cell: CellId) -> LinkId {
        self.cells[cell.index()].wireless
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_cells_on_a_switch() {
        let mut t = Topology::new();
        let sw = t.add_switch("sw0");
        let c0 = t.add_cell("cell0", 1600.0, 0.01);
        let c1 = t.add_cell("cell1", 1600.0, 0.01);
        t.add_wired_duplex(sw, t.base_station(c0), 10_000.0, 0.0);
        t.add_wired_duplex(sw, t.base_station(c1), 10_000.0, 0.0);

        assert_eq!(t.cell_count(), 2);
        assert_eq!(t.node_count(), 5); // switch + 2×(bs + air)
        assert_eq!(t.link_count(), 6); // 2 wireless + 4 wired simplex halves
        assert_eq!(t.link(t.wireless_link(c0)).wireless_cell, Some(c0));
        assert_eq!(t.link(t.wireless_link(c0)).capacity, 1600.0);
        assert_eq!(t.node(t.base_station(c1)).kind, NodeKind::BaseStation(c1));
        assert_eq!(t.node(t.air_node(c1)).kind, NodeKind::Air(c1));
    }

    #[test]
    fn wireless_directions_share_one_resource() {
        let mut t = Topology::new();
        let c = t.add_cell("c", 1600.0, 0.0);
        let bs = t.base_station(c);
        let air = t.air_node(c);
        let up: Vec<_> = t.out_edges(air).collect();
        let down: Vec<_> = t.out_edges(bs).collect();
        assert_eq!(up.len(), 1);
        assert_eq!(down.len(), 1);
        assert_eq!(up[0].link, down[0].link, "shared medium");
    }

    #[test]
    fn duplex_wired_links_are_independent() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let (ab, ba) = t.add_wired_duplex(a, b, 1000.0, 0.001);
        assert_ne!(ab, ba);
        assert_eq!(t.link(ab).capacity, 1000.0);
        assert_eq!(t.link(ab).wireless_cell, None);
        assert_eq!(t.link(ab).prop_delay, 0.001);
    }

    #[test]
    fn cells_iterator_enumerates_in_id_order() {
        let mut t = Topology::new();
        let c0 = t.add_cell("x", 100.0, 0.0);
        let c1 = t.add_cell("y", 200.0, 0.0);
        let got: Vec<_> = t.cells().map(|(id, _)| id).collect();
        assert_eq!(got, vec![c0, c1]);
    }
}
