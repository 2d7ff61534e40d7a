//! The assembled network: topology + per-link ledgers + connection table.
//!
//! [`Network`] is the mutable state every algorithm crate operates on. It
//! offers *mechanical* multi-link operations (reserve a floor along a
//! route with rollback, release a route, move a connection between
//! routes); *policy* — the full Table 2 admission test, maxmin adaptation,
//! advance reservation — lives in `arm-qos` / `arm-reservation`.

use std::collections::BTreeMap;

use arm_sim::Audited;
use serde::{Deserialize, Serialize};

use crate::connection::Connection;
use crate::ids::{ConnId, LinkId, PortableId};
use crate::link::{LedgerError, LinkState};
use crate::routing::Route;
use crate::topology::Topology;

/// Topology plus run-time state.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    links: Vec<LinkState>,
    /// One slot per id ever issued (index = ConnId). A slot holds a
    /// record exactly while its connection is live: it starts `None`
    /// ([`Network::next_conn_id`]), is filled by [`Network::install`] and
    /// goes back to `None` in [`Network::finish`] /
    /// [`Network::mark_blocked`]. Slots are never removed, so ids are
    /// never reissued — across a snapshot too, which writes `null` for a
    /// retired slot.
    conns: Vec<Option<Connection>>,
    /// Live connections traversing each link (index = LinkId), kept
    /// sorted ascending. A sorted `Vec<ConnId>` serializes to the same
    /// bytes as the `BTreeSet<ConnId>` it replaced (both are plain
    /// arrays in ascending order), so snapshot fingerprints are
    /// unchanged; membership updates are binary-search + memmove, which
    /// reuses capacity instead of allocating tree nodes per churn event.
    link_conns: Vec<Vec<ConnId>>,
    /// Connections of each portable, ascending, so per-portable queries
    /// do not scan the whole table. Derived from `conns`: maintained by
    /// [`Network::install`], [`Network::finish`] and
    /// [`Network::mark_blocked`], never serialised, rebuilt on decode.
    /// No entry is ever empty.
    portable_conns: BTreeMap<PortableId, Vec<ConnId>>,
    /// Portables whose connections may have changed since the last
    /// [`Network::drain_changed_portables`]: the owner of every record
    /// installed, retired, re-rated or handed out by `get_mut`.
    /// Unordered, may repeat; never serialised (a decoded network starts
    /// empty and unseen).
    changed: Vec<PortableId>,
    /// Built, decoded or cloned since the last drain: a reader that kept
    /// state from before cannot know it was this network's, so every
    /// portable counts as changed, recorded or not.
    unseen: bool,
}

/// A copy that a reader of the original's change record cannot take for
/// the original: it starts unseen.
impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            topo: self.topo.clone(),
            links: self.links.clone(),
            conns: self.conns.clone(),
            link_conns: self.link_conns.clone(),
            portable_conns: self.portable_conns.clone(),
            changed: self.changed.clone(),
            unseen: true,
        }
    }
}

// Manual impls so the derived index stays off the wire: exactly the four
// fields the derive emitted before the index existed (snapshot bytes and
// schema fingerprints unchanged). A decoded network's index is rebuilt
// from its connection table — a `portable_conns` entry in the document
// is never read.
impl Serialize for Network {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("topo".to_string(), self.topo.to_value()),
            ("links".to_string(), self.links.to_value()),
            ("conns".to_string(), self.conns.to_value()),
            ("link_conns".to_string(), self.link_conns.to_value()),
        ])
    }
    /// The text of [`to_value`](Serialize::to_value)'s tree, with no tree
    /// built: that tree is kept as the oracle this is tested against.
    fn write_json(&self, out: &mut serde::JsonWriter) {
        out.raw("{\"topo\":");
        self.topo.write_json(out);
        out.raw(",\"links\":");
        self.links.write_json(out);
        out.raw(",\"conns\":");
        self.conns.write_json(out);
        out.raw(",\"link_conns\":");
        self.link_conns.write_json(out);
        out.raw("}");
    }
}

impl Deserialize for Network {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        wire::Network::from_value(v).map(Network::from)
    }
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        wire::Network::read_json(r).map(Network::from)
    }
}

/// The serialised fields of a [`Network`](super::Network), under its
/// name so the derive's error texts carry it.
mod wire {
    use super::{ConnId, Connection, LinkState, Topology};

    #[derive(serde::Deserialize)]
    pub(super) struct Network {
        pub(super) topo: Topology,
        pub(super) links: Vec<LinkState>,
        pub(super) conns: Vec<Option<Connection>>,
        pub(super) link_conns: Vec<Vec<ConnId>>,
    }
}

impl From<wire::Network> for Network {
    fn from(w: wire::Network) -> Self {
        let mut portable_conns: BTreeMap<PortableId, Vec<ConnId>> = BTreeMap::new();
        // Table order is id order, so each entry comes out ascending.
        for c in w.conns.iter().flatten() {
            portable_conns.entry(c.portable).or_default().push(c.id);
        }
        Network {
            topo: w.topo,
            links: w.links,
            conns: w.conns,
            link_conns: w.link_conns,
            portable_conns,
            changed: Vec::new(),
            unseen: true,
        }
    }
}

/// Insert into a sorted membership vector (no-op when present).
#[inline]
fn index_insert(set: &mut Vec<ConnId>, conn: ConnId) {
    if let Err(at) = set.binary_search(&conn) {
        set.insert(at, conn);
    }
}

/// Remove from a sorted membership vector (no-op when absent).
#[inline]
fn index_remove(set: &mut Vec<ConnId>, conn: ConnId) {
    if let Ok(at) = set.binary_search(&conn) {
        set.remove(at);
    }
}

impl Network {
    /// Instantiate ledgers for every link of the topology.
    pub fn new(topo: Topology) -> Self {
        let links = (0..topo.link_count())
            .map(|i| LinkState::new(topo.link(LinkId::from_index(i)).capacity))
            .collect();
        let link_conns = vec![Vec::new(); topo.link_count()];
        Network {
            topo,
            links,
            conns: Vec::new(),
            link_conns,
            portable_conns: BTreeMap::new(),
            changed: Vec::new(),
            unseen: true,
        }
    }

    /// Record that `p`'s connections or floors may have changed. When
    /// the buffer is full it is compacted before it grows, so without a
    /// drain it stays within twice the distinct portables recorded.
    fn note_changed(&mut self, p: PortableId) {
        if self.changed.len() == self.changed.capacity() {
            self.changed.sort_unstable();
            self.changed.dedup();
        }
        self.changed.push(p);
    }

    /// Move the portables recorded since the last drain into `into`
    /// (its old contents dropped), ascending and without repeats. The
    /// two buffers trade places, so neither allocates in steady state.
    /// True if the network was built, decoded or cloned since the last
    /// drain: then every portable counts as changed, listed or not.
    pub fn drain_changed_portables(&mut self, into: &mut Vec<PortableId>) -> bool {
        into.clear();
        std::mem::swap(into, &mut self.changed);
        into.sort_unstable();
        into.dedup();
        std::mem::replace(&mut self.unseen, false)
    }

    /// The static graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Ledger of one link.
    pub fn link(&self, l: LinkId) -> &LinkState {
        &self.links[l.index()]
    }

    /// Mutable ledger of one link.
    pub fn link_mut(&mut self, l: LinkId) -> &mut LinkState {
        &mut self.links[l.index()]
    }

    /// Ledgers of every link, with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &LinkState)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId::from_index(i), l))
    }

    /// Live connections traversing a link.
    pub fn conns_on_link(&self, l: LinkId) -> impl Iterator<Item = &Connection> {
        self.link_conns[l.index()]
            .iter()
            .filter_map(move |c| self.get(*c))
    }

    /// Ids of live connections traversing a link, ascending. Borrowed
    /// straight from the membership index — no per-call allocation.
    pub fn conn_ids_on_link(&self, l: LinkId) -> &[ConnId] {
        &self.link_conns[l.index()]
    }

    // ------------------------------------------------------------------
    // Connection table
    // ------------------------------------------------------------------

    /// Reserve the next connection id (before admission, so failed
    /// attempts are also identifiable in traces).
    pub fn next_conn_id(&mut self) -> ConnId {
        let id = ConnId::from_index(self.conns.len());
        self.conns.push(None);
        id
    }

    /// Install a connection record under its pre-allocated id.
    pub fn install(&mut self, conn: Connection) {
        let idx = conn.id.index();
        assert!(idx < self.conns.len(), "id not pre-allocated");
        assert!(self.conns[idx].is_none(), "id already installed");
        self.note_changed(conn.portable);
        index_insert(
            self.portable_conns.entry(conn.portable).or_default(),
            conn.id,
        );
        self.conns[idx] = Some(conn);
    }

    /// Drop `id` from its portable's index entry (no-op when absent).
    fn unindex(
        portable_conns: &mut BTreeMap<PortableId, Vec<ConnId>>,
        portable: PortableId,
        id: ConnId,
    ) {
        if let Some(ids) = portable_conns.get_mut(&portable) {
            index_remove(ids, id);
            if ids.is_empty() {
                portable_conns.remove(&portable);
            }
        }
    }

    /// An installed connection failed admission: it holds no resources
    /// (the attempt was rolled back), so its record is simply retired.
    pub fn mark_blocked(&mut self, id: ConnId) {
        let c = self
            .conns
            .get_mut(id.index())
            .and_then(Option::take)
            .precondition("mark_blocked on an installed connection");
        self.note_changed(c.portable);
        Self::unindex(&mut self.portable_conns, c.portable, id);
    }

    /// Look up a live connection (`None` once finished or refused).
    pub fn get(&self, id: ConnId) -> Option<&Connection> {
        self.conns.get(id.index()).and_then(|c| c.as_ref())
    }

    /// Mutable lookup. The record's portable counts as changed (see
    /// [`drain_changed_portables`](Self::drain_changed_portables)): the
    /// caller may rewrite its floors.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut Connection> {
        let p = self.get(id)?.portable;
        self.note_changed(p);
        self.conns.get_mut(id.index()).and_then(|c| c.as_mut())
    }

    /// Iterate over live connections, ascending by id — every record
    /// the table holds.
    pub fn live_connections(&self) -> impl Iterator<Item = &Connection> {
        self.conns.iter().flatten()
    }

    /// Live connections of one portable, ascending by id — read from
    /// the per-portable index, not a scan of the table.
    pub fn connections_of_portable(&self, p: PortableId) -> impl Iterator<Item = &Connection> {
        self.conn_ids_of_portable(p)
            .iter()
            .filter_map(move |id| self.get(*id))
    }

    /// Ids of one portable's live connections, ascending — borrowed
    /// from the per-portable index, no per-call allocation.
    pub fn conn_ids_of_portable(&self, p: PortableId) -> &[ConnId] {
        self.portable_conns.get(&p).map_or(&[], Vec::as_slice)
    }

    /// Every portable holding a live connection, ascending — the keys
    /// of the per-portable index.
    pub fn portables_with_connections(&self) -> impl Iterator<Item = PortableId> + '_ {
        self.portable_conns.keys().copied()
    }

    // ------------------------------------------------------------------
    // Mechanical multi-link operations
    // ------------------------------------------------------------------

    /// Reserve `b_min`/`buffers[i]` on every link of `route` for `conn`,
    /// atomically: on any per-link failure, links already reserved are
    /// rolled back and the error is returned together with the failing
    /// link. `buffers` must have one entry per route link.
    ///
    /// `as_handoff` lets the connection consume its own advance claims.
    pub fn reserve_route(
        &mut self,
        conn: ConnId,
        route: &Route,
        b_min: f64,
        buffers: &[f64],
        as_handoff: bool,
    ) -> Result<(), (LinkId, LedgerError)> {
        self.reserve_route_links(conn, &route.links, b_min, buffers, as_handoff)
    }

    /// [`Self::reserve_route`] over a bare link slice — the admission hot
    /// path holds its route links in a resident scratch buffer rather
    /// than a `Route`.
    pub fn reserve_route_links(
        &mut self,
        conn: ConnId,
        route_links: &[LinkId],
        b_min: f64,
        buffers: &[f64],
        as_handoff: bool,
    ) -> Result<(), (LinkId, LedgerError)> {
        assert_eq!(buffers.len(), route_links.len());
        let mut done = 0;
        for (i, l) in route_links.iter().enumerate() {
            let r = if as_handoff {
                self.links[l.index()].admit_handoff(conn, b_min, buffers[i])
            } else {
                self.links[l.index()].admit(conn, b_min, buffers[i])
            };
            match r {
                Ok(()) => done += 1,
                Err(e) => {
                    for l in &route_links[..done] {
                        self.links[l.index()]
                            .release(conn)
                            .invariant("rollback of just-reserved link");
                        index_remove(&mut self.link_conns[l.index()], conn);
                    }
                    return Err((*l, e));
                }
            }
        }
        for l in route_links {
            index_insert(&mut self.link_conns[l.index()], conn);
        }
        Ok(())
    }

    /// Release `conn` from every link of `route`. Links where the
    /// connection is unknown are skipped (idempotent teardown).
    pub fn release_route(&mut self, conn: ConnId, route: &Route) {
        self.release_route_links(conn, &route.links);
    }

    /// [`Self::release_route`] over a bare link slice.
    pub fn release_route_links(&mut self, conn: ConnId, route_links: &[LinkId]) {
        for l in route_links {
            let _ = self.links[l.index()].release(conn);
            index_remove(&mut self.link_conns[l.index()], conn);
        }
    }

    /// Set a live connection's end-to-end rate: adjusts the allocation on
    /// every link of its route and the record's `b_current`. The rate must
    /// lie in `[b_min, b_max]`.
    pub fn set_conn_rate(&mut self, id: ConnId, rate: f64) -> Result<(), (LinkId, LedgerError)> {
        // Split-borrow the connection table and the link ledgers so the
        // route is walked in place — no per-call route clone on this hot
        // path (every adaptation round calls this per changed conn).
        let Self { links, conns, .. } = self;
        let c = conns
            .get(id.index())
            .and_then(|c| c.as_ref())
            .precondition("set_conn_rate on unknown connection");
        let (b_min, b_max, old) = (c.qos.b_min, c.qos.b_max, c.b_current);
        assert!(
            rate >= b_min - 1e-9 && rate <= b_max + 1e-9,
            "rate {rate} outside [{b_min}, {b_max}]"
        );
        let rate = rate.clamp(b_min, b_max);
        let mut done = 0;
        for l in &c.route.links {
            match links[l.index()].set_alloc(id, rate) {
                Ok(()) => done += 1,
                Err(e) => {
                    for l in &c.route.links[..done] {
                        links[l.index()]
                            .set_alloc(id, old)
                            .invariant("rollback of rate change");
                    }
                    return Err((*l, e));
                }
            }
        }
        let c = conns
            .get_mut(id.index())
            .and_then(|c| c.as_mut())
            .invariant("checked above");
        c.b_current = rate;
        let p = c.portable;
        self.note_changed(p);
        Ok(())
    }

    /// Tear down a live connection — completed or dropped, the network
    /// keeps no record of which — releasing all its links and retiring
    /// its record. A no-op on an id that is not live.
    pub fn finish(&mut self, id: ConnId) {
        let Some(c) = self.conns.get_mut(id.index()).and_then(Option::take) else {
            return;
        };
        self.note_changed(c.portable);
        self.release_route_links(id, &c.route.links);
        Self::unindex(&mut self.portable_conns, c.portable, id);
    }

    /// Verify every link ledger and the link↔connection index agree with
    /// the connection table, and that the portable↔connection index is
    /// exactly the table grouped by portable; used by integration and
    /// property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, l) in self.links.iter().enumerate() {
            l.check_invariants()
                .map_err(|e| format!("link l{i}: {e}"))?;
            // Compared in place: the sweep runs under `debug_assert!` after
            // every manager event, so its passing path allocates nothing.
            if !l
                .allocs()
                .map(|(c, _)| c)
                .eq(self.link_conns[i].iter().copied())
            {
                let from_ledger: Vec<ConnId> = l.allocs().map(|(c, _)| c).collect();
                return Err(format!(
                    "link l{i}: ledger conns {:?} != index {:?}",
                    from_ledger, self.link_conns[i]
                ));
            }
            if self.link_conns[i].windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "link l{i}: membership index not strictly sorted: {:?}",
                    self.link_conns[i]
                ));
            }
            // A row outlives no record: callers walk `conn_ids_on_link`
            // and look each id up without a liveness test.
            let here = LinkId::from_index(i);
            let routed = |c: &ConnId| self.get(*c).is_some_and(|c| c.route.links.contains(&here));
            if let Some(c) = self.link_conns[i].iter().find(|c| !routed(c)) {
                return Err(format!(
                    "link l{i}: holds {c:?}, which is not routed over it"
                ));
            }
        }
        for c in self.live_connections() {
            for l in &c.route.links {
                if self.links[l.index()].alloc(c.id).is_none() {
                    return Err(format!("live {:?} missing from {:?}", c.id, l));
                }
            }
            let indexed = self
                .portable_conns
                .get(&c.portable)
                .is_some_and(|ids| ids.binary_search(&c.id).is_ok());
            if !indexed {
                return Err(format!(
                    "live {:?} missing from the index of {:?}",
                    c.id, c.portable
                ));
            }
        }
        for (p, ids) in &self.portable_conns {
            if ids.is_empty() || ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "{p:?}: index entry empty or not strictly sorted: {ids:?}"
                ));
            }
            for id in ids {
                if self.get(*id).map(|c| c.portable) != Some(*p) {
                    return Err(format!("{p:?}: index names {id:?}, which is not its own"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowspec::QosRequest;
    use crate::ids::{CellId, NodeId};
    use crate::routing::shortest_path;
    use arm_sim::SimTime;

    /// Two cells joined by one switch; backbone links of 10 Mbps.
    fn two_cell_net() -> (Network, CellId, CellId) {
        let mut t = Topology::new();
        let sw = t.add_switch("sw");
        let c0 = t.add_cell("c0", 1600.0, 0.0);
        let c1 = t.add_cell("c1", 1600.0, 0.0);
        t.add_wired_duplex(sw, t.base_station(c0), 10_000.0, 0.0);
        t.add_wired_duplex(sw, t.base_station(c1), 10_000.0, 0.0);
        (Network::new(t), c0, c1)
    }

    fn make_conn(net: &mut Network, cell: CellId, remote_cell: CellId, qos: QosRequest) -> ConnId {
        let id = net.next_conn_id();
        let route = shortest_path(
            net.topology(),
            net.topology().air_node(cell),
            net.topology().air_node(remote_cell),
        )
        .unwrap();
        let conn = Connection::new(
            id,
            PortableId(0),
            cell,
            NodeId(0),
            qos,
            route,
            SimTime::ZERO,
        );
        net.install(conn);
        id
    }

    #[test]
    fn reserve_and_release_route() {
        let (mut net, c0, c1) = two_cell_net();
        let id = make_conn(&mut net, c0, c1, QosRequest::bandwidth(100.0, 400.0));
        let route = net.get(id).unwrap().route.clone();
        let buffers = vec![1.0; route.links.len()];
        net.reserve_route(id, &route, 100.0, &buffers, false)
            .unwrap();
        assert!(net.check_invariants().is_ok());
        let wl = net.topology().wireless_link(c0);
        assert_eq!(net.link(wl).sum_b_min(), 100.0);
        assert_eq!(net.conn_ids_on_link(wl).len(), 1);

        net.release_route(id, &route);
        assert_eq!(net.link(wl).sum_b_min(), 0.0);
        assert_eq!(net.conn_ids_on_link(wl).len(), 0);
        // release_route is mechanical; the caller retires the record
        // before the network is consistent again.
        assert!(net.check_invariants().is_err());
        net.finish(id);
        assert!(net.check_invariants().is_ok());
    }

    /// Install a connection with an explicit route (e.g. a local flow that
    /// only consumes its own cell's medium).
    fn make_conn_on_route(
        net: &mut Network,
        cell: CellId,
        route: Route,
        qos: QosRequest,
    ) -> ConnId {
        let id = net.next_conn_id();
        let conn = Connection::new(
            id,
            PortableId(1),
            cell,
            NodeId(0),
            qos,
            route,
            SimTime::ZERO,
        );
        net.install(conn);
        id
    }

    /// A route consuming only the given cell's wireless medium.
    fn local_route(net: &Network, cell: CellId) -> Route {
        Route {
            nodes: vec![
                net.topology().air_node(cell),
                net.topology().base_station(cell),
            ],
            links: vec![net.topology().wireless_link(cell)],
        }
    }

    #[test]
    fn reserve_rolls_back_on_failure() {
        let (mut net, c0, c1) = two_cell_net();
        // Fill the destination cell's medium so the last hop fails.
        let froute = local_route(&net, c1);
        let filler = make_conn_on_route(&mut net, c1, froute.clone(), QosRequest::fixed(1600.0));
        net.reserve_route(filler, &froute, 1600.0, &[0.0], false)
            .unwrap();

        let id = make_conn(&mut net, c0, c1, QosRequest::fixed(100.0));
        let route = net.get(id).unwrap().route.clone();
        let err = net
            .reserve_route(id, &route, 100.0, &vec![0.0; route.links.len()], false)
            .unwrap_err();
        assert_eq!(err.0, net.topology().wireless_link(c1));
        // First hops were rolled back.
        let wl0 = net.topology().wireless_link(c0);
        assert_eq!(net.link(wl0).sum_b_min(), 0.0);
        assert_eq!(net.conn_ids_on_link(wl0).len(), 0);
        // The caller records the admission failure.
        assert!(net.check_invariants().is_err());
        net.mark_blocked(id);
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn rate_changes_apply_everywhere() {
        let (mut net, c0, c1) = two_cell_net();
        let id = make_conn(&mut net, c0, c1, QosRequest::bandwidth(100.0, 800.0));
        let route = net.get(id).unwrap().route.clone();
        net.reserve_route(id, &route, 100.0, &vec![0.0; route.links.len()], false)
            .unwrap();
        let mut changed = Vec::new();
        assert!(
            net.drain_changed_portables(&mut changed),
            "a new network is unseen"
        );
        net.set_conn_rate(id, 500.0).unwrap();
        assert_eq!(net.get(id).unwrap().b_current, 500.0);
        for l in &route.links {
            assert_eq!(net.link(*l).alloc(id).unwrap().b_alloc, 500.0);
        }
        assert!(net.check_invariants().is_ok());
        // A re-rate, and a record handed out for writing, name its
        // portable; a read does not.
        assert!(!net.drain_changed_portables(&mut changed));
        assert_eq!(changed, [PortableId(0)]);
        let _ = net.get(id);
        assert!(!net.drain_changed_portables(&mut changed));
        assert!(changed.is_empty());
        net.get_mut(id).unwrap().qos.b_min = 200.0;
        net.get_mut(id).unwrap().qos.b_min = 100.0;
        assert!(!net.drain_changed_portables(&mut changed));
        assert_eq!(changed, [PortableId(0)], "recorded once, however often");
        // A copy cannot be taken for the network a reader last drained.
        let mut copy = net.clone();
        assert!(copy.drain_changed_portables(&mut changed));
        assert!(!copy.drain_changed_portables(&mut changed));
        assert!(!net.drain_changed_portables(&mut changed));
    }

    #[test]
    fn rate_change_rolls_back_on_narrow_link() {
        let (mut net, c0, c1) = two_cell_net();
        let a = make_conn(&mut net, c0, c1, QosRequest::bandwidth(100.0, 1600.0));
        let route_a = net.get(a).unwrap().route.clone();
        net.reserve_route(a, &route_a, 100.0, &vec![0.0; route_a.links.len()], false)
            .unwrap();
        // A second connection inside cell 1 consumes most of that medium.
        let route_b = local_route(&net, c1);
        let b = make_conn_on_route(&mut net, c1, route_b.clone(), QosRequest::fixed(1400.0));
        net.reserve_route(b, &route_b, 1400.0, &[0.0], false)
            .unwrap();
        // Raising a to 300 exceeds cell 1's medium (1400 + 300 > 1600).
        let err = net.set_conn_rate(a, 300.0).unwrap_err();
        assert_eq!(err.0, net.topology().wireless_link(c1));
        // Rolled back to 100 everywhere.
        assert_eq!(net.get(a).unwrap().b_current, 100.0);
        for l in &route_a.links {
            assert_eq!(net.link(*l).alloc(a).unwrap().b_alloc, 100.0);
        }
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn finish_releases_and_marks() {
        let (mut net, c0, c1) = two_cell_net();
        let id = make_conn(&mut net, c0, c1, QosRequest::fixed(100.0));
        let route = net.get(id).unwrap().route.clone();
        net.reserve_route(id, &route, 100.0, &vec![0.0; route.links.len()], false)
            .unwrap();
        net.finish(id);
        assert!(net.get(id).is_none());
        assert_eq!(net.live_connections().count(), 0);
        let wl = net.topology().wireless_link(c0);
        assert_eq!(net.link(wl).sum_b_min(), 0.0);
        // Idempotent.
        net.finish(id);
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn a_retired_id_is_never_reissued() {
        let (mut net, c0, c1) = two_cell_net();
        let done = make_conn(&mut net, c0, c1, QosRequest::fixed(100.0));
        let refused = make_conn(&mut net, c0, c1, QosRequest::fixed(40.0));
        net.finish(done);
        net.mark_blocked(refused);
        assert!(net.get(done).is_none() && net.get(refused).is_none());
        assert!(net.get_mut(done).is_none());
        assert!(net.connections_of_portable(PortableId(0)).next().is_none());
        let next = make_conn(&mut net, c0, c1, QosRequest::fixed(10.0));
        assert_eq!(next, ConnId::from_index(2));
        let route = net.get(next).unwrap().route.clone();
        net.reserve_route(next, &route, 10.0, &vec![0.0; route.links.len()], false)
            .unwrap();
        assert_eq!(
            net.live_connections().map(|c| c.id).collect::<Vec<_>>(),
            [next]
        );
        assert!(net.check_invariants().is_ok());
        // A decoded table continues the same sequence.
        let mut back = Network::from_value(&net.to_value()).unwrap();
        assert_eq!(back.next_conn_id(), ConnId::from_index(3));
    }

    #[test]
    fn per_portable_queries_follow_the_index() {
        let (mut net, c0, c1) = two_cell_net();
        let id = make_conn(&mut net, c0, c1, QosRequest::fixed(100.0));
        let route = net.get(id).unwrap().route.clone();
        net.reserve_route(id, &route, 100.0, &vec![0.0; route.links.len()], false)
            .unwrap();
        let of = |net: &Network, p: u32| -> Vec<ConnId> {
            net.connections_of_portable(PortableId(p))
                .map(|c| c.id)
                .collect()
        };
        assert_eq!(of(&net, 0), vec![id]);
        assert!(of(&net, 9).is_empty());
        // A refused sibling leaves the index with its record.
        let refused = make_conn(&mut net, c0, c1, QosRequest::fixed(40.0));
        assert_eq!(of(&net, 0), vec![id, refused]);
        net.mark_blocked(refused);
        assert_eq!(of(&net, 0), vec![id]);
        assert!(net.check_invariants().is_ok());
        net.finish(id);
        assert!(of(&net, 0).is_empty());
        assert!(net.portable_conns.is_empty());
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_a_portable_index_that_disagrees_with_the_table() {
        let (mut net, c0, c1) = two_cell_net();
        let id = make_conn(&mut net, c0, c1, QosRequest::fixed(100.0));
        let route = net.get(id).unwrap().route.clone();
        net.reserve_route(id, &route, 100.0, &vec![0.0; route.links.len()], false)
            .unwrap();
        assert!(net.check_invariants().is_ok());
        // A live connection the index has lost.
        let mut lost = net.clone();
        lost.portable_conns.clear();
        let err = lost.check_invariants().unwrap_err();
        assert!(err.contains("missing from the index"), "{err}");
        // An entry filed under somebody else.
        let mut misfiled = net.clone();
        misfiled.portable_conns.insert(PortableId(7), vec![id]);
        let err = misfiled.check_invariants().unwrap_err();
        assert!(err.contains("not its own"), "{err}");
        // An entry that outlived its record: the index must equal the
        // table, so a stale id is an error, not a tolerated leftover.
        let mut stale = net.clone();
        stale.conns[id.index()] = None;
        stale.release_route(id, &route);
        let err = stale.check_invariants().unwrap_err();
        assert!(err.contains("not its own"), "{err}");
        // The record's portable rewritten under the index.
        net.get_mut(id).unwrap().portable = PortableId(3);
        assert!(net.check_invariants().is_err());
    }

    #[test]
    fn decode_rebuilds_the_portable_index_and_never_reads_one() {
        let (mut net, c0, c1) = two_cell_net();
        let a = make_conn(&mut net, c0, c1, QosRequest::fixed(100.0));
        let route = net.get(a).unwrap().route.clone();
        net.reserve_route(a, &route, 100.0, &vec![0.0; route.links.len()], false)
            .unwrap();
        let b = make_conn(&mut net, c1, c0, QosRequest::fixed(50.0));
        net.finish(b);
        let mut doc = net.to_value();
        let back = Network::from_value(&doc).unwrap();
        assert_eq!(back.portable_conns, net.portable_conns);
        assert_eq!(back.portable_conns[&PortableId(0)], vec![a]);
        assert_eq!(back.to_value(), doc);
        // A document that carries an index of its own is not believed.
        let serde::Value::Object(fields) = &mut doc else {
            panic!("a network encodes as an object");
        };
        let forged: BTreeMap<PortableId, Vec<ConnId>> = [(PortableId(5), vec![b])].into();
        fields.push(("portable_conns".to_string(), forged.to_value()));
        let back = Network::from_value(&doc).unwrap();
        assert_eq!(back.portable_conns, net.portable_conns);
        assert!(back.check_invariants().is_ok());
    }
}
