//! Precomputed uplink paths with per-slot bottleneck analysis.
//!
//! A [`TopologyPathCache`] is built once from a [`Topology`] and holds
//! the shortest uplink path of every cell (air node → server): one
//! Dijkstra per cell. Admission and every handoff then ask the cache,
//! rather than re-running Dijkstra per request, *which links does this
//! transfer cross* — and ask the [`SlottedSchedule`] what the tightest
//! of those links still has free in each slot of the window.
//!
//! Cell-to-cell (air → air) paths are **not** cached: only
//! `ResourceManager::book_co_allocation` wants one, a booking is rare,
//! and the all-pairs table cost one Dijkstra per ordered pair (3,906
//! on the 63-cell wing) at every construction and restore. The booking
//! calls `shortest_path` itself.
//!
//! The cache is **not** snapshotted: it is a pure function of the
//! static topology and is rebuilt wherever the topology is already in
//! hand (manager construction and snapshot restore), keeping the
//! calendar snapshot small and trivially stable.

use std::collections::BTreeMap;

use arm_net::ids::{CellId, LinkId, NodeId};
use arm_net::routing::{shortest_path, Route};
use arm_net::topology::Topology;

use crate::schedule::{SlotIndex, SlottedSchedule};

/// Precomputed uplink paths over a static topology. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyPathCache {
    /// Cell → its air-to-server route (wireless hop first). Cells with
    /// no route to the server are absent.
    uplinks: BTreeMap<CellId, Route>,
}

impl TopologyPathCache {
    /// Precompute the uplink path of every cell of `topo`, terminating
    /// at `server`.
    pub fn build(topo: &Topology, server: NodeId) -> Self {
        let uplinks = topo
            .cells()
            .filter_map(|(c, _)| Some((c, shortest_path(topo, topo.air_node(c), server)?)))
            .collect();
        TopologyPathCache { uplinks }
    }

    /// The cached air-to-server path of a cell (wireless hop first), or
    /// `None` if the cell cannot reach the server.
    pub fn uplink(&self, cell: CellId) -> Option<&[LinkId]> {
        self.uplinks.get(&cell).map(|r| r.links.as_slice())
    }

    /// The cached air-to-server route of a cell: exactly what
    /// `shortest_path(topo, topo.air_node(cell), server)` returns, since
    /// that call built it and the topology is static.
    pub fn uplink_route(&self, cell: CellId) -> Option<&Route> {
        self.uplinks.get(&cell)
    }

    /// Number of cached uplink paths.
    pub fn uplink_count(&self) -> usize {
        self.uplinks.len()
    }

    /// Per-slot bottleneck: the smallest headroom any link of `path`
    /// has in any slot of `[start, end)` according to `sched`. This is
    /// the largest rate a fixed (non-moldable) booking could carry
    /// across the whole path for the whole window. Links the schedule
    /// has no capacity for are unconstrained (`∞`); an empty path or
    /// empty window is unconstrained too.
    pub fn bottleneck(
        &self,
        sched: &SlottedSchedule,
        path: &[LinkId],
        start: SlotIndex,
        end: SlotIndex,
    ) -> f64 {
        let mut min = f64::INFINITY;
        for &link in path {
            for slot in start..end {
                let h = sched.headroom(slot, link);
                // `f64::min` is NaN-propagation-safe here: headroom is
                // capacity minus a finite fold, never NaN.
                min = min.min(h);
            }
        }
        min
    }

    /// The largest rate assignable along the whole path over the
    /// window, floored at zero (a path already overbooked in some slot
    /// — possible after capacity re-registration — offers nothing
    /// rather than a negative rate).
    pub fn max_assignable(
        &self,
        sched: &SlottedSchedule,
        path: &[LinkId],
        start: SlotIndex,
        end: SlotIndex,
    ) -> f64 {
        self.bottleneck(sched, path, start, end).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ResvOrigin;

    /// Two cells hanging off one switch:
    ///
    /// ```text
    /// air0 ═ w0 ═ bs0 ─ l0 ─ switch ─ l1 ─ bs1 ═ w1 ═ air1
    /// ```
    fn two_cell_topo() -> (Topology, NodeId, [CellId; 2]) {
        let mut topo = Topology::new();
        let sw = topo.add_switch("sw");
        let c0 = topo.add_cell("c0", 2000.0, 0.01);
        let c1 = topo.add_cell("c1", 1000.0, 0.01);
        topo.add_wired_duplex(topo.base_station(c0), sw, 10_000.0, 0.0);
        topo.add_wired_duplex(topo.base_station(c1), sw, 10_000.0, 0.0);
        (topo, sw, [c0, c1])
    }

    #[test]
    fn caches_uplinks() {
        let (topo, sw, [c0, c1]) = two_cell_topo();
        let cache = TopologyPathCache::build(&topo, sw);
        assert_eq!(cache.uplink_count(), 2);
        let up = cache.uplink(c0).expect("c0 reaches the server");
        assert_eq!(up.first().copied(), Some(topo.wireless_link(c0)));
        assert_eq!(up.len(), 2, "wireless hop + wired hop");
        assert_eq!(
            cache.uplink_route(c1),
            shortest_path(&topo, topo.air_node(c1), sw).as_ref(),
            "the cached route is the one Dijkstra returns"
        );
    }

    #[test]
    fn bottleneck_tracks_schedule_headroom() {
        let (topo, sw, [c0, c1]) = two_cell_topo();
        let cache = TopologyPathCache::build(&topo, sw);
        let mut sched = SlottedSchedule::new();
        // Register capacities for every link on the c0→c1 path.
        let path = shortest_path(&topo, topo.air_node(c0), topo.air_node(c1))
            .expect("path")
            .links;
        assert_eq!(path.len(), 4);
        for &l in &path {
            sched.set_capacity(l, topo.link(l).capacity);
        }
        // Untouched: the tightest pipe is c1's 1000 kbps medium.
        assert_eq!(cache.bottleneck(&sched, &path, 0, 4), 1000.0);
        // Book 600 on that medium in slots [1, 3): bottleneck drops.
        sched
            .request(
                topo.wireless_link(c1),
                1,
                3,
                600.0,
                ResvOrigin::BulkTransfer,
            )
            .expect("fits");
        assert_eq!(cache.bottleneck(&sched, &path, 0, 4), 400.0);
        assert_eq!(cache.bottleneck(&sched, &path, 3, 4), 1000.0);
        assert_eq!(cache.max_assignable(&sched, &path, 0, 4), 400.0);
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let (topo, sw, _) = two_cell_topo();
        let cache = TopologyPathCache::build(&topo, sw);
        let sched = SlottedSchedule::new();
        assert_eq!(cache.bottleneck(&sched, &[], 0, 10), f64::INFINITY);
    }
}
