//! Incremental maxmin re-solve with churn-aware caching.
//!
//! Every admission, departure, handoff, and link event used to rebuild
//! the whole maxmin problem and re-run progressive filling over all
//! links and connections. Explicit-rate schemes (the paper's §5.3.1,
//! Charny-style allocation) avoid that by keeping per-link state
//! resident and only reworking what an event touched. This module is
//! the centralized analogue: an engine that keeps the problem and its
//! solved allocation resident between events as one slot-indexed
//! `DenseState`, marks links *dirty* on each mutation, and on
//! [`IncrementalMaxmin::resolve`] re-runs water-filling restricted to
//! the dirty region's transitive closure — connections sharing a dirty
//! link, links those connections traverse, to a fixed point — reusing
//! frozen rates everywhere else.
//! The paper's bottleneck sets `M(l)` are not kept: a switch advertises
//! from `M(l)`, this engine recomputes, and nothing reads them
//! ([`distributed`](super::distributed) derives them where the protocol
//! needs them).
//!
//! ## Why the partial re-solve is exact (and bit-identical)
//!
//! The transitive closure of a dirty link is precisely the connected
//! component of the bipartite link/connection sharing graph containing
//! it. Distinct components share no links, so one component's
//! allocations never appear in another's headroom sums: progressive
//! filling factors exactly across components. [`MaxminProblem::solve`]
//! itself is implemented as per-component runs of
//! `DenseState::solve_component_dense`, and the engine re-runs *that
//! same routine* on the same inputs — so after any event sequence the
//! resident allocation is byte-for-byte the allocation a from-scratch
//! solve would produce. The differential property test in
//! `crates/qos/tests/incremental_prop.rs` checks this on random event
//! sequences, and the chaos test in `crates/core/tests/chaos.rs` checks
//! it end-to-end through the resource manager under link failures.
//!
//! ## A cache, not state
//!
//! That equivalence is also why the engine is never persisted: the
//! round that uses it ([`crate::conflict::resolve_network`]) diff-syncs
//! it against the network first, so an empty engine and a warm one end
//! the round holding the same bits. A restored manager starts from
//! [`IncrementalMaxmin::new`]; its network is decoded, so its first
//! round takes every connection as a candidate and fills every
//! component once (DESIGN.md §7, §10.2). With no wire format to feed, every datum
//! lives in exactly one place and every mutator writes it once.
//!
//! ## Churn-aware caching
//!
//! Mutators only mark dirty on a *genuine* change: setting a link's
//! excess to the value it already has, or re-upserting a connection with
//! identical demand bits and route, is a no-op. A resolve with an empty
//! dirty set leaves the resident allocation untouched (a cache hit).

use arm_net::ids::{ConnId, LinkId};
use arm_net::{Connection, Network};

use super::centralized::{CompScratch, DenseState, MaxminProblem, SolveScratch};

/// Counters describing how much work the engine has saved. Purely
/// informational; exposed for benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Resolves that found a non-empty dirty set.
    pub incremental_solves: u64,
    /// Resolves that returned the resident allocation untouched.
    pub cache_hits: u64,
    /// Connections re-filled across all incremental solves.
    pub conns_resolved: u64,
    /// Connections whose frozen rate was reused (registered minus
    /// re-filled, summed over incremental solves).
    pub conns_reused: u64,
    /// Connections the syncs looked at ([`IncrementalMaxmin::sync_network`]'s
    /// candidates, which an adaptation round's pin walks too).
    pub conns_synced: u64,
}

/// Mark `link` in the sorted dirty list (no-op when present).
fn mark(dirty: &mut Vec<LinkId>, link: LinkId) {
    if let Err(at) = dirty.binary_search(&link) {
        dirty.insert(at, link);
    }
}

/// Resident incremental maxmin solver (see module docs).
///
/// The `DenseState` arrays *are* the engine's state — capacities,
/// demands, routes, the reverse member index and the solved allocation,
/// each held once, in the flat slot-indexed layout the kernel runs on.
/// Steady-state resolves walk those arrays with epoch-stamped visited
/// sets and allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct IncrementalMaxmin {
    /// The problem and its resident allocation (current for every
    /// component no dirty link reaches).
    state: DenseState,
    /// Links whose region must be re-filled at the next resolve,
    /// ascending and without repeats: a sorted `Vec` keeps its capacity
    /// across resolves, where a set would allocate a node at the first
    /// mark of each.
    dirty: Vec<LinkId>,
    /// Work-saved counters.
    pub stats: EngineStats,
    /// BFS scratch for the dirty-region closure walk.
    bfs: CompScratch,
    /// Water-filling scratch, resident across resolves.
    scratch: SolveScratch,
    /// The connections a sync drops, resident across syncs.
    gone: Vec<ConnId>,
}

impl IncrementalMaxmin {
    /// An empty engine: no links, no connections, clean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every registered connection with its solved excess rate, in
    /// ascending `ConnId` order. Only current when [`Self::is_dirty`] is
    /// false; call [`Self::resolve`] first otherwise.
    pub fn rates(&self) -> impl Iterator<Item = (ConnId, f64)> + '_ {
        let alloc = &self.state.alloc;
        self.state
            .conns
            .iter()
            .map(|(id, c)| (id, alloc[c as usize]))
    }

    /// Does the engine have pending invalidations?
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Number of registered connections.
    pub fn conn_count(&self) -> usize {
        self.state.conns.len()
    }

    /// The links whose region is pending a re-fill.
    pub fn dirty_links(&self) -> &[LinkId] {
        &self.dirty
    }

    /// The solved excess rate of one connection. Only current when
    /// [`Self::is_dirty`] is false; resolve first otherwise.
    pub fn rate(&self, id: ConnId) -> Option<f64> {
        let c = self.state.conns.get(id)?;
        Some(self.state.alloc[c as usize])
    }

    /// Set a link's excess capacity, dirtying it only if the value
    /// actually changed (exact compare — churn-aware caching).
    pub fn set_link_excess(&mut self, link: LinkId, excess: f64) {
        let s = &self.state;
        let unchanged = s.links.get(link).is_some_and(|l| {
            s.has_excess[l as usize] && s.excess[l as usize].to_bits() == excess.to_bits()
        });
        if !unchanged {
            self.state.set_excess(link, excess);
            mark(&mut self.dirty, link);
        }
    }

    /// Drop a link's capacity entry, dirtying every connection that
    /// traversed it (they become unconstrained there, as in
    /// [`MaxminProblem`] semantics for unknown links).
    ///
    /// Dirtying is unconditional: a link that never had an excess entry
    /// can still sit on registered routes (it only ever appeared in
    /// upserted routes), so the traversing connections' region must be
    /// re-filled regardless.
    pub fn remove_link(&mut self, link: LinkId) {
        self.state.remove_excess(link);
        mark(&mut self.dirty, link);
    }

    /// Insert or update a connection. A re-upsert with bit-identical
    /// demand and an equal route is a no-op; otherwise the old and new
    /// routes' links are dirtied.
    pub fn upsert_conn(&mut self, id: ConnId, demand: f64, links: &[LinkId]) {
        let s = &self.state;
        if let Some(c) = s.conns.get(id) {
            let route = s.routes[c as usize].iter().map(|l| s.links.external(*l));
            if s.demand[c as usize].to_bits() == demand.to_bits() && route.eq(links.iter().copied())
            {
                return;
            }
            self.remove_conn(id);
        }
        for l in links {
            mark(&mut self.dirty, *l);
        }
        self.state.add_conn(id, demand, links);
    }

    /// Remove a connection, dirtying its route's links.
    pub fn remove_conn(&mut self, id: ConnId) {
        let Some(c) = self.state.conns.get(id) else {
            return;
        };
        let s = &self.state;
        for l in &s.routes[c as usize] {
            mark(&mut self.dirty, s.links.external(*l));
        }
        self.state.remove_conn(id);
    }

    /// Re-fill the dirty region, leaving the resident allocation
    /// current ([`Self::rates`], [`Self::rate`]). Each dirty link's
    /// transitive closure — one connected component of the sharing
    /// graph — is re-run through the dense water-filling kernel
    /// (`DenseState::solve_component_dense`, bit-identical to the
    /// [`centralized::solve_component`](super::centralized::solve_component)
    /// reference); everything else keeps its frozen rate. Steady-state
    /// resolves allocate nothing: the BFS and kernel run on resident
    /// epoch-stamped scratch over the flat arrays.
    pub fn resolve(&mut self) {
        if self.dirty.is_empty() {
            self.stats.cache_hits += 1;
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut resolved = 0usize;
        self.bfs
            .begin(self.state.links.slot_count(), self.state.conns.slot_count());
        for seed in &dirty {
            // A link the engine never learned about has an empty closure.
            let Some(seed_slot) = self.state.links.get(*seed) else {
                continue;
            };
            self.state.component_of(seed_slot, &mut self.bfs);
            if self.bfs.comp.is_empty() {
                continue;
            }
            let mut comp = std::mem::take(&mut self.bfs.comp);
            comp.sort_unstable_by_key(|s| self.state.conns.external(*s));
            resolved += comp.len();
            self.state.solve_component_dense(&comp, &mut self.scratch);
            comp.clear();
            self.bfs.comp = comp;
        }
        dirty.clear();
        self.dirty = dirty;
        self.stats.incremental_solves += 1;
        self.stats.conns_resolved += resolved as u64;
        self.stats.conns_reused += (self.state.conns.len() - resolved) as u64;
    }

    /// Diff the engine's inputs against the network's current ledgers:
    /// link excesses from every link, demand `b_max − b_min` and route
    /// from each live connection in `conns` accepted by `include`. Only
    /// genuine changes dirty anything, so calling this every epoch costs
    /// a walk but no re-solve work when nothing moved.
    ///
    /// `conns` (ascending) are the candidates: every connection whose
    /// demand, route or `include` verdict may differ from the last sync.
    /// Any other live connection is taken to be as that sync left it.
    /// With every live connection as a candidate this mirrors
    /// [`MaxminProblem::from_network`] filtered by `include`; a
    /// connection the engine holds that is gone or no longer accepted is
    /// dropped whether or not it is a candidate.
    pub fn sync_network(
        &mut self,
        net: &Network,
        conns: &[ConnId],
        include: &dyn Fn(&Connection) -> bool,
    ) {
        self.stats.conns_synced += conns.len() as u64;
        for (lid, link) in net.links() {
            self.set_link_excess(lid, link.excess_available().max(0.0));
        }
        // Prune capacity entries for links the network no longer has
        // (its link ids are dense) — without this, topology churn
        // accumulates stale capacity rows forever, and a stale row
        // constrains future solves with a phantom capacity.
        let link_count = net.topology().link_count();
        let s = &self.state;
        let gone_links: Vec<LinkId> = s
            .links
            .iter()
            .filter(|(l, slot)| l.index() >= link_count && s.has_excess[*slot as usize])
            .map(|(l, _)| l)
            .collect();
        for l in gone_links {
            self.remove_link(l);
        }
        let tracked = |c: &Connection| !c.route.links.is_empty() && include(c);
        for c in conns.iter().filter_map(|id| net.get(*id)) {
            if tracked(c) {
                self.upsert_conn(c.id, c.qos.adaptable_range(), &c.route.links);
            }
        }
        // Into a resident buffer: a static portable that moves leaves
        // the engine at the next round.
        let mut gone = std::mem::take(&mut self.gone);
        gone.clear();
        gone.extend(
            self.state
                .conns
                .iter()
                .map(|(id, _)| id)
                .filter(|id| !net.get(*id).is_some_and(tracked)),
        );
        for id in &gone {
            self.remove_conn(*id);
        }
        self.gone = gone;
    }

    /// Check the engine's structure (`DenseState::check_invariants`).
    /// Every mutator keeps it by construction; the proptests and the
    /// `arm-check` engine sweep assert it after every op.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.state.check_invariants()
    }

    /// Strike `link` from the dirty set without re-filling its region —
    /// the `arm-check` engine sweep's seeded mutant (a mutator that
    /// forgot its dirty mark; DESIGN.md §13.2). Nothing else may call
    /// it: the resident allocation is stale afterwards by design.
    #[doc(hidden)]
    pub fn forget_dirty_mark(&mut self, link: LinkId) {
        if let Ok(at) = self.dirty.binary_search(&link) {
            self.dirty.remove(at);
        }
    }

    /// A from-scratch [`MaxminProblem`] over the engine's current
    /// inputs — the bridge to the differential oracle.
    pub fn as_problem(&self) -> MaxminProblem {
        self.state.problem()
    }
}

#[cfg(test)]
mod tests {
    use super::super::centralized::Allocation;
    use super::*;

    fn lid(i: u32) -> LinkId {
        LinkId(i)
    }
    fn cid(i: u32) -> ConnId {
        ConnId(i)
    }
    fn rate(e: &IncrementalMaxmin, conn: u32) -> f64 {
        e.rate(cid(conn)).expect("registered conn")
    }

    fn assert_matches_fresh(e: &mut IncrementalMaxmin) {
        let fresh = e.as_problem().solve();
        e.resolve();
        let inc: Allocation = e.rates().collect();
        assert_eq!(fresh.len(), inc.len(), "key sets differ");
        for (c, x) in &fresh {
            let y = inc[c];
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{c:?}: fresh {x} != incremental {y}"
            );
        }
        assert!(e.as_problem().verify_maxmin(&inc).is_ok());
    }

    #[test]
    fn single_link_churn_matches_fresh_solve() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 30.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0)]);
        e.upsert_conn(cid(1), 100.0, &[lid(0)]);
        assert_matches_fresh(&mut e);
        assert!((rate(&e, 0) - 15.0).abs() < 1e-9);
        e.upsert_conn(cid(2), 100.0, &[lid(0)]);
        assert_matches_fresh(&mut e);
        assert!((rate(&e, 0) - 10.0).abs() < 1e-9);
        e.remove_conn(cid(1));
        assert_matches_fresh(&mut e);
        assert!((rate(&e, 2) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn untouched_component_is_reused_not_resolved() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.set_link_excess(lid(1), 20.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0)]);
        e.upsert_conn(cid(1), 100.0, &[lid(1)]);
        e.upsert_conn(cid(2), 100.0, &[lid(1)]);
        e.resolve();
        let stats0 = e.stats;
        // Churn only link 1's component.
        e.upsert_conn(cid(3), 100.0, &[lid(1)]);
        assert_matches_fresh(&mut e);
        let solved = e.stats.conns_resolved - stats0.conns_resolved;
        // The link-0 connection is frozen; only link-1's three re-fill.
        // (assert_matches_fresh resolves once more on a clean engine,
        // which is a cache hit and adds nothing.)
        assert_eq!(solved, 3, "stats: {:?}", e.stats);
        assert!(e.stats.conns_reused - stats0.conns_reused >= 1);
    }

    #[test]
    fn clean_resolve_is_a_cache_hit() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.upsert_conn(cid(0), 4.0, &[lid(0)]);
        e.resolve();
        let hits0 = e.stats.cache_hits;
        e.resolve();
        assert_eq!(e.stats.cache_hits, hits0 + 1);
        // Re-applying identical inputs does not dirty anything.
        e.set_link_excess(lid(0), 10.0);
        e.upsert_conn(cid(0), 4.0, &[lid(0)]);
        assert!(!e.is_dirty());
        e.resolve();
        assert_eq!(e.stats.cache_hits, hits0 + 2);
    }

    #[test]
    fn capacity_change_refills_the_region() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.set_link_excess(lid(1), 4.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0), lid(1)]);
        e.upsert_conn(cid(1), 100.0, &[lid(0)]);
        e.upsert_conn(cid(2), 100.0, &[lid(1)]);
        assert_matches_fresh(&mut e);
        assert!((rate(&e, 0) - 2.0).abs() < 1e-9);
        e.set_link_excess(lid(1), 12.0);
        assert_matches_fresh(&mut e);
        assert!(
            (rate(&e, 0) - 5.0).abs() < 1e-9,
            "{:?}",
            e.rates().collect::<Allocation>()
        );
        e.set_link_excess(lid(1), 0.0);
        assert_matches_fresh(&mut e);
        assert_eq!(rate(&e, 0), 0.0);
    }

    #[test]
    fn route_change_dirties_old_and_new_links() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.set_link_excess(lid(1), 6.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0)]);
        e.upsert_conn(cid(1), 100.0, &[lid(0)]);
        e.upsert_conn(cid(2), 100.0, &[lid(1)]);
        assert_matches_fresh(&mut e);
        // Handoff: conn 1 moves from link 0 to link 1.
        e.upsert_conn(cid(1), 100.0, &[lid(1)]);
        assert_matches_fresh(&mut e);
        assert!((rate(&e, 0) - 10.0).abs() < 1e-9);
        assert!((rate(&e, 1) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn remove_link_without_excess_entry_still_dirties_its_region() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        // Link 1 sits on the route but never got an excess entry
        // (unknown links impose no limit in problem semantics).
        e.upsert_conn(cid(0), 100.0, &[lid(0), lid(1)]);
        e.resolve();
        let solves0 = e.stats.incremental_solves;
        // Regression: removing a link the engine only knows through
        // routes used to skip the dirty mark (no excess entry to
        // remove), leaving conn 0's region stale.
        e.remove_link(lid(1));
        assert!(e.is_dirty(), "remove_link must dirty unconditionally");
        e.resolve();
        assert_eq!(e.stats.incremental_solves, solves0 + 1);
        assert_matches_fresh(&mut e);
    }

    fn net_with_cells(n: usize) -> Network {
        let mut t = arm_net::topology::Topology::new();
        let sw = t.add_switch("sw");
        for i in 0..n {
            let c = t.add_cell(format!("c{i}"), 1000.0, 0.0);
            t.add_wired_duplex(sw, t.base_station(c), 100_000.0, 0.0);
        }
        Network::new(t)
    }

    #[test]
    fn sync_network_round_trips_through_the_engine() {
        let net = net_with_cells(3);
        let mut e = IncrementalMaxmin::new();
        e.sync_network(&net, &[], &|_| true);
        let fresh = MaxminProblem::from_network(&net);
        assert_eq!(e.as_problem().link_excess, fresh.link_excess);
        e.resolve();
        assert_eq!(e.rates().collect::<Allocation>(), fresh.solve());
        e.check_invariants().unwrap();
    }

    #[test]
    fn sync_network_prunes_links_gone_from_the_network() {
        let big = net_with_cells(3);
        let small = net_with_cells(1);
        let mut e = IncrementalMaxmin::new();
        e.sync_network(&big, &[], &|_| true);
        assert!(e.as_problem().link_excess.len() > small.topology().link_count());
        // Regression: re-syncing against a network with fewer links
        // used to leave the extra links' excess entries resident
        // forever; they must be pruned so the engine's problem exactly
        // mirrors a from-scratch build over the current network.
        e.sync_network(&small, &[], &|_| true);
        let fresh = MaxminProblem::from_network(&small);
        assert_eq!(
            e.as_problem().link_excess.keys().collect::<Vec<_>>(),
            fresh.link_excess.keys().collect::<Vec<_>>(),
            "stale link_excess rows survived the sync"
        );
        e.check_invariants().unwrap();
    }

    /// The checker has teeth: each way a mutator could leave the one
    /// state out of step with itself is refused by name.
    #[test]
    fn check_invariants_rejects_a_corrupted_state() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0)]);
        e.upsert_conn(cid(1), 100.0, &[lid(0)]);
        e.resolve();
        e.check_invariants().unwrap();
        let link = e.state.links.get(lid(0)).unwrap() as usize;
        let conn = |c| e.state.conns.get(cid(c)).unwrap();
        let refusal = |bad: &IncrementalMaxmin| bad.check_invariants().unwrap_err();

        let mut bad = e.clone();
        bad.state.members[link] = vec![conn(1), conn(0)];
        assert!(refusal(&bad).contains("not ascending"), "{}", refusal(&bad));
        let mut bad = e.clone();
        bad.state.members[link] = vec![conn(0)];
        assert!(refusal(&bad).contains("absent from members"));
        let mut bad = e.clone();
        bad.state.routes[conn(1) as usize].clear();
        assert!(refusal(&bad).contains("not routed over it"));
        let mut bad = e.clone();
        bad.state.ensure_link(lid(3));
        assert!(refusal(&bad).contains("no capacity and no member"));
        let mut bad = e;
        bad.state.conns.release(cid(1));
        assert!(refusal(&bad).contains("not routed over it"));
    }
}
