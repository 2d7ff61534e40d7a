// Audited: every expect in this file is an `invariant:`/`precondition:`
// panic (see the arm-check `no-panic` lint).
#![allow(clippy::expect_used)]

//! Incremental maxmin re-solve with churn-aware caching.
//!
//! Every admission, departure, handoff, and link event used to rebuild
//! the whole maxmin problem and re-run progressive filling over all
//! links and connections. Explicit-rate schemes (the paper's §5.3.1,
//! Charny-style allocation) avoid that by keeping per-link bottleneck
//! sets `M(l)` resident and only reworking what an event touched. This
//! module is the centralized analogue: an engine that keeps the solved
//! [`Allocation`], the reverse `LinkId → [ConnId]` index, and per-link
//! bottleneck sets resident between events, marks links *dirty* on each
//! mutation, and on [`IncrementalMaxmin::resolve`] re-runs water-filling
//! restricted to the dirty region's transitive closure — connections
//! sharing a dirty link, links those connections traverse, to a fixed
//! point — reusing frozen rates everywhere else.
//!
//! ## Why the partial re-solve is exact (and bit-identical)
//!
//! The transitive closure of a dirty link is precisely the connected
//! component of the bipartite link/connection sharing graph containing
//! it. Distinct components share no links, so one component's
//! allocations never appear in another's headroom sums: progressive
//! filling factors exactly across components. [`MaxminProblem::solve`]
//! itself is implemented as per-component runs of
//! [`solve_component`](centralized::solve_component), and the engine
//! re-runs *that same routine* on the same inputs — so after any event
//! sequence the resident allocation is byte-for-byte the allocation a
//! from-scratch solve would produce. The differential property test in
//! `crates/qos/tests/incremental_prop.rs` checks this on random event
//! sequences, and the chaos test in `crates/core/tests/chaos.rs` checks
//! it end-to-end through the resource manager under link failures.
//!
//! ## Churn-aware caching
//!
//! Mutators only mark dirty on a *genuine* change: setting a link's
//! excess to the value it already has, or re-upserting a connection with
//! identical demand bits and route, is a no-op. A resolve with an empty
//! dirty set returns the resident allocation untouched (a cache hit).

use std::collections::{BTreeMap, BTreeSet};

use arm_net::ids::{ConnId, LinkId};
use arm_net::{Connection, Network};
use serde::{Deserialize, Serialize};

use super::centralized::{
    link_index, Allocation, CompScratch, ConnDemand, DenseState, MaxminProblem, SolveScratch,
};

/// Counters describing how much work the engine has saved. Purely
/// informational; exposed for benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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
}

/// Resident incremental maxmin solver (see module docs).
///
/// The sparse `BTreeMap` fields are the *authoritative* (and serialized)
/// state; the [`DenseState`] mirror and the solver scratches are derived,
/// maintained in place by every mutator, and rebuilt wholesale by the
/// first resolve after a restore. Steady-state resolves run entirely on
/// the mirror: flat slot-indexed arrays, epoch-stamped visited sets, no
/// per-event allocation.
#[derive(Clone, Debug, Default)]
pub struct IncrementalMaxmin {
    /// Excess capacity per link, mirroring `MaxminProblem::link_excess`.
    link_excess: BTreeMap<LinkId, f64>,
    /// Demand side, mirroring `MaxminProblem::conns`.
    conns: BTreeMap<ConnId, ConnDemand>,
    /// Reverse index: connections traversing each link, ascending.
    index: BTreeMap<LinkId, Vec<ConnId>>,
    /// The resident solved allocation (valid when `dirty` is empty).
    alloc: Allocation,
    /// Per-link bottleneck sets `M(l)`: connections frozen by that
    /// link's saturation in the last solve touching it.
    bottleneck: BTreeMap<LinkId, BTreeSet<ConnId>>,
    /// Links whose region must be re-filled at the next resolve.
    dirty: BTreeSet<LinkId>,
    /// Work-saved counters.
    pub stats: EngineStats,
    /// Dense slot-indexed twin of the sparse fields (never serialized).
    mirror: DenseState,
    /// Set on restore, when the sparse fields arrive without a mirror;
    /// the next resolve rebuilds it wholesale.
    mirror_stale: bool,
    /// BFS scratch for the dirty-region closure walk.
    bfs: CompScratch,
    /// Water-filling scratch, resident across resolves.
    scratch: SolveScratch,
    /// Connections re-filled by the most recent resolve (none on a cache
    /// hit), ascending within each component. A read-out for benches
    /// and the engine model; the conflict resolver compares every
    /// connection with its ledger and does not read it.
    last_resolved: Vec<ConnId>,
}

// Snapshot support. Manual impls because the dense mirror and scratches
// are derived state: only the sparse maps are written (same fields, same
// order, same encoding as the previous derive — snapshot bytes and
// schema fingerprints unchanged), and restore marks the mirror stale so
// the first resolve rebuilds it from the maps.
impl Serialize for IncrementalMaxmin {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("link_excess".to_string(), self.link_excess.to_value()),
            ("conns".to_string(), self.conns.to_value()),
            ("index".to_string(), self.index.to_value()),
            ("alloc".to_string(), self.alloc.to_value()),
            ("bottleneck".to_string(), self.bottleneck.to_value()),
            ("dirty".to_string(), self.dirty.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

impl Deserialize for IncrementalMaxmin {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("IncrementalMaxmin: expected object"))?;
        Ok(IncrementalMaxmin {
            link_excess: serde::from_field(obj, "link_excess", "IncrementalMaxmin")?,
            conns: serde::from_field(obj, "conns", "IncrementalMaxmin")?,
            index: serde::from_field(obj, "index", "IncrementalMaxmin")?,
            alloc: serde::from_field(obj, "alloc", "IncrementalMaxmin")?,
            bottleneck: serde::from_field(obj, "bottleneck", "IncrementalMaxmin")?,
            dirty: serde::from_field(obj, "dirty", "IncrementalMaxmin")?,
            stats: serde::from_field(obj, "stats", "IncrementalMaxmin")?,
            mirror: DenseState::default(),
            mirror_stale: true,
            bfs: CompScratch::default(),
            scratch: SolveScratch::default(),
            last_resolved: Vec::new(),
        })
    }
}

impl IncrementalMaxmin {
    /// An empty engine: no links, no connections, clean.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resident allocation. Only current when [`Self::is_dirty`] is
    /// false; call [`Self::resolve`] first otherwise.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// Connections frozen by `link`'s saturation in the last solve that
    /// touched it — the resident bottleneck set `M(l)`.
    pub fn bottleneck_set(&self, link: LinkId) -> Option<&BTreeSet<ConnId>> {
        self.bottleneck.get(&link)
    }

    /// Does the engine have pending invalidations?
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Number of registered connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The resident excess-capacity map, mirroring
    /// `MaxminProblem::link_excess`. Exposed for differential tests that
    /// compare the engine's maps against a from-scratch build.
    pub fn link_excess_map(&self) -> &BTreeMap<LinkId, f64> {
        &self.link_excess
    }

    /// All resident per-link bottleneck sets `M(l)`.
    pub fn bottleneck_map(&self) -> &BTreeMap<LinkId, BTreeSet<ConnId>> {
        &self.bottleneck
    }

    /// The registered demand side, mirroring `MaxminProblem::conns`.
    pub fn conns_map(&self) -> &BTreeMap<ConnId, ConnDemand> {
        &self.conns
    }

    /// The links whose region is pending a re-fill.
    pub fn dirty_links(&self) -> &BTreeSet<LinkId> {
        &self.dirty
    }

    /// The solved excess rate of one connection. Only current when
    /// [`Self::is_dirty`] is false; resolve first otherwise.
    pub fn rate(&self, id: ConnId) -> Option<f64> {
        self.alloc.get(&id).copied()
    }

    /// Set a link's excess capacity, dirtying it only if the value
    /// actually changed (exact compare — churn-aware caching).
    pub fn set_link_excess(&mut self, link: LinkId, excess: f64) {
        match self.link_excess.get(&link) {
            Some(cur) if cur.to_bits() == excess.to_bits() => {}
            _ => {
                self.link_excess.insert(link, excess);
                self.dirty.insert(link);
                if !self.mirror_stale {
                    self.mirror.set_excess(link, excess);
                }
            }
        }
    }

    /// Drop a link's capacity entry, dirtying every connection that
    /// traversed it (they become unconstrained there, as in
    /// [`MaxminProblem`] semantics for unknown links).
    ///
    /// Dirtying is unconditional: a link that never had an excess entry
    /// can still sit on registered routes (it only ever appeared in
    /// upserted routes), and its bottleneck set is
    /// dropped here either way — so the traversing connections' region
    /// must be re-filled regardless.
    pub fn remove_link(&mut self, link: LinkId) {
        self.link_excess.remove(&link);
        self.dirty.insert(link);
        self.bottleneck.remove(&link);
        if !self.mirror_stale {
            self.mirror.remove_excess(link);
        }
    }

    /// Insert or update a connection. A re-upsert with bit-identical
    /// demand and an equal route is a no-op; otherwise the old and new
    /// routes' links are dirtied.
    pub fn upsert_conn(&mut self, id: ConnId, demand: f64, links: &[LinkId]) {
        if let Some(cur) = self.conns.get(&id) {
            if cur.demand.to_bits() == demand.to_bits() && cur.links == links {
                return;
            }
            self.detach(id);
        }
        for l in links {
            self.dirty.insert(*l);
            let members = self.index.entry(*l).or_default();
            if let Err(at) = members.binary_search(&id) {
                members.insert(at, id);
            }
        }
        self.conns.insert(
            id,
            ConnDemand {
                demand,
                links: links.to_vec(),
            },
        );
        self.alloc.insert(id, 0.0);
        if !self.mirror_stale {
            self.mirror.add_conn(id, demand, links);
        }
    }

    /// Remove a connection, dirtying its route's links.
    pub fn remove_conn(&mut self, id: ConnId) {
        if self.conns.contains_key(&id) {
            self.detach(id);
            self.conns.remove(&id);
            self.alloc.remove(&id);
        }
    }

    /// Unhook `id` from the index and bottleneck sets and dirty its
    /// links, leaving `conns`/`alloc` entries to the caller.
    fn detach(&mut self, id: ConnId) {
        if !self.mirror_stale {
            // Full removal from the mirror: the callers either re-add
            // (route change) or drop the sparse entries too.
            self.mirror.remove_conn(id);
        }
        let links = std::mem::take(
            &mut self
                .conns
                .get_mut(&id)
                .expect("invariant: registered conn")
                .links,
        );
        for l in &links {
            self.dirty.insert(*l);
            if let Some(members) = self.index.get_mut(l) {
                if let Ok(at) = members.binary_search(&id) {
                    members.remove(at);
                }
                if members.is_empty() {
                    self.index.remove(l);
                }
            }
            if let Some(m) = self.bottleneck.get_mut(l) {
                m.remove(&id);
            }
        }
    }

    /// Re-fill the dirty region and return the (now current) resident
    /// allocation. Each dirty link's transitive closure — one connected
    /// component of the sharing graph — is re-run through the dense
    /// water-filling kernel
    /// ([`DenseState::solve_component_dense`], bit-identical to the
    /// [`centralized::solve_component`](super::centralized::solve_component)
    /// reference); everything else keeps its frozen rate. Steady-state
    /// resolves allocate nothing: the BFS and kernel run on resident
    /// epoch-stamped scratch over the mirror's flat arrays.
    pub fn resolve(&mut self) -> &Allocation {
        self.last_resolved.clear();
        if self.dirty.is_empty() {
            self.stats.cache_hits += 1;
            return &self.alloc;
        }
        if self.mirror_stale {
            self.mirror
                .rebuild(&self.link_excess, &self.conns, &self.alloc);
            self.mirror_stale = false;
        }
        let dirty = std::mem::take(&mut self.dirty);
        let mut resolved = 0usize;
        self.bfs.begin(
            self.mirror.links.slot_count(),
            self.mirror.conns.slot_count(),
        );
        for seed in &dirty {
            let Some(seed_slot) = self.mirror.links.get(*seed) else {
                // A link the engine never learned about: its closure is
                // empty, but stale bottleneck attributions still die
                // with the dirty mark (reference behaviour).
                self.bottleneck.remove(seed);
                continue;
            };
            let (mirror, bfs, bottleneck) = (&self.mirror, &mut self.bfs, &mut self.bottleneck);
            mirror.component_of(seed_slot, bfs, |l| {
                // Stale bottleneck attributions die with the region.
                bottleneck.remove(&l);
            });
            if self.bfs.comp.is_empty() {
                continue;
            }
            let mut comp = std::mem::take(&mut self.bfs.comp);
            comp.sort_unstable_by_key(|s| self.mirror.conns.external(*s));
            resolved += comp.len();
            self.mirror
                .solve_component_dense(&comp, &mut self.scratch, true);
            for &(l, c) in &self.scratch.frozen {
                self.bottleneck
                    .entry(self.mirror.links.external(l))
                    .or_default()
                    .insert(self.mirror.conns.external(c));
            }
            for &c in &comp {
                let ext = self.mirror.conns.external(c);
                // Updates of existing keys: every comp member was given
                // its `alloc` entry at upsert time, so no tree growth.
                self.alloc.insert(ext, self.mirror.alloc[c as usize]);
                self.last_resolved.push(ext);
            }
            comp.clear();
            self.bfs.comp = comp;
        }
        self.stats.incremental_solves += 1;
        self.stats.conns_resolved += resolved as u64;
        self.stats.conns_reused += (self.conns.len() - resolved) as u64;
        &self.alloc
    }

    /// Connections whose rate was re-filled by the most recent
    /// [`Self::resolve`] (ascending within each re-solved component;
    /// empty after a cache hit). Connections absent from this list kept
    /// their frozen rate bit-for-bit — their component was untouched.
    /// Their *ledger* rate may still have left that target, so rate
    /// application cannot be restricted to this set.
    pub fn last_resolved(&self) -> &[ConnId] {
        &self.last_resolved
    }

    /// Diff the engine's inputs against the network's current ledgers:
    /// link excesses from every link, demand `b_max − b_min` and route
    /// from every live connection accepted by `include`. Only genuine
    /// changes dirty anything, so calling this every epoch costs a scan
    /// but no re-solve work when nothing moved. Mirrors
    /// [`MaxminProblem::from_network`] filtered by `include`.
    pub fn sync_network(&mut self, net: &Network, include: &dyn Fn(&Connection) -> bool) {
        for (lid, link) in net.links() {
            self.set_link_excess(lid, link.excess_available().max(0.0));
        }
        // Prune capacity entries for links the network no longer has
        // (its link ids are dense) — without this, topology churn
        // accumulates stale `link_excess` rows forever, and a stale row
        // constrains future solves with a phantom capacity.
        let link_count = net.topology().link_count();
        let gone_links: Vec<LinkId> = self
            .link_excess
            .keys()
            .filter(|l| l.index() >= link_count)
            .copied()
            .collect();
        for l in gone_links {
            self.remove_link(l);
        }
        let tracked = |c: &Connection| !c.route.links.is_empty() && include(c);
        for c in net.live_connections().filter(|c| tracked(c)) {
            self.upsert_conn(c.id, c.qos.adaptable_range(), &c.route.links);
        }
        // Empty in steady state, so nothing is allocated for it.
        let gone: Vec<ConnId> = self
            .conns
            .keys()
            .filter(|id| {
                !net.get(**id)
                    .is_some_and(|c| c.state.is_live() && tracked(c))
            })
            .copied()
            .collect();
        for id in gone {
            self.remove_conn(id);
        }
    }

    /// Check the sparse maps against each other: `alloc` has exactly
    /// the registered connections' keys, `index` is exactly the sorted
    /// reverse of the registered routes (no empty or dangling row), and
    /// every bottleneck set is a subset of its link's index row.
    ///
    /// Every mutator keeps these by construction, so this is the
    /// predicate a deserialized engine must pass before its first
    /// event; the `arm-check` engine sweep asserts it after every op.
    pub fn check_consistency(&self) -> Result<(), String> {
        if !self.alloc.keys().eq(self.conns.keys()) {
            return Err(format!(
                "alloc holds {} rates for {} registered conns (key sets differ)",
                self.alloc.len(),
                self.conns.len()
            ));
        }
        let want = link_index(&self.conns);
        if let Some((l, members)) = self.index.iter().find(|(l, m)| want.get(l) != Some(m)) {
            return Err(format!(
                "index row {l} lists {members:?} but the registered routes give {:?}",
                want.get(l)
            ));
        }
        if let Some(l) = want.keys().find(|l| !self.index.contains_key(l)) {
            return Err(format!("index has no row for routed link {l}"));
        }
        for (l, frozen) in &self.bottleneck {
            let members = self.index.get(l).map_or(&[][..], Vec::as_slice);
            if let Some(c) = frozen.iter().find(|c| members.binary_search(c).is_err()) {
                return Err(format!(
                    "bottleneck set of {l} names {c}, not routed over it"
                ));
            }
        }
        Ok(())
    }

    /// Test-only: cross-check the mirror against the sparse maps it
    /// shadows (no-op while the mirror is stale).
    pub fn check_mirror(&self) -> Result<(), String> {
        if self.mirror_stale {
            return Ok(());
        }
        self.mirror
            .check_mirrors(&self.link_excess, &self.conns, &self.alloc)
    }

    /// A from-scratch [`MaxminProblem`] over the engine's current
    /// inputs — the differential oracle used by tests.
    pub fn as_problem(&self) -> MaxminProblem {
        MaxminProblem {
            link_excess: self.link_excess.clone(),
            conns: self.conns.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lid(i: u32) -> LinkId {
        LinkId(i)
    }
    fn cid(i: u32) -> ConnId {
        ConnId(i)
    }

    fn assert_matches_fresh(e: &mut IncrementalMaxmin) {
        let fresh = e.as_problem().solve();
        let inc = e.resolve().clone();
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
        assert!((e.allocation()[&cid(0)] - 15.0).abs() < 1e-9);
        e.upsert_conn(cid(2), 100.0, &[lid(0)]);
        assert_matches_fresh(&mut e);
        assert!((e.allocation()[&cid(0)] - 10.0).abs() < 1e-9);
        e.remove_conn(cid(1));
        assert_matches_fresh(&mut e);
        assert!((e.allocation()[&cid(2)] - 15.0).abs() < 1e-9);
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
        assert!((e.allocation()[&cid(0)] - 2.0).abs() < 1e-9);
        e.set_link_excess(lid(1), 12.0);
        assert_matches_fresh(&mut e);
        assert!(
            (e.allocation()[&cid(0)] - 5.0).abs() < 1e-9,
            "{:?}",
            e.allocation()
        );
        e.set_link_excess(lid(1), 0.0);
        assert_matches_fresh(&mut e);
        assert_eq!(e.allocation()[&cid(0)], 0.0);
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
        assert!((e.allocation()[&cid(0)] - 10.0).abs() < 1e-9);
        assert!((e.allocation()[&cid(1)] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_sets_track_saturating_links() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.set_link_excess(lid(1), 4.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0), lid(1)]);
        e.upsert_conn(cid(1), 100.0, &[lid(0)]);
        e.upsert_conn(cid(2), 100.0, &[lid(1)]);
        e.resolve();
        // Link 1 (capacity 4, two conns at 2) froze conns 0 and 2.
        let m1 = e.bottleneck_set(lid(1)).expect("link 1 saturates");
        assert!(m1.contains(&cid(0)) && m1.contains(&cid(2)), "{m1:?}");
        // Conn 1 meets link 0's remaining headroom; it is frozen by
        // link 0's saturation in the final round.
        let m0 = e.bottleneck_set(lid(0)).expect("link 0 saturates");
        assert!(m0.contains(&cid(1)), "{m0:?}");
        // Departure of conn 2 rebuilds M(1) without stale members.
        e.remove_conn(cid(2));
        e.resolve();
        let m1 = e.bottleneck_set(lid(1)).expect("still saturating");
        assert!(!m1.contains(&cid(2)), "{m1:?}");
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
        // remove), leaving conn 0's region stale while its bottleneck
        // attribution was dropped anyway.
        e.remove_link(lid(1));
        assert!(e.is_dirty(), "remove_link must dirty unconditionally");
        e.resolve();
        assert_eq!(e.stats.incremental_solves, solves0 + 1);
        assert_matches_fresh(&mut e);
    }

    /// A caller that reads `last_resolved` after every resolve must not
    /// see the previous round's list on a cache hit.
    #[test]
    fn clean_resolve_clears_last_resolved() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0)]);
        e.upsert_conn(cid(1), 100.0, &[lid(0)]);
        e.resolve();
        assert_eq!(e.last_resolved(), [cid(0), cid(1)]);
        e.resolve();
        assert!(e.last_resolved().is_empty(), "{:?}", e.last_resolved());
        assert_eq!(e.rate(cid(0)), Some(5.0));
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
        e.sync_network(&net, &|_| true);
        let fresh = MaxminProblem::from_network(&net);
        assert_eq!(e.as_problem().link_excess, fresh.link_excess);
        assert_eq!(e.resolve(), &fresh.solve());
        e.check_consistency().unwrap();
    }

    #[test]
    fn sync_network_prunes_links_gone_from_the_network() {
        let big = net_with_cells(3);
        let small = net_with_cells(1);
        let mut e = IncrementalMaxmin::new();
        e.sync_network(&big, &|_| true);
        assert!(e.link_excess_map().len() > small.topology().link_count());
        // Regression: re-syncing against a network with fewer links
        // used to leave the extra links' excess entries resident
        // forever; they must be pruned so the engine's problem exactly
        // mirrors a from-scratch build over the current network.
        e.sync_network(&small, &|_| true);
        let fresh = MaxminProblem::from_network(&small);
        assert_eq!(
            e.link_excess_map().keys().collect::<Vec<_>>(),
            fresh.link_excess.keys().collect::<Vec<_>>(),
            "stale link_excess rows survived the sync"
        );
        e.check_consistency().unwrap();
    }

    #[test]
    fn check_consistency_rejects_dangling_and_missing_rows() {
        let mut e = IncrementalMaxmin::new();
        e.set_link_excess(lid(0), 10.0);
        e.upsert_conn(cid(0), 100.0, &[lid(0)]);
        e.upsert_conn(cid(1), 100.0, &[lid(0)]);
        e.resolve();
        e.check_consistency().unwrap();
        assert!(!e.bottleneck_map().is_empty());
        let mut bad = e.clone();
        bad.alloc.remove(&cid(1));
        assert!(bad.check_consistency().unwrap_err().contains("alloc"));
        let mut bad = e.clone();
        bad.index.insert(lid(3), vec![cid(7)]);
        assert!(bad.check_consistency().unwrap_err().contains("index row"));
        let mut bad = e.clone();
        bad.index.insert(lid(3), Vec::new());
        assert!(bad.check_consistency().unwrap_err().contains("index row"));
        let mut bad = e.clone();
        bad.index.insert(lid(0), vec![cid(1), cid(0)]);
        assert!(bad.check_consistency().unwrap_err().contains("index row"));
        let mut bad = e.clone();
        bad.index.remove(&lid(0));
        assert!(bad.check_consistency().unwrap_err().contains("no row"));
        let mut bad = e;
        bad.bottleneck.entry(lid(0)).or_default().insert(cid(9));
        assert!(bad.check_consistency().unwrap_err().contains("bottleneck"));
    }
}
