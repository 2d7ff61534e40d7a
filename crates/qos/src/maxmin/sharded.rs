// Audited: every expect in this file is an `invariant:`/`precondition:`
// panic (see the arm-check `no-panic` lint).
#![allow(clippy::expect_used)]

//! Campus-scale sharded maxmin engine.
//!
//! [`IncrementalMaxmin`] already re-fills only the connected component a
//! churn event touched, but it keeps the *whole campus* in one engine:
//! every resolve walks one dirty set, and independent components are
//! re-filled one after another on one thread. This module partitions the
//! problem by connected component of the link/connection sharing graph —
//! a **shard** is one [`IncrementalMaxmin`] owning a union of components
//! — so a tick's worth of coalesced churn resolves as independent
//! per-shard jobs on a small worker pool ([`arm_pool::WorkerPool`]).
//!
//! ## The shard planner is an online union-find
//!
//! Links and connections map to shards (`link_shard` / `conn_shard`).
//! Upserting a connection whose route spans several shards **merges**
//! them (union); merging moves the source engines' resident state —
//! capacities, demands, index, allocation, bottleneck sets, dirty flags
//! — wholesale into the target, which is exact because shards share no
//! links: the union of two valid resident states is a valid resident
//! state for the union problem. Removals never split eagerly; a shard
//! may temporarily be *coarser* than the true components (still correct,
//! just less parallel), and an exact repartition is recomputed **lazily**
//! by [`ShardedMaxmin::replan`] once enough churn has accumulated.
//! Splitting likewise moves per-component state without invalidating it,
//! so a replan costs map surgery, never a re-solve.
//!
//! ## Determinism contract
//!
//! Shards share no state, each shard's [`IncrementalMaxmin::resolve`] is
//! deterministic, and [`arm_pool::WorkerPool::map`] returns results in
//! input order — so the final allocation is independent of worker
//! scheduling and **bit-identical** (`f64::to_bits`) to what one
//! sequential [`IncrementalMaxmin`] fed the same event stream would
//! hold, and to a from-scratch [`MaxminProblem::solve`]: all three run
//! [`centralized::solve_component`] on identical per-component inputs.
//! Only the informational [`EngineStats`] counters may differ (the
//! facade skips clean shards instead of counting cache hits per shard).
//! The differential proptests in `crates/qos/tests/sharded_prop.rs` and
//! the chaos test in `crates/core/tests/chaos.rs` pin this.

use std::collections::{BTreeMap, BTreeSet};

use arm_net::ids::{ConnId, LinkId};
use arm_net::{Connection, Network};
use arm_pool::WorkerPool;
use serde::{Deserialize, Serialize};

use super::centralized::{self, Allocation, MaxminProblem};
use super::incremental::{EngineStats, IncrementalMaxmin};

/// How much churn (removals + merges) accumulates before the next
/// [`ShardedMaxmin::resolve_all`] recomputes the exact partition.
pub const DEFAULT_REPLAN_CHURN: u64 = 4096;

/// Minimum total connection count across a round's dirty shards before
/// pooled dispatch is attempted; below this the serial loop wins on
/// dispatch overhead alone.
pub const POOL_DISPATCH_MIN_CONNS: usize = 128;

/// How [`ShardedMaxmin::resolve_all`] decides between the serial loop
/// and chunked pool dispatch when a pool is offered. Never serialized:
/// a scheduling knob, not planner state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolDispatch {
    /// Dispatch only when it can pay: more than one dirty shard, a pool
    /// with more than one worker, at least [`POOL_DISPATCH_MIN_CONNS`]
    /// connections of work this round, **and** more than one hardware
    /// thread on the host — on a single-CPU machine oversubscribed
    /// workers only add context switching, so the planner resolves
    /// inline no matter how many threads the pool carries.
    #[default]
    Auto,
    /// Dispatch whenever more than one shard is dirty and the pool has
    /// more than one worker, even on a single-CPU host. For the
    /// differential tests that pin pooled == serial bit-identicality:
    /// they must exercise the chunked dispatch path on any machine.
    Always,
    /// Never dispatch; always the serial loop.
    Never,
}

/// Hardware threads available to this process, sampled once: the value
/// gates [`PoolDispatch::Auto`] on every resolve round, and the OS query
/// (affinity mask + cgroup quota) is too slow for a hot path.
fn hw_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Facade-level counters. Purely informational, exposed for benches and
/// the per-shard `MaxminRound` attribution in `arm_obs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// `resolve_all` calls that found at least one dirty shard.
    pub rounds: u64,
    /// `resolve_all` calls with nothing dirty (facade-level cache hits).
    pub clean_rounds: u64,
    /// Dirty shards resolved, summed over rounds.
    pub shards_resolved: u64,
    /// Shard merges forced by route-spanning upserts.
    pub merges: u64,
    /// Lazy exact repartitions performed.
    pub replans: u64,
}

/// One live shard's membership, as seen by [`ShardedMaxmin::shard_view`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardViewEntry {
    /// The shard's slot index (informational; canonicalize before
    /// comparing across planners, slots depend on allocation history).
    pub slot: u32,
    /// Every link the shard knows (capacity entry or routed over).
    pub links: BTreeSet<LinkId>,
    /// Every connection registered in the shard.
    pub conns: BTreeSet<ConnId>,
    /// The shard engine's pending dirty links.
    pub dirty: BTreeSet<LinkId>,
    /// The shard's resident allocation, as exact bits.
    pub alloc_bits: BTreeMap<ConnId, u64>,
}

/// Structural verification view of a [`ShardedMaxmin`] (see
/// [`ShardedMaxmin::shard_view`]).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardView {
    /// Live shards, ascending by slot.
    pub shards: Vec<ShardViewEntry>,
    /// The planner's link routing map.
    pub link_shard: BTreeMap<LinkId, u32>,
    /// The planner's connection routing map.
    pub conn_shard: BTreeMap<ConnId, u32>,
}

/// A partition of [`IncrementalMaxmin`] state by connected component,
/// resolvable shard-parallel. See the module docs for the planner and
/// determinism contract; the public API mirrors the sequential engine.
#[derive(Clone, Debug)]
pub struct ShardedMaxmin {
    /// Shard engines; slots listed in `free` are empty and reusable.
    shards: Vec<IncrementalMaxmin>,
    /// Owning shard of every link any engine knows (capacity or route).
    link_shard: BTreeMap<LinkId, u32>,
    /// Owning shard of every registered connection.
    conn_shard: BTreeMap<ConnId, u32>,
    /// Retired slots awaiting reuse.
    free: BTreeSet<u32>,
    /// Engine counters of retired/merged-away shards, so aggregate
    /// stats survive slot churn.
    absorbed: EngineStats,
    /// Removals + merges since the last exact repartition.
    churn_since_replan: u64,
    /// Replan threshold; 0 disables automatic replans.
    replan_churn: u64,
    /// Facade counters.
    pub stats: ShardStats,
    /// Pool-dispatch policy; a scheduling knob, excluded from snapshots
    /// (restored planners fall back to [`PoolDispatch::Auto`]).
    pool_dispatch: PoolDispatch,
}

// Manual serde: the snapshot schema carries planner *state* only — the
// pool-dispatch knob is scheduling policy, excluded so adding it did
// not bump the snapshot fingerprint (restored planners run `Auto`).
impl Serialize for ShardedMaxmin {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("shards".to_string(), self.shards.to_value()),
            ("link_shard".to_string(), self.link_shard.to_value()),
            ("conn_shard".to_string(), self.conn_shard.to_value()),
            ("free".to_string(), self.free.to_value()),
            ("absorbed".to_string(), self.absorbed.to_value()),
            (
                "churn_since_replan".to_string(),
                self.churn_since_replan.to_value(),
            ),
            ("replan_churn".to_string(), self.replan_churn.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

impl Deserialize for ShardedMaxmin {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("ShardedMaxmin: expected object"))?;
        Ok(ShardedMaxmin {
            shards: serde::from_field(obj, "shards", "ShardedMaxmin")?,
            link_shard: serde::from_field(obj, "link_shard", "ShardedMaxmin")?,
            conn_shard: serde::from_field(obj, "conn_shard", "ShardedMaxmin")?,
            free: serde::from_field(obj, "free", "ShardedMaxmin")?,
            absorbed: serde::from_field(obj, "absorbed", "ShardedMaxmin")?,
            churn_since_replan: serde::from_field(obj, "churn_since_replan", "ShardedMaxmin")?,
            replan_churn: serde::from_field(obj, "replan_churn", "ShardedMaxmin")?,
            stats: serde::from_field(obj, "stats", "ShardedMaxmin")?,
            pool_dispatch: PoolDispatch::default(),
        })
    }
}

impl Default for ShardedMaxmin {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedMaxmin {
    /// An empty planner with the default replan threshold.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: Vec::new(),
            link_shard: BTreeMap::new(),
            conn_shard: BTreeMap::new(),
            free: BTreeSet::new(),
            absorbed: EngineStats::default(),
            churn_since_replan: 0,
            replan_churn: DEFAULT_REPLAN_CHURN,
            stats: ShardStats::default(),
            pool_dispatch: PoolDispatch::default(),
        }
    }

    /// Override the pool-dispatch policy (see [`PoolDispatch`]).
    #[must_use]
    pub fn with_pool_dispatch(mut self, mode: PoolDispatch) -> Self {
        self.pool_dispatch = mode;
        self
    }

    /// Set the churn threshold that triggers a lazy repartition at the
    /// next [`Self::resolve_all`] (0 disables automatic replans).
    #[must_use]
    pub fn with_replan_churn(mut self, threshold: u64) -> Self {
        self.replan_churn = threshold;
        self
    }

    /// Number of live (non-retired) shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len() - self.free.len()
    }

    /// Number of registered connections.
    #[must_use]
    pub fn conn_count(&self) -> usize {
        self.conn_shard.len()
    }

    /// Does any shard have pending invalidations?
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.shards.iter().any(IncrementalMaxmin::is_dirty)
    }

    /// Live shards' connection counts, descending — the parallelism
    /// profile (a campus of independent cells shows many small shards).
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = (0..self.shards.len())
            .filter(|i| !self.free.contains(&(*i as u32)))
            .map(|i| self.shards[i].conn_count())
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Aggregate engine counters over live shards plus everything
    /// absorbed from retired ones.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        let mut total = self.absorbed;
        for e in &self.shards {
            add_stats(&mut total, e.stats);
        }
        total
    }

    /// The solved excess rate of one connection. Only current when
    /// [`Self::is_dirty`] is false; resolve first otherwise.
    #[must_use]
    pub fn rate(&self, id: ConnId) -> Option<f64> {
        let s = *self.conn_shard.get(&id)?;
        self.shards[s as usize].allocation().get(&id).copied()
    }

    /// The union of every shard's resident allocation.
    #[must_use]
    pub fn merged_allocation(&self) -> Allocation {
        let mut out = Allocation::new();
        for e in &self.shards {
            out.extend(e.allocation().iter().map(|(c, x)| (*c, *x)));
        }
        out
    }

    /// A from-scratch [`MaxminProblem`] over the union of every shard's
    /// inputs — the differential oracle used by tests.
    #[must_use]
    pub fn as_problem(&self) -> MaxminProblem {
        let mut p = MaxminProblem::default();
        for e in &self.shards {
            let sub = e.as_problem();
            p.link_excess.extend(sub.link_excess);
            p.conns.extend(sub.conns);
        }
        p
    }

    /// The union of every shard's resident bottleneck sets `M(l)`.
    /// Shards are disjoint, so the union is exact. Exposed so the
    /// `arm-check` planner model can verify bottleneck state is
    /// conserved bit-for-bit across merges and replans.
    #[must_use]
    pub fn bottleneck_union(&self) -> BTreeMap<LinkId, BTreeSet<ConnId>> {
        let mut out = BTreeMap::new();
        for e in &self.shards {
            for (l, m) in e.bottleneck_map() {
                out.insert(*l, m.clone());
            }
        }
        out
    }

    /// The union of every shard's dirty-link set (see
    /// [`IncrementalMaxmin::dirty_links`]).
    #[must_use]
    pub fn dirty_union(&self) -> BTreeSet<LinkId> {
        let mut out = BTreeSet::new();
        for e in &self.shards {
            out.extend(e.dirty_links().iter().copied());
        }
        out
    }

    /// A structural view of the planner for external verification: the
    /// routing maps plus every live shard's membership and dirty set.
    /// The `arm-check` sharded-planner model checker keys its visited
    /// set on (a canonicalization of) this view and checks the routing
    /// maps against shard contents after every operation.
    #[must_use]
    pub fn shard_view(&self) -> ShardView {
        let shards = (0..self.shards.len() as u32)
            .filter(|s| !self.free.contains(s))
            .map(|s| {
                let e = &self.shards[s as usize];
                let links: BTreeSet<LinkId> = e
                    .link_excess_map()
                    .keys()
                    .chain(e.link_index_map().keys())
                    .copied()
                    .collect();
                ShardViewEntry {
                    slot: s,
                    links,
                    conns: e.conns_map().keys().copied().collect(),
                    dirty: e.dirty_links().clone(),
                    alloc_bits: e
                        .allocation()
                        .iter()
                        .map(|(c, x)| (*c, x.to_bits()))
                        .collect(),
                }
            })
            .collect();
        ShardView {
            shards,
            link_shard: self.link_shard.clone(),
            conn_shard: self.conn_shard.clone(),
        }
    }

    /// Check the routing maps against shard contents: every slot the
    /// maps or `free` name exists, retired slots are empty, every link
    /// and connection a live shard holds maps to exactly that shard
    /// (hence shards are pairwise disjoint), and no map entry dangles.
    ///
    /// Every mutator indexes `shards` straight from these maps, so this
    /// is the predicate a deserialized planner must pass before its
    /// first event; the `arm-check` planner model asserts the same
    /// predicate after every op.
    pub fn check_routing(&self) -> Result<(), String> {
        let slots = self.shards.len();
        if let Some(s) = self.free.iter().find(|s| **s as usize >= slots) {
            return Err(format!("free list names slot {s} of {slots}"));
        }
        let live = |s: u32| (s as usize) < slots && !self.free.contains(&s);
        if let Some((l, s)) = self.link_shard.iter().find(|(_, s)| !live(**s)) {
            return Err(format!("link_shard maps {l} to dead slot {s} of {slots}"));
        }
        if let Some((c, s)) = self.conn_shard.iter().find(|(_, s)| !live(**s)) {
            return Err(format!("conn_shard maps {c} to dead slot {s} of {slots}"));
        }
        let (mut held_links, mut held_conns) = (0usize, 0usize);
        for (s, e) in (0u32..).zip(&self.shards) {
            let links: BTreeSet<LinkId> = e
                .link_excess_map()
                .keys()
                .chain(e.link_index_map().keys())
                .copied()
                .collect();
            if self.free.contains(&s) {
                if !links.is_empty() || !e.conns_map().is_empty() {
                    return Err(format!("retired slot {s} still holds state"));
                }
                continue;
            }
            for l in &links {
                if self.link_shard.get(l) != Some(&s) {
                    return Err(format!(
                        "link routing inconsistent: shard {s} holds {l} but \
                         link_shard maps it to {:?}",
                        self.link_shard.get(l)
                    ));
                }
            }
            for c in e.conns_map().keys() {
                if self.conn_shard.get(c) != Some(&s) {
                    return Err(format!(
                        "conn routing inconsistent: shard {s} holds {c} but \
                         conn_shard maps it to {:?}",
                        self.conn_shard.get(c)
                    ));
                }
            }
            held_links += links.len();
            held_conns += e.conns_map().len();
        }
        // Held entries all map home, so any surplus map entry dangles.
        if self.link_shard.len() != held_links {
            return Err(format!(
                "link routing not total: {} entries for {held_links} held links",
                self.link_shard.len()
            ));
        }
        if self.conn_shard.len() != held_conns {
            return Err(format!(
                "conn routing not total: {} entries for {held_conns} held conns",
                self.conn_shard.len()
            ));
        }
        Ok(())
    }

    /// Set a link's excess capacity (see
    /// [`IncrementalMaxmin::set_link_excess`]). An unknown link opens a
    /// new singleton shard.
    pub fn set_link_excess(&mut self, link: LinkId, excess: f64) {
        let s = match self.link_shard.get(&link) {
            Some(s) => *s,
            None => {
                let s = self.new_shard();
                self.link_shard.insert(link, s);
                s
            }
        };
        self.shards[s as usize].set_link_excess(link, excess);
    }

    /// Mark a link's region for re-fill without changing any input.
    /// Unknown links are accepted and ignored (empty closure).
    pub fn touch_link(&mut self, link: LinkId) {
        if let Some(&s) = self.link_shard.get(&link) {
            self.shards[s as usize].touch_link(link);
        }
    }

    /// Drop a link's capacity entry (see
    /// [`IncrementalMaxmin::remove_link`]). The link stays mapped while
    /// registered routes still traverse it.
    pub fn remove_link(&mut self, link: LinkId) {
        let Some(&s) = self.link_shard.get(&link) else {
            return;
        };
        let e = &mut self.shards[s as usize];
        e.remove_link(link);
        if !e.link_index_map().contains_key(&link) {
            self.link_shard.remove(&link);
        }
        self.churn_since_replan += 1;
        self.retire_if_empty(s);
    }

    /// Insert or update a connection (see
    /// [`IncrementalMaxmin::upsert_conn`]). A route spanning several
    /// shards merges them into one.
    pub fn upsert_conn(&mut self, id: ConnId, demand: f64, links: &[LinkId]) {
        if let Some(&s) = self.conn_shard.get(&id) {
            let cur = self.shards[s as usize]
                .conns_map()
                .get(&id)
                .expect("invariant: mapped conn is registered in its shard");
            if cur.links == links {
                // Same route: demand-only change (or no-op) stays put.
                self.shards[s as usize].upsert_conn(id, demand, links);
                return;
            }
            // Route changed: detach the old registration first so links
            // it orphaned unmap before the new owners are computed.
            self.remove_conn(id);
        }
        let owners: BTreeSet<u32> = links
            .iter()
            .filter_map(|l| self.link_shard.get(l))
            .copied()
            .collect();
        let target = match owners.len() {
            0 => self.new_shard(),
            1 => *owners.first().expect("invariant: non-empty set"),
            _ => self.merge_shards(&owners),
        };
        for l in links {
            self.link_shard.entry(*l).or_insert(target);
        }
        self.conn_shard.insert(id, target);
        self.shards[target as usize].upsert_conn(id, demand, links);
    }

    /// Remove a connection, dirtying its route's links in its shard.
    pub fn remove_conn(&mut self, id: ConnId) {
        let Some(&s) = self.conn_shard.get(&id) else {
            return;
        };
        let e = &mut self.shards[s as usize];
        let route: Vec<LinkId> = e
            .conns_map()
            .get(&id)
            .map(|d| d.links.clone())
            .unwrap_or_default();
        e.remove_conn(id);
        self.conn_shard.remove(&id);
        let e = &self.shards[s as usize];
        let orphaned: Vec<LinkId> = route
            .into_iter()
            .filter(|l| !e.link_excess_map().contains_key(l) && !e.link_index_map().contains_key(l))
            .collect();
        for l in orphaned {
            self.link_shard.remove(&l);
        }
        self.churn_since_replan += 1;
        self.retire_if_empty(s);
    }

    /// Diff the planner's inputs against the network's current ledgers:
    /// link excesses from every link, demand `b_max − b_min` and route
    /// from every live connection accepted by `include`, each routed
    /// through the shard planner. Only genuine changes dirty anything,
    /// so calling this every epoch costs a scan but no re-solve work
    /// when nothing moved. Mirrors [`MaxminProblem::from_network`]
    /// filtered by `include`.
    pub fn sync_network(&mut self, net: &Network, include: &dyn Fn(&Connection) -> bool) {
        let mut live_links: BTreeSet<LinkId> = BTreeSet::new();
        for (lid, link) in net.links() {
            live_links.insert(lid);
            self.set_link_excess(lid, link.excess_available().max(0.0));
        }
        // Prune capacity entries for links the network no longer has —
        // without this, topology churn accumulates stale excess rows
        // forever, and a stale row both constrains future solves with a
        // phantom capacity and glues unrelated shards together.
        let gone_links: Vec<LinkId> = self
            .link_shard
            .iter()
            .filter(|(l, s)| {
                !live_links.contains(l)
                    && self.shards[**s as usize].link_excess_map().contains_key(l)
            })
            .map(|(l, _)| *l)
            .collect();
        for l in gone_links {
            self.remove_link(l);
        }
        let mut seen: BTreeSet<ConnId> = BTreeSet::new();
        for c in net.live_connections() {
            if c.route.links.is_empty() || !include(c) {
                continue;
            }
            seen.insert(c.id);
            self.upsert_conn(c.id, c.qos.adaptable_range(), &c.route.links);
        }
        let gone: Vec<ConnId> = self
            .conn_shard
            .keys()
            .filter(|id| !seen.contains(id))
            .copied()
            .collect();
        for id in gone {
            self.remove_conn(id);
        }
    }

    /// Resolve every dirty shard — on `pool` when the dirty set is big
    /// enough to recoup dispatch cost, serially otherwise — after an
    /// automatic [`Self::replan`] if enough churn accumulated. Returns
    /// the number of shards resolved this round.
    pub fn resolve_all(&mut self, pool: Option<&WorkerPool>) -> usize {
        self.resolve_dirty(|| pool).len()
    }

    /// [`Self::resolve_all`], additionally appending every connection
    /// re-filled this round (dirty shards ascending by slot, each
    /// shard's [`IncrementalMaxmin::last_resolved`] order) to `changed`.
    /// Connections not appended kept their frozen rate bit-for-bit, so
    /// rate application can be restricted to this list.
    ///
    /// `pool` is called only once the round has passed the dispatch
    /// test, so a caller can spawn its pool there and pay for threads
    /// only if a round ever needs them.
    pub fn resolve_all_collect<'p>(
        &mut self,
        pool: impl FnOnce() -> Option<&'p WorkerPool>,
        changed: &mut Vec<ConnId>,
    ) -> usize {
        let dirty = self.resolve_dirty(pool);
        for i in &dirty {
            changed.extend_from_slice(self.shards[*i as usize].last_resolved());
        }
        dirty.len()
    }

    fn resolve_dirty<'p>(&mut self, pool: impl FnOnce() -> Option<&'p WorkerPool>) -> Vec<u32> {
        if self.replan_churn > 0 && self.churn_since_replan >= self.replan_churn {
            self.replan();
        }
        let dirty: Vec<u32> = (0..self.shards.len() as u32)
            .filter(|i| self.shards[*i as usize].is_dirty())
            .collect();
        if dirty.is_empty() {
            self.stats.clean_rounds += 1;
            return dirty;
        }
        self.stats.rounds += 1;
        self.stats.shards_resolved += dirty.len() as u64;
        // Pooled dispatch used to ship one `map()` job per dirty shard;
        // at campus scale most shards are a handful of connections, so
        // per-job channel traffic dwarfed the solve work and the pool
        // *lost* to the serial loop. Batch dirty shards into at most
        // one chunk per worker, contiguous in ascending slot order and
        // balanced by connection count, and fall back to the serial
        // loop outright when the round's total work cannot pay for even
        // that dispatch. Chunking cannot perturb results: shards are
        // disjoint, each engine resolves itself, and reinstall is by
        // slot index.
        let weight: usize = dirty
            .iter()
            .map(|i| self.shards[*i as usize].conn_count())
            .sum();
        let dispatch = match self.pool_dispatch {
            PoolDispatch::Never => false,
            PoolDispatch::Always => true,
            PoolDispatch::Auto => hw_parallelism() > 1 && weight >= POOL_DISPATCH_MIN_CONNS,
        };
        let pool = if dirty.len() > 1 && dispatch {
            pool().filter(|p| p.threads() > 1)
        } else {
            None
        };
        match pool {
            Some(pool) => {
                let chunk_count = pool.threads().min(dirty.len());
                let target = weight.div_ceil(chunk_count).max(1);
                let mut chunks: Vec<Vec<(u32, IncrementalMaxmin)>> =
                    Vec::with_capacity(chunk_count);
                let mut cur: Vec<(u32, IncrementalMaxmin)> = Vec::new();
                let mut cur_weight = 0usize;
                for i in &dirty {
                    // `mem::take` is a pointer swap; the engine travels
                    // to the worker and back whole.
                    let e = std::mem::take(&mut self.shards[*i as usize]);
                    cur_weight += e.conn_count();
                    cur.push((*i, e));
                    if cur_weight >= target && chunks.len() + 1 < chunk_count {
                        chunks.push(std::mem::take(&mut cur));
                        cur_weight = 0;
                    }
                }
                if !cur.is_empty() {
                    chunks.push(cur);
                }
                let done = pool.map(chunks, |mut chunk| {
                    for (_, e) in &mut chunk {
                        e.resolve();
                    }
                    chunk
                });
                for chunk in done {
                    for (i, e) in chunk {
                        self.shards[i as usize] = e;
                    }
                }
            }
            None => {
                for i in &dirty {
                    self.shards[*i as usize].resolve();
                }
            }
        }
        dirty
    }

    /// Recompute the exact partition: split every shard back into true
    /// connected components (plus one singleton shard per capacity-only
    /// link). Resident allocations, bottleneck sets, and dirty flags
    /// move with their components, so a replan never forces a re-solve.
    pub fn replan(&mut self) {
        self.churn_since_replan = 0;
        self.stats.replans += 1;
        for s in 0..self.shards.len() as u32 {
            if !self.free.contains(&s) {
                self.split_shard(s);
            }
        }
    }

    /// Allocate a shard slot, reusing the lowest retired one.
    fn new_shard(&mut self) -> u32 {
        if let Some(s) = self.free.pop_first() {
            return s;
        }
        self.shards.push(IncrementalMaxmin::new());
        (self.shards.len() - 1) as u32
    }

    /// Retire `s` if it holds no state at all (its engine counters are
    /// folded into `absorbed` so aggregates survive).
    fn retire_if_empty(&mut self, s: u32) {
        let e = &self.shards[s as usize];
        if e.conns_map().is_empty()
            && e.link_excess_map().is_empty()
            && e.link_index_map().is_empty()
        {
            let retired = std::mem::take(&mut self.shards[s as usize]);
            add_stats(&mut self.absorbed, retired.stats);
            self.free.insert(s);
        }
    }

    /// Merge every owner into the one holding the most connections
    /// (ties: lowest slot). State moves wholesale — shards are disjoint
    /// by construction, so the union stays a valid resident state and
    /// nothing is dirtied by the merge itself.
    fn merge_shards(&mut self, owners: &BTreeSet<u32>) -> u32 {
        let mut target = *owners.first().expect("precondition: owners non-empty");
        for &s in owners {
            if self.shards[s as usize].conn_count() > self.shards[target as usize].conn_count() {
                target = s;
            }
        }
        for &s in owners {
            if s == target {
                continue;
            }
            let src = std::mem::take(&mut self.shards[s as usize]);
            for l in src
                .link_excess_map()
                .keys()
                .chain(src.link_index_map().keys())
            {
                self.link_shard.insert(*l, target);
            }
            for c in src.conns_map().keys() {
                self.conn_shard.insert(*c, target);
            }
            add_stats(&mut self.absorbed, src.stats);
            absorb(&mut self.shards[target as usize], src);
            self.free.insert(s);
            self.stats.merges += 1;
            self.churn_since_replan += 1;
        }
        target
    }

    /// Split slot `s` into its true components if it became coarser
    /// than the sharing graph. Every extracted group keeps its resident
    /// state; the slot itself is retired once emptied.
    fn split_shard(&mut self, s: u32) {
        let engine = &self.shards[s as usize];
        let comps = centralized::components(engine.conns_map(), engine.link_index_map());
        let orphan_links: Vec<LinkId> = engine
            .link_excess_map()
            .keys()
            .filter(|l| !engine.link_index_map().contains_key(l))
            .copied()
            .collect();
        // Connections with empty routes never join a component; they
        // stay behind in the slot (their allocation is always 0).
        if comps.len() + orphan_links.len() <= 1 {
            return;
        }
        let mut engine = std::mem::take(&mut self.shards[s as usize]);
        // The largest component keeps the slot; the rest move out.
        let keep = comps
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.len().cmp(&b.len()).then(ib.cmp(ia)))
            .map(|(i, _)| i);
        for (i, comp) in comps.iter().enumerate() {
            if Some(i) == keep {
                continue;
            }
            let t = self.new_shard();
            let part = extract_component(&mut engine, comp);
            for l in part
                .link_excess_map()
                .keys()
                .chain(part.link_index_map().keys())
            {
                self.link_shard.insert(*l, t);
            }
            for c in part.conns_map().keys() {
                self.conn_shard.insert(*c, t);
            }
            self.shards[t as usize] = part;
        }
        for l in orphan_links {
            // Capacity-only links: each is its own component.
            if keep.is_none() && self.shards[s as usize].link_excess_map().is_empty() {
                // No conn component kept the slot; let the first orphan
                // have it instead of retiring and reallocating.
                let excess = engine
                    .link_excess_map()
                    .get(&l)
                    .copied()
                    .expect("invariant: orphan link has an excess entry");
                move_orphan(&mut engine, &mut self.shards[s as usize], l, excess);
                continue;
            }
            let t = self.new_shard();
            let excess = engine
                .link_excess_map()
                .get(&l)
                .copied()
                .expect("invariant: orphan link has an excess entry");
            let mut fresh = IncrementalMaxmin::new();
            move_orphan(&mut engine, &mut fresh, l, excess);
            self.link_shard.insert(l, t);
            self.shards[t as usize] = fresh;
        }
        // Whatever remains (the kept component, or empty-route conns)
        // returns to the slot; retire it if nothing stayed.
        add_stats(&mut self.absorbed, engine.stats);
        engine.stats = EngineStats::default();
        absorb(&mut self.shards[s as usize], engine);
        self.retire_if_empty(s);
    }
}

/// Fold `from` into `into` (saturating; counters are informational).
fn add_stats(into: &mut EngineStats, from: EngineStats) {
    into.incremental_solves += from.incremental_solves;
    into.cache_hits += from.cache_hits;
    into.conns_resolved += from.conns_resolved;
    into.conns_reused += from.conns_reused;
}

/// Move all of `src`'s state into `dst`. Precondition: the two engines
/// share no links and no connections (disjoint shards), so extending
/// the resident maps is exact and dirties nothing.
fn absorb(dst: &mut IncrementalMaxmin, src: IncrementalMaxmin) {
    // Raw map surgery behind the dense mirror's back; rebuild lazily.
    dst.mark_mirror_stale();
    dst.link_excess.extend(src.link_excess);
    dst.conns.extend(src.conns);
    dst.index.extend(src.index);
    dst.alloc.extend(src.alloc);
    dst.bottleneck.extend(src.bottleneck);
    dst.dirty.extend(src.dirty);
    add_stats(&mut dst.stats, src.stats);
}

/// Move one connected component (`comp` and every link its members
/// route over) out of `engine` into a fresh engine, preserving resident
/// allocations, bottleneck sets, and dirty flags.
fn extract_component(engine: &mut IncrementalMaxmin, comp: &[ConnId]) -> IncrementalMaxmin {
    // Raw map surgery behind the dense mirror's back; rebuild lazily.
    // (`out` starts stale-free and empty, but its maps are filled raw
    // below, so mark it too.)
    engine.mark_mirror_stale();
    let mut out = IncrementalMaxmin::new();
    out.mark_mirror_stale();
    let mut links: BTreeSet<LinkId> = BTreeSet::new();
    for c in comp {
        let d = engine
            .conns
            .remove(c)
            .expect("invariant: component member is registered");
        links.extend(d.links.iter().copied());
        if let Some(x) = engine.alloc.remove(c) {
            out.alloc.insert(*c, x);
        }
        out.conns.insert(*c, d);
    }
    for l in links {
        if let Some(x) = engine.link_excess.remove(&l) {
            out.link_excess.insert(l, x);
        }
        if let Some(ix) = engine.index.remove(&l) {
            out.index.insert(l, ix);
        }
        if let Some(b) = engine.bottleneck.remove(&l) {
            out.bottleneck.insert(l, b);
        }
        if engine.dirty.remove(&l) {
            out.dirty.insert(l);
        }
    }
    out
}

/// Move one capacity-only link out of `engine` into `dst`.
fn move_orphan(
    engine: &mut IncrementalMaxmin,
    dst: &mut IncrementalMaxmin,
    l: LinkId,
    excess: f64,
) {
    // Raw map surgery behind the dense mirror's back; rebuild lazily.
    engine.mark_mirror_stale();
    dst.mark_mirror_stale();
    engine.link_excess.remove(&l);
    dst.link_excess.insert(l, excess);
    if let Some(b) = engine.bottleneck.remove(&l) {
        dst.bottleneck.insert(l, b);
    }
    if engine.dirty.remove(&l) {
        dst.dirty.insert(l);
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

    /// Both engines fed identically must agree bit-for-bit with each
    /// other and with a from-scratch solve.
    fn assert_tracks(sh: &mut ShardedMaxmin, seq: &mut IncrementalMaxmin) {
        sh.resolve_all(None);
        let merged = sh.merged_allocation();
        let fresh = sh.as_problem().solve();
        let seq_alloc = seq.resolve().clone();
        assert_eq!(merged.len(), fresh.len());
        assert_eq!(merged.len(), seq_alloc.len());
        for (c, x) in &fresh {
            assert_eq!(
                merged[c].to_bits(),
                x.to_bits(),
                "{c:?}: sharded {} != fresh {x}",
                merged[c]
            );
            assert_eq!(merged[c].to_bits(), seq_alloc[c].to_bits());
            assert_eq!(sh.rate(*c).map(f64::to_bits), Some(x.to_bits()));
        }
    }

    #[test]
    fn independent_links_land_in_separate_shards() {
        let mut sh = ShardedMaxmin::new();
        let mut seq = IncrementalMaxmin::new();
        for i in 0..4 {
            sh.set_link_excess(lid(i), 10.0 * f64::from(i + 1));
            seq.set_link_excess(lid(i), 10.0 * f64::from(i + 1));
            for j in 0..3 {
                let c = cid(i * 3 + j);
                sh.upsert_conn(c, 100.0, &[lid(i)]);
                seq.upsert_conn(c, 100.0, &[lid(i)]);
            }
        }
        assert_eq!(sh.shard_count(), 4);
        assert_tracks(&mut sh, &mut seq);
    }

    #[test]
    fn spanning_conn_merges_shards_and_stays_exact() {
        let mut sh = ShardedMaxmin::new();
        let mut seq = IncrementalMaxmin::new();
        for i in 0..2 {
            sh.set_link_excess(lid(i), 10.0);
            seq.set_link_excess(lid(i), 10.0);
            sh.upsert_conn(cid(i), 100.0, &[lid(i)]);
            seq.upsert_conn(cid(i), 100.0, &[lid(i)]);
        }
        assert_eq!(sh.shard_count(), 2);
        assert_tracks(&mut sh, &mut seq);
        // The coupler spans both shards.
        sh.upsert_conn(cid(9), 100.0, &[lid(0), lid(1)]);
        seq.upsert_conn(cid(9), 100.0, &[lid(0), lid(1)]);
        assert_eq!(sh.shard_count(), 1);
        assert_eq!(sh.stats.merges, 1);
        assert_tracks(&mut sh, &mut seq);
    }

    #[test]
    fn replan_splits_an_over_merged_shard_without_resolving() {
        let mut sh = ShardedMaxmin::new().with_replan_churn(0);
        let mut seq = IncrementalMaxmin::new();
        for i in 0..2 {
            sh.set_link_excess(lid(i), 10.0);
            seq.set_link_excess(lid(i), 10.0);
            sh.upsert_conn(cid(i), 100.0, &[lid(i)]);
            seq.upsert_conn(cid(i), 100.0, &[lid(i)]);
        }
        sh.upsert_conn(cid(9), 100.0, &[lid(0), lid(1)]);
        seq.upsert_conn(cid(9), 100.0, &[lid(0), lid(1)]);
        assert_tracks(&mut sh, &mut seq);
        // Coupler departs: the shard is now coarser than the graph.
        sh.remove_conn(cid(9));
        seq.remove_conn(cid(9));
        assert_tracks(&mut sh, &mut seq);
        assert_eq!(sh.shard_count(), 1, "no eager split");
        let solves_before = sh.engine_stats().incremental_solves;
        sh.replan();
        assert_eq!(sh.shard_count(), 2, "replan restores the partition");
        // Clean state moved, so nothing needs (or performs) a re-solve.
        assert!(!sh.is_dirty());
        sh.resolve_all(None);
        assert_eq!(sh.engine_stats().incremental_solves, solves_before);
        assert_tracks(&mut sh, &mut seq);
    }

    #[test]
    fn churn_threshold_triggers_automatic_replan() {
        let mut sh = ShardedMaxmin::new().with_replan_churn(3);
        sh.set_link_excess(lid(0), 10.0);
        sh.set_link_excess(lid(1), 10.0);
        sh.upsert_conn(cid(0), 100.0, &[lid(0)]);
        sh.upsert_conn(cid(1), 100.0, &[lid(1)]);
        sh.upsert_conn(cid(9), 100.0, &[lid(0), lid(1)]);
        sh.resolve_all(None);
        sh.remove_conn(cid(9)); // churn: merge (1) + removal (1) = 2
        sh.resolve_all(None);
        assert_eq!(sh.stats.replans, 0);
        sh.upsert_conn(cid(2), 50.0, &[lid(0)]);
        sh.remove_conn(cid(2)); // churn reaches 3
        sh.resolve_all(None);
        assert_eq!(sh.stats.replans, 1);
        assert_eq!(sh.shard_count(), 2);
    }

    #[test]
    fn worker_pool_resolution_is_bit_identical_to_serial() {
        let pool = WorkerPool::new(4);
        let build = || {
            // `Always`: the differential must cover the chunked
            // dispatch path even on a single-CPU host.
            let mut sh = ShardedMaxmin::new().with_pool_dispatch(PoolDispatch::Always);
            for i in 0..32 {
                sh.set_link_excess(lid(i), 5.0 + f64::from(i));
                for j in 0..4 {
                    sh.upsert_conn(cid(i * 4 + j), 100.0, &[lid(i)]);
                }
            }
            sh
        };
        let mut serial = build();
        let mut parallel = build();
        assert_eq!(serial.resolve_all(None), 32);
        assert_eq!(parallel.resolve_all(Some(&pool)), 32);
        let a = serial.merged_allocation();
        let b = parallel.merged_allocation();
        assert_eq!(a.len(), b.len());
        for (c, x) in &a {
            assert_eq!(x.to_bits(), b[c].to_bits());
        }
    }

    #[test]
    fn pool_is_asked_for_only_by_rounds_that_dispatch() {
        let cell = std::cell::OnceCell::new();
        let lazy = || Some(cell.get_or_init(|| WorkerPool::new(3)));
        let mut sh = ShardedMaxmin::new().with_pool_dispatch(PoolDispatch::Always);
        let mut changed = Vec::new();
        sh.set_link_excess(lid(0), 5.0);
        sh.upsert_conn(cid(0), 100.0, &[lid(0)]);
        assert_eq!(sh.resolve_all_collect(lazy, &mut changed), 1);
        assert!(cell.get().is_none(), "one dirty shard resolves inline");
        for i in 1..4 {
            sh.set_link_excess(lid(i), 5.0 + f64::from(i));
            sh.upsert_conn(cid(i), 100.0, &[lid(i)]);
        }
        assert_eq!(sh.resolve_all_collect(lazy, &mut changed), 3);
        assert!(cell.get().is_some(), "a dispatching round spawns the pool");
        assert_eq!(changed, (0..4).map(cid).collect::<Vec<_>>());
        assert_eq!(sh.merged_allocation(), sh.as_problem().solve());
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
    fn sync_network_round_trips_through_the_planner() {
        let net = net_with_cells(3);
        let mut sh = ShardedMaxmin::new();
        sh.sync_network(&net, &|_| true);
        sh.resolve_all(None);
        let fresh = MaxminProblem::from_network(&net);
        assert_eq!(sh.as_problem().link_excess, fresh.link_excess);
        assert_eq!(sh.merged_allocation(), fresh.solve());
        sh.check_routing().unwrap();
    }

    #[test]
    fn sync_network_prunes_links_gone_from_the_network() {
        let big = net_with_cells(3);
        let small = net_with_cells(1);
        let mut sh = ShardedMaxmin::new();
        sh.sync_network(&big, &|_| true);
        assert!(sh.as_problem().link_excess.len() > small.topology().link_count());
        // Regression: re-syncing against a network with fewer links
        // used to leave the extra links' excess entries resident
        // forever; they must be pruned so the planner's problem exactly
        // mirrors a from-scratch build over the current network.
        sh.sync_network(&small, &|_| true);
        let fresh = MaxminProblem::from_network(&small);
        assert_eq!(
            sh.as_problem().link_excess.keys().collect::<Vec<_>>(),
            fresh.link_excess.keys().collect::<Vec<_>>(),
            "stale link_excess rows survived the sync"
        );
        sh.check_routing().unwrap();
    }

    #[test]
    fn check_routing_rejects_out_of_range_and_dangling_entries() {
        let mut sh = ShardedMaxmin::new();
        sh.set_link_excess(lid(0), 10.0);
        sh.upsert_conn(cid(0), 100.0, &[lid(0)]);
        sh.check_routing().unwrap();
        let mut bad = sh.clone();
        bad.link_shard.insert(lid(3), 99);
        assert!(bad.check_routing().unwrap_err().contains("dead slot 99"));
        let mut bad = sh.clone();
        bad.free.insert(7);
        assert!(bad.check_routing().unwrap_err().contains("free list"));
        let mut bad = sh.clone();
        bad.link_shard.insert(lid(3), 0);
        assert!(bad.check_routing().unwrap_err().contains("not total"));
        let mut bad = sh.clone();
        bad.conn_shard.remove(&cid(0));
        assert!(bad.check_routing().unwrap_err().contains("inconsistent"));
        let mut bad = sh;
        bad.free.insert(0);
        assert!(bad.check_routing().is_err());
    }

    #[test]
    fn removal_then_reuse_keeps_maps_consistent() {
        let mut sh = ShardedMaxmin::new();
        sh.set_link_excess(lid(0), 10.0);
        sh.upsert_conn(cid(0), 100.0, &[lid(0)]);
        sh.resolve_all(None);
        sh.remove_conn(cid(0));
        sh.remove_link(lid(0));
        assert_eq!(sh.conn_count(), 0);
        sh.resolve_all(None);
        // The retired slot is reused for new state.
        sh.set_link_excess(lid(7), 12.0);
        sh.upsert_conn(cid(7), 100.0, &[lid(7)]);
        assert_eq!(sh.shard_count(), 1);
        sh.resolve_all(None);
        assert_eq!(sh.rate(cid(7)).map(f64::to_bits), Some(12.0f64.to_bits()));
    }

    #[test]
    fn route_change_rehomes_the_connection() {
        let mut sh = ShardedMaxmin::new();
        let mut seq = IncrementalMaxmin::new();
        for i in 0..2 {
            sh.set_link_excess(lid(i), 10.0 + f64::from(i));
            seq.set_link_excess(lid(i), 10.0 + f64::from(i));
        }
        sh.upsert_conn(cid(0), 100.0, &[lid(0)]);
        seq.upsert_conn(cid(0), 100.0, &[lid(0)]);
        assert_tracks(&mut sh, &mut seq);
        // Handoff to the other link.
        sh.upsert_conn(cid(0), 100.0, &[lid(1)]);
        seq.upsert_conn(cid(0), 100.0, &[lid(1)]);
        assert_tracks(&mut sh, &mut seq);
        assert_eq!(sh.rate(cid(0)).map(f64::to_bits), Some(11.0f64.to_bits()));
    }
}
