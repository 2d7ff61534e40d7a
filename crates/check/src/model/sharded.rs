//! Bounded model checking of the campus-scale shard planner.
//!
//! `arm_qos::maxmin::ShardedMaxmin` is an online union-find over the
//! link/connection sharing graph: upserts merge shards, removals leave
//! shards temporarily coarse, and `replan()` lazily recomputes the
//! exact partition by moving resident state — never re-solving. The
//! proptests in `crates/qos/tests/sharded_prop.rs` sample op sequences;
//! this module *enumerates* them. Every state holds a real
//! [`ShardedMaxmin`] next to a sequential [`IncrementalMaxmin`] oracle
//! fed the identical op, and the checker walks every reachable op
//! sequence over bounded topologies (≤4 links, ≤6 connections),
//! checking after each op that
//!
//! * **routing maps are total and consistent** — every link/connection
//!   any shard knows maps to exactly the live shard holding it, shards
//!   are pairwise disjoint, and no map entry dangles;
//! * **shards are unions of true components** — no connected component
//!   of the sharing graph (per the [`centralized::components`] oracle)
//!   is ever split across shards; coarser-than-exact is allowed,
//!   finer is a violation;
//! * **the planner mirrors the sequential engine bit-for-bit** — link
//!   capacities, demands, routes, resident allocation (`f64::to_bits`),
//!   non-empty bottleneck sets, and dirty state agree with the oracle
//!   fed the same ops (shard retirement may garbage-collect dirt on
//!   links no live shard knows — such dirt is vacuous, and the model
//!   proves it stays vacuous: it must be unknown to every shard);
//! * **`replan()` conserves state and never re-solves** — allocation
//!   bits, non-empty bottleneck sets, and non-vacuous dirt are
//!   identical before and after, and the engines' `incremental_solves`
//!   counter does not move;
//! * **no op sequence forces a redundant re-solve** — `resolve_all` on
//!   a clean planner performs zero incremental solves and changes no
//!   allocation bit;
//! * **resolves are exact** — after every resolve, the merged
//!   allocation is bit-identical to the sequential oracle *and* to a
//!   from-scratch [`centralized::MaxminProblem::solve`] on the same
//!   inputs.
//!
//! States are keyed on a canonicalization of
//! [`ShardedMaxmin::shard_view`] plus the oracle's full state, with
//! shard *slot numbers* erased: two planners that differ only in slot
//! assignment are bisimilar (merge tie-breaks and free-slot reuse pick
//! slots, but the resulting shard *contents* are identical), so this is
//! a sound symmetry reduction. Facade stats and the churn counter are
//! excluded (informational; auto-replan is disabled via
//! `with_replan_churn(0)` so replans happen only as explicit ops).
//!
//! [`ShardedMutant`] carries the seeded known-bad variants
//! (checker-of-the-checker, mirroring `maxmin::MaxminMutant`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};

use arm_net::ids::{ConnId, LinkId};
use arm_qos::maxmin::centralized;
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use arm_qos::maxmin::sharded::ShardedMaxmin;
use serde::Serialize;

use super::{Checker, Counterexample, Stats, TransitionSystem};

/// Seeded known-bad variants of the planner-model semantics. Each must
/// be caught with a counterexample trace (`tests/mutants.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardedMutant {
    /// Faithful model of the shipped planner.
    #[default]
    None,
    /// `remove_link` forgets the routing-map cleanup: the model keeps a
    /// ghost `link → shard` entry for every link the planner unmapped,
    /// emulating a planner that leaves the stale entry behind. Violates
    /// routing-map consistency.
    SkipRemoveLinkCleanup,
    /// `replan()` force-resolves every shard it touched instead of
    /// moving resident state. Violates replan conservation (a replan
    /// must never perform a solve).
    ReplanResolves,
}

/// One connection in a topology palette: identity, excess demand, and
/// one or more candidate routes (the first is the default; additional
/// routes enable rehoming ops).
#[derive(Clone, Debug)]
pub struct ConnSpec {
    /// Connection identity.
    pub id: ConnId,
    /// Excess demand `b_max − b_min`.
    pub demand: f64,
    /// Candidate routes, each a non-empty link list.
    pub routes: Vec<Vec<LinkId>>,
}

/// Which palette elements the op alphabet may add/remove. Elements
/// outside the churn set stay fixed for the whole run, which keeps the
/// richer built topologies inside the state budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Churn {
    /// This link may be removed / re-added.
    Link(LinkId),
    /// This connection may be removed / re-added / rehomed.
    Conn(ConnId),
}

/// A bounded planner-model instance: a palette of links and
/// connections, an op alphabet derived from the churn set, and
/// optionally a fully-built (and resolved) initial state.
pub struct ShardedSystem {
    name: String,
    links: Vec<(LinkId, f64)>,
    conns: Vec<ConnSpec>,
    churn: BTreeSet<Churn>,
    /// Start with every palette element present and resolved (built
    /// topologies); otherwise start empty (family sweep).
    start_built: bool,
    mutant: ShardedMutant,
}

/// Canonical per-shard content with the slot number erased.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct ShardKey {
    links: Vec<u32>,
    conns: Vec<u32>,
    dirty: Vec<u32>,
    alloc: Vec<(u32, u64)>,
}

/// The visited-set key: oracle state + slot-erased partition.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    violation: Option<String>,
    link_excess: Vec<(u32, u64)>,
    conns: Vec<(u32, u64, Vec<u32>)>,
    alloc: Vec<(u32, u64)>,
    dirty: Vec<u32>,
    bottleneck: Vec<(u32, Vec<u32>)>,
    shards: Vec<ShardKey>,
    ghosts: Vec<u32>,
}

/// One explicit state: the real planner, the sequential oracle, mutant
/// bookkeeping, and any violation detected while applying the last op.
#[derive(Clone)]
pub struct ShardedState {
    sh: ShardedMaxmin,
    seq: IncrementalMaxmin,
    /// Mutant bookkeeping: routing entries a buggy `remove_link` would
    /// have left behind (`link → stale slot`).
    ghosts: BTreeMap<LinkId, u32>,
    violation: Option<String>,
    key: Key,
}

impl PartialEq for ShardedState {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for ShardedState {}
impl PartialOrd for ShardedState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ShardedState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}
impl Hash for ShardedState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}
impl fmt::Debug for ShardedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedState")
            .field("key", &self.key)
            .field("shard_view", &self.sh.shard_view())
            .finish_non_exhaustive()
    }
}

/// Bit-exact image of an allocation.
fn alloc_bits(alloc: &BTreeMap<ConnId, f64>) -> Vec<(u32, u64)> {
    alloc.iter().map(|(c, x)| (c.0, x.to_bits())).collect()
}

/// Non-empty bottleneck rows (empty rows are inert bookkeeping that
/// shard retirement may drop; see module docs).
fn nonempty_rows(map: &BTreeMap<LinkId, BTreeSet<ConnId>>) -> Vec<(u32, Vec<u32>)> {
    map.iter()
        .filter(|(_, m)| !m.is_empty())
        .map(|(l, m)| (l.0, m.iter().map(|c| c.0).collect()))
        .collect()
}

fn make_key(
    sh: &ShardedMaxmin,
    seq: &IncrementalMaxmin,
    ghosts: &BTreeMap<LinkId, u32>,
    violation: &Option<String>,
) -> Key {
    let view = sh.shard_view();
    let mut shards: Vec<ShardKey> = view
        .shards
        .iter()
        .map(|e| ShardKey {
            links: e.links.iter().map(|l| l.0).collect(),
            conns: e.conns.iter().map(|c| c.0).collect(),
            dirty: e.dirty.iter().map(|l| l.0).collect(),
            alloc: e.alloc_bits.iter().map(|(c, b)| (c.0, *b)).collect(),
        })
        .collect();
    shards.sort();
    Key {
        violation: violation.clone(),
        link_excess: seq
            .link_excess_map()
            .iter()
            .map(|(l, x)| (l.0, x.to_bits()))
            .collect(),
        conns: seq
            .conns_map()
            .iter()
            .map(|(c, d)| {
                (
                    c.0,
                    d.demand.to_bits(),
                    d.links.iter().map(|l| l.0).collect(),
                )
            })
            .collect(),
        alloc: alloc_bits(seq.allocation()),
        dirty: seq.dirty_links().iter().map(|l| l.0).collect(),
        bottleneck: nonempty_rows(seq.bottleneck_map()),
        shards,
        ghosts: ghosts.keys().map(|l| l.0).collect(),
    }
}

/// The op alphabet, derived per-state from presence and the churn set.
#[derive(Clone, Debug)]
enum Op {
    AddLink(LinkId, f64),
    RemoveLink(LinkId),
    AddConn(ConnId, f64, Vec<LinkId>),
    RemoveConn(ConnId),
    Rehome(ConnId, f64, Vec<LinkId>),
    Resolve,
    Replan,
}

impl ShardedSystem {
    /// A built topology: all palette elements present and resolved at
    /// the initial state, only `churn` elements toggleable.
    #[must_use]
    pub fn built(
        name: &str,
        links: Vec<(LinkId, f64)>,
        conns: Vec<ConnSpec>,
        churn: impl IntoIterator<Item = Churn>,
    ) -> Self {
        ShardedSystem {
            name: name.to_string(),
            links,
            conns,
            churn: churn.into_iter().collect(),
            start_built: true,
            mutant: ShardedMutant::None,
        }
    }

    /// A from-empty instance with every palette element churnable (the
    /// exhaustive small-family configuration).
    #[must_use]
    pub fn from_empty(name: &str, links: Vec<(LinkId, f64)>, conns: Vec<ConnSpec>) -> Self {
        let churn = links
            .iter()
            .map(|(l, _)| Churn::Link(*l))
            .chain(conns.iter().map(|c| Churn::Conn(c.id)))
            .collect();
        ShardedSystem {
            name: name.to_string(),
            links,
            conns,
            churn,
            start_built: false,
            mutant: ShardedMutant::None,
        }
    }

    /// The instance's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Swap in a seeded known-bad variant.
    #[must_use]
    pub fn with_mutant(mut self, mutant: ShardedMutant) -> Self {
        self.mutant = mutant;
        self
    }

    fn fresh(sh: ShardedMaxmin, seq: IncrementalMaxmin) -> ShardedState {
        let ghosts = BTreeMap::new();
        let key = make_key(&sh, &seq, &ghosts, &None);
        ShardedState {
            sh,
            seq,
            ghosts,
            violation: None,
            key,
        }
    }

    /// Enabled ops at `s` (presence-dependent; see [`Churn`]).
    fn ops(&self, s: &ShardedState) -> Vec<(String, Op)> {
        let mut out = Vec::new();
        for (l, x) in &self.links {
            if !self.churn.contains(&Churn::Link(*l)) {
                continue;
            }
            if s.seq.link_excess_map().contains_key(l) {
                out.push((format!("remove-link-{l}"), Op::RemoveLink(*l)));
            } else {
                out.push((format!("add-link-{l}"), Op::AddLink(*l, *x)));
            }
        }
        for c in &self.conns {
            if !self.churn.contains(&Churn::Conn(c.id)) {
                continue;
            }
            match s.seq.conns_map().get(&c.id) {
                Some(cur) => {
                    out.push((format!("remove-conn-{}", c.id), Op::RemoveConn(c.id)));
                    for (r, route) in c.routes.iter().enumerate() {
                        if cur.links != *route {
                            out.push((
                                format!("rehome-conn-{}-r{r}", c.id),
                                Op::Rehome(c.id, c.demand, route.clone()),
                            ));
                        }
                    }
                }
                None => {
                    for (r, route) in c.routes.iter().enumerate() {
                        out.push((
                            format!("add-conn-{}-r{r}", c.id),
                            Op::AddConn(c.id, c.demand, route.clone()),
                        ));
                    }
                }
            }
        }
        out.push(("resolve".to_string(), Op::Resolve));
        out.push(("replan".to_string(), Op::Replan));
        out
    }

    /// Apply `op` to both engines, running the transition-level checks
    /// (replan conservation, no-redundant-resolve, oracle exactness).
    /// A failed check is recorded in `violation`; the invariant turns
    /// it into a counterexample at the successor state.
    #[allow(clippy::too_many_lines)]
    fn apply(&self, s: &ShardedState, op: &Op) -> ShardedState {
        let mut n = s.clone();
        match op {
            Op::AddLink(l, x) => {
                n.sh.set_link_excess(*l, *x);
                n.seq.set_link_excess(*l, *x);
                // A re-added link is mapped again; its ghost (mutant
                // bookkeeping) is satisfied and retired.
                n.ghosts.remove(l);
            }
            Op::RemoveLink(l) => {
                let was_mapped = s.sh.shard_view().link_shard.get(l).copied();
                n.sh.remove_link(*l);
                n.seq.remove_link(*l);
                if self.mutant == ShardedMutant::SkipRemoveLinkCleanup {
                    if let Some(slot) = was_mapped {
                        if !n.sh.shard_view().link_shard.contains_key(l) {
                            // The planner unmapped the link; a buggy
                            // planner would have kept this entry.
                            n.ghosts.insert(*l, slot);
                        }
                    }
                }
            }
            Op::AddConn(c, d, route) | Op::Rehome(c, d, route) => {
                n.sh.upsert_conn(*c, *d, route);
                n.seq.upsert_conn(*c, *d, route);
                for l in route {
                    n.ghosts.remove(l);
                }
            }
            Op::RemoveConn(c) => {
                n.sh.remove_conn(*c);
                n.seq.remove_conn(*c);
            }
            Op::Resolve => {
                let was_dirty = n.sh.is_dirty();
                let solves_before = n.sh.engine_stats().incremental_solves;
                let alloc_before = alloc_bits(&n.sh.merged_allocation());
                n.sh.resolve_all(None);
                n.seq.resolve();
                let solves = n.sh.engine_stats().incremental_solves - solves_before;
                if !was_dirty && solves > 0 {
                    n.fail(format!(
                        "redundant re-solve: resolve_all on a clean planner \
                         performed {solves} incremental solves"
                    ));
                } else if !was_dirty && alloc_bits(&n.sh.merged_allocation()) != alloc_before {
                    n.fail("clean resolve changed allocation bits".to_string());
                } else if n.sh.is_dirty() {
                    n.fail("resolve_all left dirty shards behind".to_string());
                } else {
                    // Exactness oracle: bit-identical to from-scratch.
                    let merged = n.sh.merged_allocation();
                    let fresh = n.sh.as_problem().solve();
                    if alloc_bits(&merged) != alloc_bits(&fresh) {
                        n.fail(
                            "resolved allocation diverges from a from-scratch \
                             MaxminProblem::solve on the same inputs"
                                .to_string(),
                        );
                    }
                }
            }
            Op::Replan => {
                let alloc_before = alloc_bits(&n.sh.merged_allocation());
                let bn_before = nonempty_rows(&n.sh.bottleneck_union());
                let dirty_before = n.sh.dirty_union();
                let solves_before = n.sh.engine_stats().incremental_solves;
                n.sh.replan();
                if self.mutant == ShardedMutant::ReplanResolves {
                    n.sh.resolve_all(None);
                }
                let solves = n.sh.engine_stats().incremental_solves - solves_before;
                if solves > 0 {
                    n.fail(format!(
                        "replan forced a re-solve ({solves} incremental solves)"
                    ));
                } else if alloc_bits(&n.sh.merged_allocation()) != alloc_before {
                    n.fail("replan changed allocation bits".to_string());
                } else if nonempty_rows(&n.sh.bottleneck_union()) != bn_before {
                    n.fail("replan changed bottleneck sets".to_string());
                } else {
                    // Dirt may only be garbage-collected if vacuous:
                    // nothing new, and everything dropped must be
                    // unknown to every surviving shard.
                    let dirty_after = n.sh.dirty_union();
                    let known: BTreeSet<LinkId> =
                        n.sh.shard_view().link_shard.keys().copied().collect();
                    if let Some(invented) = dirty_after.difference(&dirty_before).next() {
                        n.fail(format!("replan invented dirt on {invented}"));
                    } else if let Some(lost) = dirty_before
                        .difference(&dirty_after)
                        .find(|l| known.contains(l))
                    {
                        n.fail(format!("replan dropped live dirt on {lost}"));
                    }
                }
            }
        }
        n.key = make_key(&n.sh, &n.seq, &n.ghosts, &n.violation);
        n
    }
}

impl ShardedState {
    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
    }
}

impl TransitionSystem for ShardedSystem {
    type State = ShardedState;

    fn initial(&self) -> ShardedState {
        let mut sh = ShardedMaxmin::new().with_replan_churn(0);
        let mut seq = IncrementalMaxmin::new();
        if self.start_built {
            for (l, x) in &self.links {
                sh.set_link_excess(*l, *x);
                seq.set_link_excess(*l, *x);
            }
            for c in &self.conns {
                sh.upsert_conn(c.id, c.demand, &c.routes[0]);
                seq.upsert_conn(c.id, c.demand, &c.routes[0]);
            }
            sh.resolve_all(None);
            seq.resolve();
        }
        Self::fresh(sh, seq)
    }

    fn successors(&self, s: &ShardedState) -> Vec<(String, ShardedState)> {
        if s.violation.is_some() {
            // Terminal: the invariant reports it at this state.
            return Vec::new();
        }
        self.ops(s)
            .into_iter()
            .map(|(label, op)| (label, self.apply(s, &op)))
            .collect()
    }

    #[allow(clippy::too_many_lines)]
    fn invariant(&self, s: &ShardedState) -> Result<(), String> {
        if let Some(v) = &s.violation {
            return Err(v.clone());
        }
        // Routing maps: total, consistent, shards pairwise disjoint —
        // the planner's own predicate, the one snapshot restore runs.
        s.sh.check_routing()?;
        let view = s.sh.shard_view();
        // Mutant bookkeeping: entries a buggy remove_link would retain.
        for (l, slot) in &s.ghosts {
            let held = view
                .shards
                .iter()
                .any(|e| e.slot == *slot && e.links.contains(l));
            if !held {
                return Err(format!(
                    "routing map retains removed link {l} → shard {slot} \
                     (stale entry after remove_link)"
                ));
            }
        }
        // Shards are unions of true sharing-graph components.
        for comp in centralized::components(s.seq.conns_map(), s.seq.link_index_map()) {
            let slots: BTreeSet<Option<u32>> = comp
                .iter()
                .map(|c| view.conn_shard.get(c).copied())
                .collect();
            if slots.len() > 1 {
                return Err(format!("component {comp:?} split across shards {slots:?}"));
            }
        }
        // Input mirror: the union problem equals the oracle's, bit-wise.
        let sp = s.sh.as_problem();
        let qp = s.seq.as_problem();
        if sp.link_excess.len() != qp.link_excess.len()
            || sp
                .link_excess
                .iter()
                .zip(&qp.link_excess)
                .any(|((la, xa), (lb, xb))| la != lb || xa.to_bits() != xb.to_bits())
        {
            return Err(format!(
                "link inputs diverge from the sequential oracle: planner \
                 {:?} vs oracle {:?}",
                sp.link_excess, qp.link_excess
            ));
        }
        if sp.conns.len() != qp.conns.len()
            || sp.conns.iter().zip(&qp.conns).any(|((ca, da), (cb, db))| {
                ca != cb || da.demand.to_bits() != db.demand.to_bits() || da.links != db.links
            })
        {
            return Err("connection inputs diverge from the sequential oracle".to_string());
        }
        // Resident-state mirror: allocation bits, non-empty bottleneck
        // rows, and dirt (vacuous dirt excepted — see module docs).
        if alloc_bits(&s.sh.merged_allocation()) != alloc_bits(s.seq.allocation()) {
            return Err("resident allocation diverges from the sequential oracle".to_string());
        }
        if nonempty_rows(&s.sh.bottleneck_union()) != nonempty_rows(s.seq.bottleneck_map()) {
            return Err("bottleneck sets diverge from the sequential oracle".to_string());
        }
        let sh_dirty = s.sh.dirty_union();
        let seq_dirty = s.seq.dirty_links();
        if let Some(extra) = sh_dirty.difference(seq_dirty).next() {
            return Err(format!("planner invented dirt on {extra}"));
        }
        if let Some(lost) = seq_dirty
            .difference(&sh_dirty)
            .find(|l| view.link_shard.contains_key(l))
        {
            return Err(format!("planner lost live dirt on {lost}"));
        }
        Ok(())
    }

    fn on_quiescent(&self, _s: &ShardedState) -> Result<(), String> {
        // `resolve` is always enabled, so no state is quiescent.
        Ok(())
    }
}

/// Aggregate results of the sharded-planner sweep.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ShardedSweepReport {
    /// Model-check runs performed (one per instance).
    pub runs: usize,
    /// Total distinct states across runs.
    pub states: usize,
    /// Total transitions across runs.
    pub transitions: usize,
    /// Wall time of the sweep in milliseconds.
    pub elapsed_ms: u64,
}

fn lid(i: u32) -> LinkId {
    LinkId(i)
}
fn cid(i: u32) -> ConnId {
    ConnId(i)
}
fn conn(id: u32, demand: f64, route: &[u32]) -> ConnSpec {
    ConnSpec {
        id: cid(id),
        demand,
        routes: vec![route.iter().map(|l| lid(*l)).collect()],
    }
}

/// Capacity palette (cycled per link index) and demand palette (cycled
/// per connection): mixed tight/loose values with fractional parts so
/// bit-exactness is a real claim.
const CAPS: [f64; 4] = [10.0, 4.5, 6.0, 8.25];
const DEMANDS: [f64; 4] = [100.0, 2.5, 100.0, 3.75];

/// The exhaustive from-empty family: every topology with ≤3 links and
/// ≤3 connections (routes over any non-empty link subset, multisets
/// allowed; the 3-link tier is capped at 2 connections to bound the op
/// alphabet), with every element churnable.
fn family() -> Vec<ShardedSystem> {
    let mut out = Vec::new();
    for n_links in 1u32..=3 {
        let links: Vec<(LinkId, f64)> = (0..n_links)
            .map(|l| (lid(l), CAPS[l as usize % CAPS.len()]))
            .collect();
        let routes: Vec<Vec<u32>> = (1u32..(1 << n_links))
            .map(|mask| (0..n_links).filter(|l| mask & (1 << l) != 0).collect())
            .collect();
        let max_conns = if n_links == 3 { 2 } else { 3 };
        for n_conns in 1usize..=max_conns {
            // Non-decreasing route-index vectors = route multisets.
            let mut pick = vec![0usize; n_conns];
            'multisets: loop {
                let conns: Vec<ConnSpec> = pick
                    .iter()
                    .enumerate()
                    .map(|(c, r)| conn(c as u32, DEMANDS[c % DEMANDS.len()], &routes[*r]))
                    .collect();
                let name = format!("sharded/family-l{n_links}-{pick:?}");
                out.push(ShardedSystem::from_empty(&name, links.clone(), conns));
                // Advance to the next non-decreasing vector; done when
                // every position is saturated.
                let mut i = n_conns;
                loop {
                    if i == 0 {
                        break 'multisets;
                    }
                    i -= 1;
                    if pick[i] + 1 < routes.len() {
                        pick[i] += 1;
                        let v = pick[i];
                        for p in pick.iter_mut().skip(i + 1) {
                            *p = v;
                        }
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Canonical built topologies at the ≤4-link/≤6-conn bound, each with a
/// small churn set chosen to exercise one planner mechanism: merges
/// (re-adding a spanning conn), removal coarsening + replan splits,
/// singleton shards for orphan capacity links, and rehoming.
fn canonical() -> Vec<ShardedSystem> {
    vec![
        // Two links coupled by a spanning conn; churn the coupler and
        // one link: merge, coarsen, split.
        ShardedSystem::built(
            "sharded/coupler",
            vec![(lid(0), 10.0), (lid(1), 6.0)],
            vec![
                conn(0, 4.0, &[0]),
                conn(1, 5.5, &[1]),
                conn(2, 3.0, &[0, 1]),
            ],
            [
                Churn::Conn(cid(2)),
                Churn::Link(lid(1)),
                Churn::Conn(cid(1)),
            ],
        ),
        // A 4-link chain; removing the middle conn disconnects it.
        ShardedSystem::built(
            "sharded/chain4",
            vec![(lid(0), 8.0), (lid(1), 4.5), (lid(2), 7.0), (lid(3), 9.25)],
            vec![
                conn(0, 100.0, &[0, 1]),
                conn(1, 2.5, &[1, 2]),
                conn(2, 100.0, &[2, 3]),
                conn(3, 3.75, &[3]),
            ],
            [Churn::Conn(cid(1)), Churn::Conn(cid(3))],
        ),
        // The bound: 4 links, 6 conns, a hub conn spanning everything.
        ShardedSystem::built(
            "sharded/star6",
            vec![(lid(0), 10.0), (lid(1), 4.5), (lid(2), 6.0), (lid(3), 8.25)],
            vec![
                conn(0, 100.0, &[0]),
                conn(1, 2.5, &[1]),
                conn(2, 100.0, &[2]),
                conn(3, 3.75, &[3]),
                conn(4, 5.0, &[0, 1, 2, 3]),
                conn(5, 1.25, &[1]),
            ],
            [
                Churn::Conn(cid(4)),
                Churn::Link(lid(0)),
                Churn::Conn(cid(5)),
            ],
        ),
        // An orphan capacity-only link (singleton shard) plus conn
        // churn — the remove_link cleanup path end to end.
        ShardedSystem::built(
            "sharded/orphan",
            vec![(lid(0), 10.0), (lid(1), 4.5), (lid(2), 6.0)],
            vec![conn(0, 100.0, &[0]), conn(1, 2.5, &[1])],
            [Churn::Link(lid(2)), Churn::Conn(cid(1))],
        ),
        // A conn with two candidate routes: rehoming is the planner's
        // remove-then-reinsert path, including shard hand-off.
        ShardedSystem::built(
            "sharded/rehome",
            vec![(lid(0), 10.0), (lid(1), 4.5)],
            vec![
                ConnSpec {
                    id: cid(0),
                    demand: 6.0,
                    routes: vec![vec![lid(0)], vec![lid(1)], vec![lid(0), lid(1)]],
                },
                conn(1, 2.5, &[0]),
            ],
            [Churn::Conn(cid(0))],
        ),
    ]
}

/// The orphan-link instance (exposed for the mutant self-tests: its
/// `remove-link-l2` op exercises the routing-map cleanup path).
#[must_use]
pub fn orphan_instance() -> ShardedSystem {
    canonical()
        .into_iter()
        .find(|s| s.name() == "sharded/orphan")
        .expect("invariant: canonical set contains the orphan instance")
}

/// The coupler instance (exposed for the replan mutant self-test).
#[must_use]
pub fn coupler_instance() -> ShardedSystem {
    canonical()
        .into_iter()
        .find(|s| s.name() == "sharded/coupler")
        .expect("invariant: canonical set contains the coupler instance")
}

/// Model-check the planner on the exhaustive small family plus the
/// canonical built topologies. Returns the aggregate report, or the
/// first counterexample.
pub fn sweep_sharded() -> Result<ShardedSweepReport, Box<Counterexample>> {
    let start = std::time::Instant::now();
    let mut report = ShardedSweepReport::default();
    // States are heavyweight (two live engines each); the budget bounds
    // memory as well as time. Every instance below fits comfortably.
    let checker = Checker {
        max_states: 200_000,
    };
    for sys in family().into_iter().chain(canonical()) {
        let stats: Stats = checker.run(sys.name(), &sys).map_err(Box::new)?;
        report.runs += 1;
        report.states += stats.states;
        report.transitions += stats.transitions;
        if std::env::var_os("ARM_CHECK_SWEEP_DEBUG").is_some() {
            eprintln!(
                "[sharded] {}: {} states, {} transitions",
                sys.name(),
                stats.states,
                stats.transitions
            );
        }
    }
    report.elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_instances_verify() {
        let checker = Checker {
            max_states: 400_000,
        };
        for sys in family() {
            let stats = checker
                .run(sys.name(), &sys)
                .unwrap_or_else(|cx| panic!("family instance failed:\n{cx}"));
            if std::env::var_os("ARM_CHECK_SWEEP_DEBUG").is_some() {
                eprintln!("[family] {}: {stats:?}", sys.name());
            }
        }
    }

    #[test]
    fn canonical_instances_verify() {
        for sys in canonical() {
            let stats = Checker::default()
                .run(sys.name(), &sys)
                .unwrap_or_else(|cx| panic!("canonical instance failed:\n{cx}"));
            assert!(stats.states > 2, "{} explored nothing", sys.name());
        }
    }

    #[test]
    fn sweep_verifies() {
        let report = sweep_sharded().expect("bounded planner family verified");
        assert!(report.runs >= 10);
        assert!(report.states > 1_000, "suspiciously small: {report:?}");
    }

    #[test]
    fn skip_cleanup_mutant_is_caught() {
        let cx = Checker::default()
            .run(
                "sharded/orphan+mutant",
                &orphan_instance().with_mutant(ShardedMutant::SkipRemoveLinkCleanup),
            )
            .expect_err("mutant must be caught");
        assert!(
            cx.property.contains("retains removed link"),
            "{}",
            cx.property
        );
        assert!(!cx.steps.is_empty());
    }

    #[test]
    fn replan_resolve_mutant_is_caught() {
        let cx = Checker::default()
            .run(
                "sharded/coupler+mutant",
                &coupler_instance().with_mutant(ShardedMutant::ReplanResolves),
            )
            .expect_err("mutant must be caught");
        assert!(
            cx.property.contains("replan forced a re-solve"),
            "{}",
            cx.property
        );
    }
}
