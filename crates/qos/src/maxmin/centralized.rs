//! Centralized water-filling reference solver.
//!
//! Computes the exact maxmin-fair allocation of excess bandwidth by
//! progressive filling: raise every active connection's excess rate
//! uniformly until a link saturates or a connection reaches its demand;
//! freeze those; repeat. This is the ground truth the distributed
//! protocol (§5.3.1, Theorem 1) must converge to, and the synchronous
//! solver used by the large-scale experiments where simulating control
//! packets per adaptation would dominate run time.

use std::collections::{BTreeMap, BTreeSet};

use arm_net::ids::{ConnId, LinkId};
use arm_net::{DenseInterner, Network};
use arm_sim::Audited;

/// A maxmin allocation problem over excess capacities and excess demands.
///
/// ```
/// use arm_net::ids::{ConnId, LinkId};
/// use arm_qos::maxmin::centralized::{ConnDemand, MaxminProblem};
///
/// // The classic two-link chain: a long flow crosses both links, one
/// // cross flow per link; capacities 10 and 4.
/// let mut p = MaxminProblem::default();
/// p.link_excess.insert(LinkId(0), 10.0);
/// p.link_excess.insert(LinkId(1), 4.0);
/// p.conns.insert(ConnId(0), ConnDemand { demand: 100.0, links: vec![LinkId(0), LinkId(1)] });
/// p.conns.insert(ConnId(1), ConnDemand { demand: 100.0, links: vec![LinkId(0)] });
/// p.conns.insert(ConnId(2), ConnDemand { demand: 100.0, links: vec![LinkId(1)] });
///
/// let alloc = p.solve();
/// assert!((alloc[&ConnId(0)] - 2.0).abs() < 1e-9); // bottlenecked on link 1
/// assert!((alloc[&ConnId(1)] - 8.0).abs() < 1e-9); // takes link 0's slack
/// assert!(p.verify_maxmin(&alloc).is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct MaxminProblem {
    /// Excess capacity per link (`b'_av,l ≥ 0`).
    pub link_excess: BTreeMap<LinkId, f64>,
    /// Per connection: excess demand (`b_max − b_min`) and traversed links.
    pub conns: BTreeMap<ConnId, ConnDemand>,
}

/// One connection's demand side.
#[derive(Clone, Debug)]
pub struct ConnDemand {
    /// `b_max − b_min`.
    pub demand: f64,
    /// Links the connection traverses.
    pub links: Vec<LinkId>,
}

/// The solved allocation: excess rate per connection.
pub type Allocation = BTreeMap<ConnId, f64>;

impl MaxminProblem {
    /// Extract the problem from the network's current ledgers: excess
    /// capacity from each link, demand `b_max − b_min` from each live
    /// connection.
    pub fn from_network(net: &Network) -> Self {
        let mut p = MaxminProblem::default();
        for c in net.live_connections() {
            if c.route.links.is_empty() {
                continue;
            }
            p.conns.insert(
                c.id,
                ConnDemand {
                    demand: c.qos.adaptable_range(),
                    links: c.route.links.clone(),
                },
            );
        }
        for i in 0..net.topology().link_count() {
            let lid = LinkId::from_index(i);
            p.link_excess
                .insert(lid, net.link(lid).excess_available().max(0.0));
        }
        p
    }

    /// Solve by progressive filling. Runs in O((links + conns)²) in the
    /// worst case, which is trivial at the scale of indoor environments.
    ///
    /// Internally the problem is lowered onto the dense slot-indexed
    /// `DenseState`, decomposed into the connected components of the
    /// bipartite link/connection sharing graph, and each component is
    /// filled independently by `DenseState::solve_component_dense` —
    /// the *same* kernel the incremental engine
    /// ([`crate::maxmin::incremental`]) runs on its resident state, so a
    /// partial re-solve is bit-identical to a from-scratch one. (The
    /// map-walking [`solve_component`] reference stays as the
    /// differential oracle the property tests compare both against.)
    pub fn solve(&self) -> Allocation {
        let mut alloc: Allocation = self.conns.keys().map(|c| (*c, 0.0)).collect();
        let mut dense = DenseState::from_problem(self);
        let mut bfs = CompScratch::default();
        let mut scratch = SolveScratch::default();
        bfs.begin(dense.links.slot_count(), dense.conns.slot_count());
        // Every component touches at least one link, so seeding a BFS
        // from every known link slot enumerates all components exactly
        // once (components are disjoint, so visit order is immaterial).
        let seeds: Vec<u32> = dense.links.iter().map(|(_, s)| s).collect();
        for seed in seeds {
            dense.component_of(seed, &mut bfs);
            if bfs.comp.is_empty() {
                continue;
            }
            let mut comp = std::mem::take(&mut bfs.comp);
            comp.sort_unstable_by_key(|s| dense.conns.external(*s));
            dense.solve_component_dense(&comp, &mut scratch);
            for &c in &comp {
                alloc.insert(dense.conns.external(c), dense.alloc[c as usize]);
            }
            bfs.comp = comp;
        }
        alloc
    }

    /// Verify that `alloc` satisfies the maxmin optimality criterion:
    /// feasibility, demand caps, and the no-improvement property (any
    /// unsatisfied connection has a saturated link where every other
    /// connection holding more is itself above it). Returns a description
    /// of the first violation.
    pub fn verify_maxmin(&self, alloc: &Allocation) -> Result<(), String> {
        // Feasibility per link.
        for (lid, cap) in &self.link_excess {
            let used: f64 = self
                .conns
                .iter()
                .filter(|(_, d)| d.links.contains(lid))
                .map(|(c, _)| alloc.get(c).copied().unwrap_or(0.0))
                .sum();
            if used > cap + 1e-6 {
                return Err(format!("{lid:?} overloaded: {used} > {cap}"));
            }
        }
        // Demand caps and nonnegativity.
        for (c, d) in &self.conns {
            let x = alloc.get(c).copied().unwrap_or(0.0);
            if x < -1e-9 {
                return Err(format!("{c:?} negative rate {x}"));
            }
            if x > d.demand + 1e-6 {
                return Err(format!("{c:?} above demand: {x} > {}", d.demand));
            }
        }
        // Maxmin property: an unsatisfied connection must sit on a
        // bottleneck — a saturated link where no connection with a larger
        // allocation could yield to it.
        for (c, d) in &self.conns {
            let x = alloc.get(c).copied().unwrap_or(0.0);
            if x >= d.demand - 1e-6 {
                continue; // satisfied
            }
            let has_bottleneck = d.links.iter().any(|lid| {
                let cap = self.link_excess.get(lid).copied().unwrap_or(0.0);
                let used: f64 = self
                    .conns
                    .iter()
                    .filter(|(_, dd)| dd.links.contains(lid))
                    .map(|(cc, _)| alloc.get(cc).copied().unwrap_or(0.0))
                    .sum();
                let saturated = used >= cap - 1e-6;
                let is_max_holder = self
                    .conns
                    .iter()
                    .filter(|(_, dd)| dd.links.contains(lid))
                    .all(|(cc, _)| alloc.get(cc).copied().unwrap_or(0.0) <= x + 1e-6);
                saturated && is_max_holder
            });
            if !has_bottleneck {
                return Err(format!(
                    "{c:?} unsatisfied at {x} but has no bottleneck link"
                ));
            }
        }
        Ok(())
    }
}

/// Build the reverse `LinkId → [ConnId]` index for a set of connection
/// demands. Each connection appears at most once per link (routes are
/// simple, but duplicates are tolerated), and members are listed in
/// ascending `ConnId` order — the same order the per-round headroom sums
/// used to visit them, so float summation order is preserved.
pub fn link_index(conns: &BTreeMap<ConnId, ConnDemand>) -> BTreeMap<LinkId, Vec<ConnId>> {
    let mut idx: BTreeMap<LinkId, Vec<ConnId>> = BTreeMap::new();
    for (c, d) in conns {
        for l in &d.links {
            let members = idx.entry(*l).or_default();
            if members.last() != Some(c) {
                members.push(*c);
            }
        }
    }
    idx
}

/// Decompose the bipartite link/connection sharing graph into connected
/// components. Connections with an empty route are excluded (their
/// allocation is always 0); zero-demand connections stay in — they never
/// receive an increment but keep component membership stable under
/// demand changes. Components are returned in ascending order of their
/// smallest `ConnId`, members sorted.
pub fn components(
    conns: &BTreeMap<ConnId, ConnDemand>,
    index: &BTreeMap<LinkId, Vec<ConnId>>,
) -> Vec<Vec<ConnId>> {
    let ids: Vec<ConnId> = conns
        .iter()
        .filter(|(_, d)| !d.links.is_empty())
        .map(|(c, _)| *c)
        .collect();
    let pos: BTreeMap<ConnId, usize> = ids.iter().enumerate().map(|(i, c)| (*c, i)).collect();
    let mut parent: Vec<usize> = (0..ids.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for members in index.values() {
        let mut it = members.iter().filter_map(|c| pos.get(c).copied());
        if let Some(first) = it.next() {
            let root = find(&mut parent, first);
            for m in it {
                let r = find(&mut parent, m);
                parent[r] = root;
            }
        }
    }
    let mut comps: BTreeMap<usize, Vec<ConnId>> = BTreeMap::new();
    for (i, c) in ids.iter().enumerate() {
        let root = find(&mut parent, i);
        comps.entry(root).or_default().push(*c);
    }
    // BTreeMap keys are root *positions*; positions follow ConnId order,
    // so values() already comes out ordered by smallest member. Members
    // were pushed in ascending `ids` order, hence sorted.
    comps.into_values().collect()
}

/// Progressive filling restricted to one connected component: raise every
/// active member uniformly until a link saturates or a demand is met,
/// freeze, repeat. Entries of `alloc` for `comp` members are reset to 0
/// first; entries outside `comp` are never read or written (links of a
/// component are traversed only by its members, so headroom sums see
/// component allocations only).
pub fn solve_component(
    link_excess: &BTreeMap<LinkId, f64>,
    conns: &BTreeMap<ConnId, ConnDemand>,
    index: &BTreeMap<LinkId, Vec<ConnId>>,
    comp: &[ConnId],
    alloc: &mut Allocation,
) {
    for c in comp {
        alloc.insert(*c, 0.0);
    }
    let mut active: Vec<ConnId> = comp
        .iter()
        .filter(|c| conns[c].demand > 0.0)
        .copied()
        .collect();
    let mut is_active: BTreeSet<ConnId> = active.iter().copied().collect();
    // The component's links, ascending, restricted to known capacities —
    // links absent from `link_excess` impose no limit, as before.
    let comp_links: Vec<LinkId> = comp
        .iter()
        .flat_map(|c| conns[c].links.iter().copied())
        .filter(|l| link_excess.contains_key(l))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut guard = comp.len() + comp_links.len() + 2;
    while !active.is_empty() && guard > 0 {
        guard -= 1;
        // Headroom and active-connection count per component link.
        let mut headroom: Vec<(LinkId, f64, usize)> = Vec::with_capacity(comp_links.len());
        for lid in &comp_links {
            let members = index.get(lid).map_or(&[][..], Vec::as_slice);
            let mut used = 0.0;
            let mut n_active = 0usize;
            for c in members {
                used += alloc[c];
                if is_active.contains(c) {
                    n_active += 1;
                }
            }
            if n_active > 0 {
                let cap = link_excess[lid];
                headroom.push((*lid, (cap - used).max(0.0), n_active));
            }
        }
        // Largest uniform raise permitted by links and demands.
        let link_limit = headroom
            .iter()
            .map(|(_, h, n)| h / *n as f64)
            .fold(f64::INFINITY, f64::min);
        let demand_limit = active
            .iter()
            .map(|c| conns[c].demand - alloc[c])
            .fold(f64::INFINITY, f64::min);
        let inc = link_limit.min(demand_limit).max(0.0);
        for c in &active {
            *alloc.get_mut(c).invariant("active conn in alloc") += inc;
        }
        // Freeze: demand met, or on a saturated link.
        let saturated: Vec<LinkId> = headroom
            .iter()
            .filter(|(_, h, n)| h / *n as f64 <= inc + 1e-12)
            .map(|(l, _, _)| *l)
            .collect();
        let before = active.len();
        active.retain(|c| {
            let d = &conns[c];
            let demand_met = alloc[c] >= d.demand - 1e-12;
            let on_saturated = d.links.iter().any(|l| saturated.binary_search(l).is_ok());
            if !(demand_met || on_saturated) {
                return true;
            }
            is_active.remove(c);
            false
        });
        if active.len() == before {
            // No progress is only possible when inc == 0 on links with
            // zero headroom, which the saturated rule catches; guard
            // against float pathologies anyway.
            break;
        }
    }
}

// ----------------------------------------------------------------------
// Dense slot-indexed kernel
// ----------------------------------------------------------------------

/// Slot-indexed SoA view of a maxmin problem: external `LinkId`/`ConnId`
/// interned into dense `u32` slots, with every per-link and per-conn
/// quantity in a parallel `Vec`. This is the production layout the
/// solvers run on — the incremental engine keeps one resident as its
/// whole state and maintains it in place across churn, so a
/// steady-state resolve walks flat arrays instead of `BTreeMap` nodes
/// and allocates nothing.
///
/// The map-walking [`solve_component`] remains the reference
/// implementation; the property tests assert the two produce
/// bit-identical allocations on the same inputs.
#[derive(Clone, Debug, Default)]
pub(crate) struct DenseState {
    /// Link interner: every link known through a capacity entry *or* a
    /// registered route (route-only links carry connectivity but no
    /// constraint, mirroring unknown-link semantics).
    pub(crate) links: DenseInterner<LinkId>,
    /// Connection interner (conns with a registered demand).
    pub(crate) conns: DenseInterner<ConnId>,
    /// Excess capacity per link slot (meaningful iff `has_excess`).
    pub(crate) excess: Vec<f64>,
    /// Does this link slot have a capacity entry (`link_excess` row)?
    pub(crate) has_excess: Vec<bool>,
    /// Member conn slots per link slot, ascending *external* `ConnId` —
    /// the float-summation order of the reference implementation.
    pub(crate) members: Vec<Vec<u32>>,
    /// Excess demand per conn slot.
    pub(crate) demand: Vec<f64>,
    /// Route link slots per conn slot, in route order (dups preserved).
    pub(crate) routes: Vec<Vec<u32>>,
    /// Current allocation per conn slot.
    pub(crate) alloc: Vec<f64>,
}

impl DenseState {
    /// Intern `l`, sizing the per-link columns and resetting any state a
    /// previous occupant of a recycled slot left behind.
    pub(crate) fn ensure_link(&mut self, l: LinkId) -> u32 {
        if let Some(s) = self.links.get(l) {
            return s;
        }
        let s = self.links.intern(l);
        let i = s as usize;
        if i >= self.excess.len() {
            self.excess.resize(i + 1, 0.0);
            self.has_excess.resize(i + 1, false);
            self.members.resize_with(i + 1, Vec::new);
        }
        self.excess[i] = 0.0;
        self.has_excess[i] = false;
        self.members[i].clear();
        s
    }

    /// Intern `c`, sizing the per-conn columns and resetting recycled
    /// slot state.
    pub(crate) fn ensure_conn(&mut self, c: ConnId) -> u32 {
        if let Some(s) = self.conns.get(c) {
            return s;
        }
        let s = self.conns.intern(c);
        let i = s as usize;
        if i >= self.demand.len() {
            self.demand.resize(i + 1, 0.0);
            self.routes.resize_with(i + 1, Vec::new);
            self.alloc.resize(i + 1, 0.0);
        }
        self.demand[i] = 0.0;
        self.routes[i].clear();
        self.alloc[i] = 0.0;
        s
    }

    /// Set (or create) a link's capacity entry; returns its slot.
    pub(crate) fn set_excess(&mut self, l: LinkId, v: f64) -> u32 {
        let s = self.ensure_link(l);
        self.excess[s as usize] = v;
        self.has_excess[s as usize] = true;
        s
    }

    /// Drop a link's capacity entry. The slot survives while routes
    /// still traverse the link (connectivity without constraint) and is
    /// released once orphaned.
    pub(crate) fn remove_excess(&mut self, l: LinkId) {
        let Some(s) = self.links.get(l) else {
            return;
        };
        let i = s as usize;
        self.excess[i] = 0.0;
        self.has_excess[i] = false;
        if self.members[i].is_empty() {
            self.links.release(l);
        }
    }

    /// Register a connection (not currently present — callers detach
    /// first on re-route) with its demand and route; returns its slot.
    pub(crate) fn add_conn(&mut self, id: ConnId, demand: f64, route: &[LinkId]) -> u32 {
        debug_assert!(self.conns.get(id).is_none(), "add_conn on live conn");
        let c = self.ensure_conn(id);
        let i = c as usize;
        self.demand[i] = demand;
        self.alloc[i] = 0.0;
        for l in route {
            let ls = self.ensure_link(*l);
            // `routes` keeps duplicates (reference semantics tolerate
            // them); the member list is a set ordered by external id.
            self.routes[i].push(ls);
            let members = &mut self.members[ls as usize];
            let at = members
                .binary_search_by_key(&id, |m| self.conns.external(*m))
                .unwrap_or_else(|at| at);
            if members.get(at).copied() != Some(c) {
                members.insert(at, c);
            }
        }
        c
    }

    /// Remove a connection and release slots its departure orphans.
    pub(crate) fn remove_conn(&mut self, id: ConnId) {
        let Some(c) = self.conns.get(id) else {
            return;
        };
        let i = c as usize;
        let route = std::mem::take(&mut self.routes[i]);
        for ls in &route {
            let li = *ls as usize;
            if let Ok(at) = self.members[li].binary_search_by_key(&id, |m| self.conns.external(*m))
            {
                self.members[li].remove(at);
            }
            if self.members[li].is_empty() && !self.has_excess[li] {
                self.links.release(self.links.external(*ls));
            }
        }
        let mut route = route;
        route.clear();
        self.routes[i] = route; // hand the capacity back to the slot
        self.demand[i] = 0.0;
        self.alloc[i] = 0.0;
        self.conns.release(id);
    }

    /// The arrays for a problem's sparse maps, every allocation at zero
    /// (what the from-scratch [`MaxminProblem::solve`] fills).
    pub(crate) fn from_problem(problem: &MaxminProblem) -> Self {
        let mut dense = DenseState::default();
        for (l, v) in &problem.link_excess {
            dense.set_excess(*l, *v);
        }
        for (c, d) in &problem.conns {
            dense.add_conn(*c, d.demand, &d.links);
        }
        dense
    }

    /// The inverse of [`Self::from_problem`]: the problem these arrays hold,
    /// as sparse maps keyed by external id.
    pub(crate) fn problem(&self) -> MaxminProblem {
        let link_excess = self
            .links
            .iter()
            .filter(|(_, l)| self.has_excess[*l as usize])
            .map(|(id, l)| (id, self.excess[l as usize]))
            .collect();
        let conns = self.conns.iter().map(|(id, c)| {
            let route = self.routes[c as usize].iter();
            let d = ConnDemand {
                demand: self.demand[c as usize],
                links: route.map(|l| self.links.external(*l)).collect(),
            };
            (id, d)
        });
        MaxminProblem {
            link_excess,
            conns: conns.collect(),
        }
    }

    /// Collect the connected component reachable from link slot `seed`
    /// into `bfs.comp` (conn slots, unsorted), skipping territory
    /// already visited in this [`CompScratch::begin`] epoch.
    pub(crate) fn component_of(&self, seed: u32, bfs: &mut CompScratch) {
        bfs.comp.clear();
        bfs.ensure(self.links.slot_count(), self.conns.slot_count());
        if bfs.link_seen[seed as usize] == bfs.mark {
            return;
        }
        bfs.link_seen[seed as usize] = bfs.mark;
        bfs.frontier.clear();
        bfs.frontier.push(seed);
        while let Some(l) = bfs.frontier.pop() {
            for &c in &self.members[l as usize] {
                if bfs.conn_seen[c as usize] == bfs.mark {
                    continue;
                }
                bfs.conn_seen[c as usize] = bfs.mark;
                bfs.comp.push(c);
                for &l2 in &self.routes[c as usize] {
                    if bfs.link_seen[l2 as usize] != bfs.mark {
                        bfs.link_seen[l2 as usize] = bfs.mark;
                        bfs.frontier.push(l2);
                    }
                }
            }
        }
    }

    /// Progressive filling of one component on the dense layout — the
    /// production twin of [`solve_component`], arithmetic-for-arithmetic
    /// identical (same member iteration order, same fold order, same
    /// freeze rules, same epsilons) so allocations match the reference
    /// bit for bit.
    ///
    /// `comp` holds the component's conn slots in ascending *external*
    /// id order.
    pub(crate) fn solve_component_dense(&mut self, comp: &[u32], scratch: &mut SolveScratch) {
        scratch.ensure(self.links.slot_count(), self.conns.slot_count());
        for &c in comp {
            self.alloc[c as usize] = 0.0;
        }
        scratch.clock += 1;
        let active_mark = scratch.clock;
        scratch.active.clear();
        for &c in comp {
            if self.demand[c as usize] > 0.0 {
                scratch.active.push(c);
                scratch.active_mark[c as usize] = active_mark;
            }
        }
        // The component's constrained links, deduped, ascending external
        // `LinkId` — the reference's `BTreeSet` collection order.
        scratch.clock += 1;
        let comp_mark = scratch.clock;
        scratch.comp_links.clear();
        for &c in comp {
            for &l in &self.routes[c as usize] {
                if self.has_excess[l as usize] && scratch.comp_mark[l as usize] != comp_mark {
                    scratch.comp_mark[l as usize] = comp_mark;
                    scratch.comp_links.push(l);
                }
            }
        }
        scratch
            .comp_links
            .sort_unstable_by_key(|l| self.links.external(*l));
        let mut guard = comp.len() + scratch.comp_links.len() + 2;
        while !scratch.active.is_empty() && guard > 0 {
            guard -= 1;
            scratch.headroom.clear();
            for &l in &scratch.comp_links {
                let mut used = 0.0;
                let mut n_active = 0usize;
                for &c in &self.members[l as usize] {
                    used += self.alloc[c as usize];
                    if scratch.active_mark[c as usize] == active_mark {
                        n_active += 1;
                    }
                }
                if n_active > 0 {
                    let cap = self.excess[l as usize];
                    scratch.headroom.push((l, (cap - used).max(0.0), n_active));
                }
            }
            let link_limit = scratch
                .headroom
                .iter()
                .map(|(_, h, n)| h / *n as f64)
                .fold(f64::INFINITY, f64::min);
            let demand_limit = scratch
                .active
                .iter()
                .map(|c| self.demand[*c as usize] - self.alloc[*c as usize])
                .fold(f64::INFINITY, f64::min);
            let inc = link_limit.min(demand_limit).max(0.0);
            for &c in &scratch.active {
                self.alloc[c as usize] += inc;
            }
            scratch.clock += 1;
            let sat_mark = scratch.clock;
            for (l, h, n) in &scratch.headroom {
                if *h / *n as f64 <= inc + 1e-12 {
                    scratch.sat_mark[*l as usize] = sat_mark;
                }
            }
            let before = scratch.active.len();
            let SolveScratch {
                active,
                active_mark: active_marks,
                sat_mark: sat_marks,
                ..
            } = scratch;
            let (demand, alloc, routes) = (&self.demand, &self.alloc, &self.routes);
            active.retain(|c| {
                let i = *c as usize;
                let demand_met = alloc[i] >= demand[i] - 1e-12;
                let on_saturated = routes[i].iter().any(|l| sat_marks[*l as usize] == sat_mark);
                if !(demand_met || on_saturated) {
                    return true;
                }
                active_marks[i] = 0;
                false
            });
            if scratch.active.len() == before {
                break; // same float-pathology guard as the reference
            }
        }
    }

    /// Structural self-check, used by the property tests and the
    /// `arm-check` engine sweep: both interners are sound, each live
    /// link's `members` are live conn slots in strictly ascending
    /// *external* id order, `members` and `routes` are each other's
    /// reverse, and no live link slot is an orphan (no capacity entry
    /// and no member — the mutator that orphans a slot releases it).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        self.links
            .check_invariants()
            .map_err(|e| format!("links: {e}"))?;
        self.conns
            .check_invariants()
            .map_err(|e| format!("conns: {e}"))?;
        for (l, ls) in self.links.iter() {
            let members = &self.members[ls as usize];
            if members.is_empty() && !self.has_excess[ls as usize] {
                return Err(format!("{l:?} holds a slot with no capacity and no member"));
            }
            let routed = |m: &u32| self.conns.is_live(*m) && self.routes[*m as usize].contains(&ls);
            if let Some(m) = members.iter().find(|m| !routed(m)) {
                return Err(format!(
                    "conn slot {m}, a member of {l:?}, is not routed over it"
                ));
            }
            let ext: Vec<ConnId> = members.iter().map(|m| self.conns.external(*m)).collect();
            if ext.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("members of {l:?} not ascending: {ext:?}"));
            }
        }
        for (c, cs) in self.conns.iter() {
            let listed =
                |l: &u32| self.links.is_live(*l) && self.members[*l as usize].contains(&cs);
            if !self.routes[cs as usize].iter().all(listed) {
                return Err(format!("{c:?} absent from members of its route"));
            }
        }
        Ok(())
    }
}

/// Epoch-stamped BFS scratch for [`DenseState::component_of`]: no
/// per-resolve clears, no allocations once warmed up.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompScratch {
    mark: u64,
    link_seen: Vec<u64>,
    conn_seen: Vec<u64>,
    frontier: Vec<u32>,
    /// Component output: conn slots, unsorted.
    pub(crate) comp: Vec<u32>,
}

impl CompScratch {
    /// Open a new visited epoch (one per resolve: components found under
    /// the same epoch are disjoint).
    pub(crate) fn begin(&mut self, n_links: usize, n_conns: usize) {
        self.mark += 1;
        self.ensure(n_links, n_conns);
    }

    fn ensure(&mut self, n_links: usize, n_conns: usize) {
        if self.link_seen.len() < n_links {
            self.link_seen.resize(n_links, 0);
        }
        if self.conn_seen.len() < n_conns {
            self.conn_seen.resize(n_conns, 0);
        }
    }
}

/// Resident scratch for [`DenseState::solve_component_dense`]. All
/// per-slot flags are epoch stamps, so reuse across resolves costs
/// neither clears nor allocations.
#[derive(Clone, Debug, Default)]
pub(crate) struct SolveScratch {
    clock: u64,
    active_mark: Vec<u64>,
    sat_mark: Vec<u64>,
    comp_mark: Vec<u64>,
    active: Vec<u32>,
    comp_links: Vec<u32>,
    headroom: Vec<(u32, f64, usize)>,
}

impl SolveScratch {
    fn ensure(&mut self, n_links: usize, n_conns: usize) {
        if self.active_mark.len() < n_conns {
            self.active_mark.resize(n_conns, 0);
        }
        if self.sat_mark.len() < n_links {
            self.sat_mark.resize(n_links, 0);
        }
        if self.comp_mark.len() < n_links {
            self.comp_mark.resize(n_links, 0);
        }
    }
}

/// Apply a solved allocation — `(connection, excess rate)` pairs in
/// ascending `ConnId` order, as an [`Allocation`] or
/// [`IncrementalMaxmin::rates`](super::incremental::IncrementalMaxmin::rates)
/// yields them — to the network ledgers: every live connection's rate
/// becomes `b_min + excess`. Decreases are applied first so increases
/// always fit. `changes` is a buffer the caller may keep between rounds
/// so a steady-state round reuses its capacity. Returns the number of
/// connections whose rate changed.
///
/// Every connection in `alloc` is compared with its ledger rate, not
/// only those a solve just moved: the ledger can leave a target that
/// did not move (a rider squeezed to its floor across an outage), and
/// this comparison is what brings it back.
pub(crate) fn apply_allocation(
    net: &mut Network,
    alloc: impl IntoIterator<Item = (ConnId, f64)>,
    changes: &mut Vec<(ConnId, f64)>,
) -> usize {
    changes.clear();
    // Ascending id, so the stable sort below applies equal moves in id
    // order and the ledger sums see one fixed sequence of additions.
    for (id, x) in alloc {
        let Some(c) = net.get(id) else {
            continue;
        };
        // A non-finite or negative excess never reaches the ledger:
        // clamp to zero so a malformed allocation degrades to "hold
        // the floor" instead of panicking inside `f64::clamp`.
        let x = if x.is_finite() { x.max(0.0) } else { 0.0 };
        let target = (c.qos.b_min + x).clamp(c.qos.b_min, c.qos.b_max);
        if (target - c.b_current).abs() > 1e-9 {
            changes.push((id, target));
        }
    }
    // Decreases first. `total_cmp` keeps the sort well-defined even if a
    // ledger rate were ever NaN — order is all that matters here.
    changes.sort_by(|a, b| {
        let da = a.1 - net.get(a.0).map_or(0.0, |c| c.b_current);
        let db = b.1 - net.get(b.0).map_or(0.0, |c| c.b_current);
        da.total_cmp(&db)
    });
    for &(id, target) in changes.iter() {
        net.set_conn_rate(id, target)
            .invariant("maxmin allocation is feasible");
    }
    changes.len()
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

    fn problem(links: &[(u32, f64)], conns: &[(u32, f64, &[u32])]) -> MaxminProblem {
        let mut p = MaxminProblem::default();
        for (l, cap) in links {
            p.link_excess.insert(lid(*l), *cap);
        }
        for (c, demand, ls) in conns {
            p.conns.insert(
                cid(*c),
                ConnDemand {
                    demand: *demand,
                    links: ls.iter().map(|l| lid(*l)).collect(),
                },
            );
        }
        p
    }

    #[test]
    fn single_link_even_split() {
        let p = problem(
            &[(0, 30.0)],
            &[(0, 100.0, &[0]), (1, 100.0, &[0]), (2, 100.0, &[0])],
        );
        let a = p.solve();
        for c in 0..3 {
            assert!((a[&cid(c)] - 10.0).abs() < 1e-9);
        }
        assert!(p.verify_maxmin(&a).is_ok());
    }

    #[test]
    fn small_demand_frees_share_for_others() {
        let p = problem(
            &[(0, 30.0)],
            &[(0, 4.0, &[0]), (1, 100.0, &[0]), (2, 100.0, &[0])],
        );
        let a = p.solve();
        assert!((a[&cid(0)] - 4.0).abs() < 1e-9);
        assert!((a[&cid(1)] - 13.0).abs() < 1e-9);
        assert!((a[&cid(2)] - 13.0).abs() < 1e-9);
        assert!(p.verify_maxmin(&a).is_ok());
    }

    #[test]
    fn classic_linear_network() {
        // The canonical 2-link example: conn 0 crosses both links,
        // conn 1 uses link 0, conn 2 uses link 1. Capacities 10 and 4.
        // Maxmin: conn 0 gets 2 (bottleneck link 1), conn 2 gets 2,
        // conn 1 gets 8.
        let p = problem(
            &[(0, 10.0), (1, 4.0)],
            &[(0, 100.0, &[0, 1]), (1, 100.0, &[0]), (2, 100.0, &[1])],
        );
        let a = p.solve();
        assert!((a[&cid(0)] - 2.0).abs() < 1e-9, "{a:?}");
        assert!((a[&cid(1)] - 8.0).abs() < 1e-9, "{a:?}");
        assert!((a[&cid(2)] - 2.0).abs() < 1e-9, "{a:?}");
        assert!(p.verify_maxmin(&a).is_ok());
    }

    #[test]
    fn non_bottleneck_link_detected_with_finite_demands() {
        // Conn 1 wants only 5 on the 12-capacity link 0, so link 0 keeps
        // headroom and is NOT conn 0's bottleneck; link 1 (capacity 4) is.
        let p = problem(
            &[(0, 12.0), (1, 4.0)],
            &[(0, 100.0, &[0, 1]), (1, 5.0, &[0]), (2, 100.0, &[1])],
        );
        let a = p.solve();
        assert!((a[&cid(0)] - 2.0).abs() < 1e-9, "{a:?}");
        assert!((a[&cid(1)] - 5.0).abs() < 1e-9);
        assert!((a[&cid(2)] - 2.0).abs() < 1e-9);
        assert!(p.verify_maxmin(&a).is_ok());
    }

    #[test]
    fn zero_demand_connections_stay_zero() {
        let p = problem(&[(0, 30.0)], &[(0, 0.0, &[0]), (1, 100.0, &[0])]);
        let a = p.solve();
        assert_eq!(a[&cid(0)], 0.0);
        assert!((a[&cid(1)] - 30.0).abs() < 1e-9);
        assert!(p.verify_maxmin(&a).is_ok());
    }

    #[test]
    fn zero_capacity_link_starves_its_connections() {
        let p = problem(
            &[(0, 0.0), (1, 10.0)],
            &[(0, 100.0, &[0, 1]), (1, 100.0, &[1])],
        );
        let a = p.solve();
        assert_eq!(a[&cid(0)], 0.0);
        assert!((a[&cid(1)] - 10.0).abs() < 1e-9);
        assert!(p.verify_maxmin(&a).is_ok());
    }

    #[test]
    fn empty_problem_solves() {
        let p = MaxminProblem::default();
        assert!(p.solve().is_empty());
        assert!(p.verify_maxmin(&BTreeMap::new()).is_ok());
    }

    #[test]
    fn verify_catches_violations() {
        let p = problem(&[(0, 10.0)], &[(0, 100.0, &[0]), (1, 100.0, &[0])]);
        // Overload.
        let mut bad: Allocation = BTreeMap::new();
        bad.insert(cid(0), 8.0);
        bad.insert(cid(1), 8.0);
        assert!(p.verify_maxmin(&bad).is_err());
        // Feasible but unfair (0 could take from 1's slack? no — link
        // saturated by a *larger* holder ⇒ not maxmin).
        let mut unfair: Allocation = BTreeMap::new();
        unfair.insert(cid(0), 2.0);
        unfair.insert(cid(1), 8.0);
        assert!(p.verify_maxmin(&unfair).is_err());
        // The true optimum passes.
        let good = p.solve();
        assert!(p.verify_maxmin(&good).is_ok());
    }

    #[test]
    fn mesh_with_three_bottlenecks() {
        // Three links in a chain, four connections with mixed spans.
        let p = problem(
            &[(0, 12.0), (1, 6.0), (2, 9.0)],
            &[
                (0, 100.0, &[0, 1, 2]),
                (1, 100.0, &[0]),
                (2, 100.0, &[1]),
                (3, 100.0, &[2]),
            ],
        );
        let a = p.solve();
        assert!(p.verify_maxmin(&a).is_ok());
        // Conn 0 is limited by link 1: share 3. Then conn 2 also 3;
        // conn 1 gets 9; conn 3 gets 6.
        assert!((a[&cid(0)] - 3.0).abs() < 1e-9, "{a:?}");
        assert!((a[&cid(2)] - 3.0).abs() < 1e-9);
        assert!((a[&cid(1)] - 9.0).abs() < 1e-9);
        assert!((a[&cid(3)] - 6.0).abs() < 1e-9);
    }
}
