//! The claim refresh's plans and its one guarded apply step.
//!
//! A wireless link's *plan* is the ordered list of writes the refresh
//! makes on that link's claim table after wiping the claims it owns:
//! the outage seal, then the per-portable claims in ascending portable
//! order, then the strategy's aggregate writes (the lounge spreads, or a
//! baseline's claims), then `B_dyn`. Wiping and replaying a plan is a
//! deterministic function of the ledger and the plan. [`Plans::apply`]
//! does it on every link it looks at except where all three of these
//! hold:
//!
//! * the plan equals, bit for bit, the plan the link last ran;
//! * the link's [`revision`](LinkState::revision) is the one it had when
//!   that run ended, so the ledger has not been written since;
//! * that run was a bitwise no-op: the claim table and the four sums
//!   came out as they went in.
//!
//! Then the ledger is the state the last run both started and ended in,
//! so running the plan again would leave it as it is, and skipping the
//! link is the re-run. The third condition is needed because the sums
//! are running floats: re-running an unchanged plan on an untouched
//! ledger can still move `b_resv` by an ULP
//! (`manager_tests::the_no_op_guard_reruns_until_a_run_changes_nothing`).
//!
//! Every part of a plan persists between refreshes and is edited only
//! where it changes, bit for bit: the per-portable part by
//! [`Plans::set_portable_writes`], the aggregate writes by
//! [`Plans::commit`], `B_dyn` by [`Plans::set_dyn_pool`] and the seal by
//! [`Plans::reseal`]. An edit marks the plan changed and logs its link.
//! The apply step looks at the logged links, at the links the network
//! logged as written ([`Network::read_written`]) and at the links whose
//! last run was not a no-op, which it logs again itself. Every other
//! link passes all three conditions, so not looking at it is the guard
//! letting it stand.
//!
//! Two kept inputs feed the aggregate writes and `B_dyn` where they
//! change: [`Spreads`], each lounge's writes with the demand and the
//! transition-row stamp they were built from, and [`Pools`], each cell's
//! largest static allocation.

use arm_mobility::environment::IndoorEnvironment;
use arm_net::ids::{CellId, PortableId};
use arm_net::link::{ResvClaim, Revision};
use arm_net::{sorted_insert, ChangeLog, LinkState, Network};
use arm_qos::adaptation::DynPoolPolicy;

#[cfg(test)]
use crate::manager::{Mutant, Twin};

/// One write of the refresh on a wireless link's claim table.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ClaimWrite {
    /// `set_claim(key, amount)`.
    Set(ResvClaim, f64),
    /// `set_claim(key, claim(key) + amount)`: one share of an aggregate
    /// spread.
    Add(ResvClaim, f64),
}

/// The same write, amounts compared with `to_bits`: a plan is edited
/// only where a bit of it moves.
impl PartialEq for ClaimWrite {
    fn eq(&self, other: &ClaimWrite) -> bool {
        match (self, other) {
            (ClaimWrite::Set(k, a), ClaimWrite::Set(l, b))
            | (ClaimWrite::Add(k, a), ClaimWrite::Add(l, b)) => {
                k == l && a.to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

impl ClaimWrite {
    /// Perform the write on `link`.
    fn apply(self, link: &mut LinkState) {
        match self {
            ClaimWrite::Set(key, amount) => {
                link.set_claim(key, amount);
            }
            ClaimWrite::Add(key, amount) => {
                let cur = link.claim(key);
                link.set_claim(key, cur + amount);
            }
        }
    }
}

/// Work counters of the claim refresh since the manager was built or
/// restored (derived state, never snapshotted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Claim refreshes run.
    pub refreshes: u64,
    /// Wireless links the apply step looked at: the links it wiped and
    /// re-wrote plus those its guard let stand.
    pub links_looked: u64,
    /// Wireless links wiped and re-written.
    pub links_rerun: u64,
    /// Wireless links looked at and let stand by the guard.
    pub links_skipped: u64,
    /// Portables dispatched again (`Strategy::Paper`), stale-profile
    /// fallbacks included.
    pub redispatched: u64,
    /// Portables the static set's keeper looked at, under every
    /// strategy: each flip popped from its queue, and each portable of a
    /// rebuild's scan (the first refresh after `new` or `restore`, or
    /// one at an earlier instant than the last).
    pub statics_looked: u64,
    /// `B_dyn` pools computed (`Strategy::Paper` with a pool policy).
    pub pools_recomputed: u64,
}

/// One wireless link's plan and what the link last ran.
#[derive(Debug, Default)]
pub(crate) struct LinkPlan {
    /// The outage seal, `set_claim(Outage, capacity)`, goes first.
    sealed: bool,
    /// Per-portable writes, ascending by portable, each portable's in
    /// the order it made them.
    portable: Vec<(PortableId, ClaimWrite)>,
    /// Aggregate writes after the per-portable ones.
    tail: Vec<ClaimWrite>,
    /// The aggregate writes being rebuilt, until [`commit`](Self::commit)
    /// compares them with `tail`.
    staged: Vec<ClaimWrite>,
    /// `set_claim(DynPool, amount)`, last.
    dyn_pool: Option<f64>,
    /// The plan was edited since the link last ran (or it never ran).
    changed: bool,
    /// The ledger's revision when the last run ended; `None` before the
    /// first.
    ran_rev: Option<Revision>,
    /// The last run left the claim table and the four sums bit-identical.
    ran_noop: bool,
}

impl LinkPlan {
    fn remove_portable(&mut self, p: PortableId) {
        let lo = self.portable.partition_point(|(q, _)| *q < p);
        let hi = lo + self.portable[lo..].partition_point(|(q, _)| *q == p);
        if lo < hi {
            self.portable.drain(lo..hi);
            self.changed = true;
        }
    }

    /// After any of `p`'s writes already here.
    fn insert_portable(&mut self, p: PortableId, w: ClaimWrite) {
        let at = self.portable.partition_point(|(q, _)| *q <= p);
        self.portable.insert(at, (p, w));
        self.changed = true;
    }

    /// Append an aggregate write to the ones being rebuilt.
    pub(crate) fn stage(&mut self, w: ClaimWrite) {
        self.staged.push(w);
    }

    /// Make the staged writes the aggregate writes; true, and the plan
    /// changed, unless they are bit for bit the ones it has. Either way
    /// nothing is left staged.
    pub(crate) fn commit(&mut self) -> bool {
        let same = self.staged == self.tail;
        if !same {
            std::mem::swap(&mut self.staged, &mut self.tail);
            self.changed = true;
        }
        self.staged.clear();
        !same
    }

    /// Wipe and replay the plan on `link` unless the guard proves that
    /// changes nothing; true if it ran. `before` is scratch.
    pub(crate) fn apply(
        &mut self,
        link: &mut LinkState,
        before: &mut Vec<(ResvClaim, u64)>,
        #[cfg(test)] twin: Twin,
    ) -> bool {
        let (noop, same_rev) = (self.ran_noop, self.ran_rev == Some(link.revision()));
        #[cfg(test)]
        let noop = noop || twin.is(Mutant::GuardWithoutNoOp);
        #[cfg(test)]
        let same_rev = same_rev || twin.is(Mutant::GuardIgnoresRevision);
        if noop && same_rev && !self.changed {
            return false;
        }
        let sums = link.sum_bits();
        before.clear();
        before.extend(link.claims().map(|(k, v)| (k, v.to_bits())));
        // The `Channel` claim is the channel monitor's and the `Outage`
        // claim the fault path's: both model capacity committed
        // elsewhere and survive the wipe.
        link.retain_claims(|k| matches!(k, ResvClaim::Channel | ResvClaim::Outage));
        if self.sealed {
            let cap = link.capacity();
            link.set_claim(ResvClaim::Outage, cap);
        }
        for (_, w) in &self.portable {
            w.apply(link);
        }
        for w in &self.tail {
            w.apply(link);
        }
        if let Some(amount) = self.dyn_pool {
            link.set_claim(ResvClaim::DynPool, amount);
        }
        self.ran_noop = link.sum_bits() == sums
            && link
                .claims()
                .map(|(k, v)| (k, v.to_bits()))
                .eq(before.iter().copied());
        self.ran_rev = Some(link.revision());
        self.changed = false;
        true
    }
}

/// Every wireless link's plan (index = cell), the per-portable writes by
/// portable, and the links the next apply step must look at. Derived
/// state: a new or restored manager starts with none run and its log
/// saying `all`, so its first refresh re-runs every link.
#[derive(Debug)]
pub(crate) struct Plans {
    links: Vec<LinkPlan>,
    /// `(portable, cell, write)` for every per-portable write in the
    /// plans, ascending by portable, each portable's in order: where a
    /// portable's writes are when they have to be taken out.
    by_portable: Vec<(PortableId, CellId, ClaimWrite)>,
    /// Links the next apply step looks at: plans edited since, and links
    /// whose last run was not a no-op.
    pub(crate) due: ChangeLog<CellId>,
    /// The sealed links, ascending.
    sealed: Vec<CellId>,
    /// The links the last apply step looked at, ascending.
    looking: Vec<CellId>,
    /// Scratch: the next seals.
    sealing: Vec<CellId>,
    /// Scratch for [`LinkPlan::apply`].
    before: Vec<(ResvClaim, u64)>,
}

impl Plans {
    /// Plans for `cells` wireless links, none run.
    pub(crate) fn new(cells: usize) -> Self {
        Plans {
            links: (0..cells).map(|_| LinkPlan::default()).collect(),
            by_portable: Vec::new(),
            due: ChangeLog::dense(cells),
            sealed: Vec::new(),
            looking: Vec::new(),
            sealing: Vec::new(),
            before: Vec::new(),
        }
    }

    /// Seal exactly the links of `cells`, each first in its plan.
    pub(crate) fn reseal(&mut self, cells: impl Iterator<Item = CellId>) {
        let mut next = std::mem::take(&mut self.sealing);
        next.clear();
        next.extend(cells);
        next.sort_unstable();
        next.dedup();
        for &c in self.sealed.iter().chain(&next) {
            let plan = &mut self.links[c.index()];
            let sealed = next.binary_search(&c).is_ok();
            if plan.sealed != sealed {
                plan.sealed = sealed;
                plan.changed = true;
                self.due.log(c);
            }
        }
        self.sealing = std::mem::replace(&mut self.sealed, next);
    }

    /// `cell`'s wireless link's plan.
    pub(crate) fn link(&mut self, cell: CellId) -> &mut LinkPlan {
        &mut self.links[cell.index()]
    }

    /// Make the aggregate writes staged on `cell`'s plan its own; the
    /// plan changes unless they are the ones it has.
    pub(crate) fn commit(&mut self, cell: CellId) {
        if self.links[cell.index()].commit() {
            self.due.log(cell);
        }
    }

    /// [`commit`](Self::commit) every link's staged writes: the
    /// baselines stage every link's at every refresh.
    pub(crate) fn commit_all(&mut self) {
        for i in 0..self.links.len() {
            self.commit(CellId::from_index(i));
        }
    }

    /// End `cell`'s wireless link's plan with `set_claim(DynPool,
    /// amount)`; the plan changes unless it already does, bit for bit.
    pub(crate) fn set_dyn_pool(&mut self, cell: CellId, amount: f64) {
        let plan = &mut self.links[cell.index()];
        if plan.dyn_pool.map(f64::to_bits) != Some(amount.to_bits()) {
            plan.dyn_pool = Some(amount);
            plan.changed = true;
            self.due.log(cell);
        }
    }

    /// Make `fresh` — `(cell, write)` in the order they are made — the
    /// per-portable writes of `p`. When they are bit for bit the writes
    /// `p` has, nothing is touched; otherwise every link `p` writes on,
    /// before or after, counts as changed.
    pub(crate) fn set_portable_writes(&mut self, p: PortableId, fresh: &[(CellId, ClaimWrite)]) {
        let lo = self.by_portable.partition_point(|(q, _, _)| *q < p);
        let hi = lo + self.by_portable[lo..].partition_point(|(q, _, _)| *q == p);
        let old = self.by_portable[lo..hi].iter().map(|&(_, c, w)| (c, w));
        if old.eq(fresh.iter().copied()) {
            return;
        }
        for k in lo..hi {
            let cell = self.by_portable[k].1;
            self.links[cell.index()].remove_portable(p);
            self.due.log(cell);
        }
        for &(cell, w) in fresh {
            self.links[cell.index()].insert_portable(p, w);
            self.due.log(cell);
        }
        self.by_portable
            .splice(lo..hi, fresh.iter().map(|&(c, w)| (p, c, w)));
    }

    /// The one apply step: every logged link, every link of `written`
    /// (the cells of the network's log since the last step) and, with
    /// `everything` or when the log says `all`, every link, each re-run
    /// or let stand by [`LinkPlan::apply`]. A link whose run was not a
    /// no-op is logged for the next step. The order does not matter: a
    /// run reads and writes its own ledger alone.
    pub(crate) fn apply(
        &mut self,
        net: &mut Network,
        written: &[CellId],
        everything: bool,
        stats: &mut RefreshStats,
        #[cfg(test)] twin: Twin,
    ) {
        for &cell in written {
            self.due.log(cell);
        }
        let mut looking = std::mem::take(&mut self.looking);
        if self.due.read(0, &mut looking) || everything {
            looking.clear();
            looking.extend((0..self.links.len()).map(CellId::from_index));
        }
        for &cell in &looking {
            let wl = net.topology().wireless_link(cell);
            let plan = &mut self.links[cell.index()];
            stats.links_looked += 1;
            if plan.apply(
                net.link_mut(wl),
                &mut self.before,
                #[cfg(test)]
                twin,
            ) {
                stats.links_rerun += 1;
            } else {
                stats.links_skipped += 1;
            }
            if !plan.ran_noop {
                self.due.log(cell);
            }
        }
        self.looking = looking;
    }

    /// What the last apply step must have left: every link it did not
    /// look at passes the full guard — its plan is the one it last ran,
    /// its ledger was not written since, and that run was a no-op. The
    /// walk the step replaces, run in debug builds after every refresh;
    /// a passing check allocates nothing.
    pub(crate) fn unlooked_would_stand(&self, net: &Network) -> Result<(), String> {
        let topo = net.topology();
        for (i, plan) in self.links.iter().enumerate() {
            let cell = CellId::from_index(i);
            if self.looking.binary_search(&cell).is_ok() {
                continue;
            }
            let rev = net.link(topo.wireless_link(cell)).revision();
            if plan.changed || !plan.ran_noop || plan.ran_rev != Some(rev) {
                return Err(format!(
                    "{cell:?} not looked at: changed {}, last run a no-op {}, ledger unwritten {}",
                    plan.changed,
                    plan.ran_noop,
                    plan.ran_rev == Some(rev)
                ));
            }
        }
        Ok(())
    }
}

/// `B_dyn`'s input kept between refreshes: every cell's largest static
/// allocation, folded over the connections of the static portables
/// homed there. A cell's pool is then a `max` over its neighbours' and
/// a clamp by its own link's capacity. `max` is exact, so a pool
/// computed from these is the bits of one computed from scratch.
///
/// A refresh re-folds only the cells a static connection left or joined
/// or whose static connection changed — the cells of the portables whose
/// connections the network logged as changed or whose static status
/// flipped — and recomputes the pool of every cell that has one of them
/// as a neighbour, and of every cell whose link's capacity moved. A new
/// network or a rebuilt static set re-folds everything. Derived state,
/// never snapshotted.
#[derive(Debug)]
pub(crate) struct Pools {
    /// Per cell: `(portable, b_current)` of each connection of a static
    /// portable homed there, ascending by portable.
    homed: Vec<Vec<(PortableId, f64)>>,
    /// `(portable, cell)` for every portable with an entry in `homed`
    /// there, ascending: where a portable's entries are.
    homes: Vec<(PortableId, CellId)>,
    /// Per cell: the largest `b_current` in `homed`, 0 when none.
    static_max: Vec<f64>,
    /// Per cell: the link capacity its pool was computed from.
    capacity: Vec<f64>,
    /// Per cell: the cells that have it as a neighbour, whose pools read
    /// its `static_max`.
    readers: Vec<Vec<CellId>>,
    /// Cells to re-fold, and cells whose pool to recompute.
    pub(crate) refold: ChangeLog<CellId>,
    pub(crate) repool: ChangeLog<CellId>,
    /// Scratch: the cells being re-folded or re-pooled.
    cells: Vec<CellId>,
}

impl Pools {
    /// Nothing kept yet for `env`'s cells: the first
    /// [`keep`](Self::keep), which is whole, re-folds everything.
    pub(crate) fn new(env: &IndoorEnvironment) -> Self {
        let cells = env.cell_count();
        let mut readers = vec![Vec::new(); cells];
        for (c, info) in env.cells() {
            for n in &info.neighbors {
                readers[n.index()].push(c);
            }
        }
        Pools {
            homed: vec![Vec::new(); cells],
            homes: Vec::new(),
            static_max: vec![0.0; cells],
            capacity: vec![0.0; cells],
            readers,
            refold: ChangeLog::dense(cells),
            repool: ChangeLog::dense(cells),
            cells: Vec::new(),
        }
    }

    /// Take `p`'s connections out of `homed`.
    fn remove(&mut self, p: PortableId) {
        let lo = self.homes.partition_point(|(q, _)| *q < p);
        let hi = lo + self.homes[lo..].partition_point(|(q, _)| *q == p);
        for k in lo..hi {
            let c = self.homes[k].1;
            let homed = &mut self.homed[c.index()];
            let from = homed.partition_point(|(q, _)| *q < p);
            let to = from + homed[from..].partition_point(|(q, _)| *q == p);
            homed.drain(from..to);
            self.refold.log(c);
        }
        self.homes.drain(lo..hi);
    }

    /// Put the static portable `p`'s connections into `homed`.
    fn add(&mut self, net: &Network, p: PortableId) {
        for c in net.connections_of_portable(p) {
            let homed = &mut self.homed[c.cell.index()];
            let at = homed.partition_point(|(q, _)| *q <= p);
            homed.insert(at, (p, c.b_current));
            sorted_insert(&mut self.homes, (p, c.cell));
            self.refold.log(c.cell);
        }
    }

    /// Bring the kept folds to `statics` (the static portables,
    /// ascending) and to `net`, and set every pool that may have moved in
    /// `plans`. `touched` are the portables whose connections changed or
    /// whose static status flipped since the last call; `written` the
    /// cells whose link the network logged as written since; `whole` says
    /// that neither can be trusted (a new network, a rebuilt static set),
    /// as at the first call.
    #[expect(
        clippy::too_many_arguments,
        reason = "one pass over the refresh's inputs, borrowed field by field"
    )]
    pub(crate) fn keep(
        &mut self,
        env: &IndoorEnvironment,
        net: &Network,
        statics: &[PortableId],
        touched: impl Iterator<Item = PortableId>,
        written: &[CellId],
        whole: bool,
        policy: DynPoolPolicy,
        plans: &mut Plans,
        stats: &mut RefreshStats,
        #[cfg(test)] twin: Twin,
    ) {
        let topo = net.topology();
        if whole {
            for homed in &mut self.homed {
                homed.clear();
            }
            self.homes.clear();
            for p in statics {
                self.add(net, *p);
            }
            self.refold.set_all();
            self.repool.set_all();
        } else {
            for p in touched {
                self.remove(p);
                if statics.binary_search(&p).is_ok() {
                    self.add(net, p);
                }
            }
            for &c in written {
                let capacity = net.link(topo.wireless_link(c)).capacity();
                if capacity.to_bits() != self.capacity[c.index()].to_bits() {
                    self.repool.log(c);
                }
            }
        }
        let every = (0..self.homed.len()).map(CellId::from_index);
        let mut cells = std::mem::take(&mut self.cells);
        if self.refold.read(0, &mut cells) {
            cells.clear();
            cells.extend(every.clone());
        }
        for &c in &cells {
            let m = self.homed[c.index()]
                .iter()
                .fold(0.0_f64, |m, (_, b)| m.max(*b));
            if m.to_bits() == self.static_max[c.index()].to_bits() {
                continue;
            }
            self.static_max[c.index()] = m;
            #[cfg(test)]
            if twin.is(Mutant::NeighborPoolsNotDue) {
                self.repool.log(c);
                continue;
            }
            for &r in &self.readers[c.index()] {
                self.repool.log(r);
            }
        }
        if self.repool.read(0, &mut cells) {
            cells.clear();
            cells.extend(every);
        }
        for &c in &cells {
            let capacity = net.link(topo.wireless_link(c)).capacity();
            self.capacity[c.index()] = capacity;
            plans.set_dyn_pool(c, policy.target_pool(capacity, self.max_around(env, c)));
            stats.pools_recomputed += 1;
        }
        self.cells = cells;
    }

    /// The largest kept static allocation among `c`'s neighbours.
    fn max_around(&self, env: &IndoorEnvironment, c: CellId) -> f64 {
        env.cell(c)
            .neighbors
            .iter()
            .fold(0.0_f64, |m, n| m.max(self.static_max[n.index()]))
    }

    /// Every cell's kept fold is the one from scratch over `statics`'
    /// connections, and every pool in `plans` is the one from scratch.
    /// Run in debug builds after every refresh that keeps pools; a
    /// passing check allocates nothing.
    pub(crate) fn check(
        &self,
        env: &IndoorEnvironment,
        net: &Network,
        statics: &[PortableId],
        policy: DynPoolPolicy,
        plans: &Plans,
    ) -> Result<(), String> {
        for (c, _) in env.cells() {
            let scratch = statics
                .iter()
                .flat_map(|p| net.connections_of_portable(*p))
                .filter(|conn| conn.cell == c)
                .fold(0.0_f64, |m, conn| m.max(conn.b_current));
            let kept = self.static_max[c.index()];
            if scratch.to_bits() != kept.to_bits() {
                return Err(format!("{c:?}: static max {kept}, from scratch {scratch}"));
            }
            let capacity = net.link(net.topology().wireless_link(c)).capacity();
            let pool = policy.target_pool(capacity, self.max_around(env, c));
            let planned = plans.links[c.index()].dyn_pool;
            if planned.map(f64::to_bits) != Some(pool.to_bits()) {
                return Err(format!("{c:?}: pool {planned:?}, from scratch {pool}"));
            }
        }
        Ok(())
    }
}

/// One lounge's aggregate writes as last built, and what they were built
/// from.
#[derive(Debug)]
struct Spread {
    source: CellId,
    /// The demands the writes were built from, as bits: on the lounge's
    /// own cell and spread over its neighbours. `None` before the first
    /// build.
    demand: Option<[u64; 2]>,
    /// The source's transition-row stamp at the build: its handoff
    /// history's epoch in the manager's `handoffs` log and whether its
    /// zone's profile server was out.
    row: (u64, bool),
    /// `(cell, write)` in the order the spread makes them.
    writes: Vec<(CellId, ClaimWrite)>,
}

/// Every lounge's aggregate writes under `Strategy::Paper`, kept between
/// refreshes and rebuilt where a lounge's demand bits or transition-row
/// stamp moved; a link's aggregate writes are then re-staged only where
/// a lounge's writes on it changed. Derived state, never snapshotted: a
/// new or restored manager, or one given a new calendar, lists its
/// lounges again and re-stages every link.
#[derive(Debug)]
pub(crate) struct Spreads {
    /// In plan order: meeting rooms, cafeterias, default lounges, each
    /// ascending by cell. Empty until listed.
    list: Vec<Spread>,
    /// Per cell: the spreads that may write on it, ascending.
    by_target: Vec<Vec<usize>>,
    /// Links whose aggregate writes to re-stage.
    pub(crate) restage: ChangeLog<CellId>,
    /// Scratch: the links being re-staged, and one spread's writes
    /// being rebuilt.
    cells: Vec<CellId>,
    fresh: Vec<(CellId, ClaimWrite)>,
}

impl Spreads {
    /// None listed for `cells` cells: the first refresh lists them.
    pub(crate) fn new(cells: usize) -> Self {
        Spreads {
            list: Vec::new(),
            by_target: vec![Vec::new(); cells],
            restage: ChangeLog::dense(cells),
            cells: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// List the lounges by their cells, `sources`, in plan order, none
    /// built, and re-stage every link. A lounge writes on its own cell
    /// (a meeting room's claim) and on its neighbours (a spread).
    pub(crate) fn list_again(
        &mut self,
        env: &IndoorEnvironment,
        sources: impl Iterator<Item = CellId>,
    ) {
        self.list.clear();
        for targets in &mut self.by_target {
            targets.clear();
        }
        for (i, source) in sources.enumerate() {
            self.by_target[source.index()].push(i);
            for n in &env.cell(source).neighbors {
                self.by_target[n.index()].push(i);
            }
            self.list.push(Spread {
                source,
                demand: None,
                row: (0, false),
                writes: Vec::new(),
            });
        }
        self.restage.set_all();
    }

    /// The `k`-th lounge's demands are `demand` and its row stamp is
    /// `row`: does it need building? Then `build` writes its writes into
    /// the buffer it is given, and every link where they differ from the
    /// last build's is marked for re-staging.
    pub(crate) fn rebuild_if_moved(
        &mut self,
        k: usize,
        demand: [f64; 2],
        row: (u64, bool),
        build: impl FnOnce(&mut Vec<(CellId, ClaimWrite)>),
    ) {
        let bits = demand.map(f64::to_bits);
        let spread = &self.list[k];
        if spread.demand == Some(bits) && spread.row == row {
            return;
        }
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        build(&mut fresh);
        let spread = &mut self.list[k];
        spread.demand = Some(bits);
        spread.row = row;
        if fresh != spread.writes {
            // `fresh` takes the old writes: both sets' links re-stage.
            std::mem::swap(&mut fresh, &mut spread.writes);
            for &(c, _) in fresh.iter().chain(&self.list[k].writes) {
                self.restage.log(c);
            }
        }
        self.fresh = fresh;
    }

    /// The `k`-th lounge's source cell.
    pub(crate) fn source(&self, k: usize) -> CellId {
        self.list[k].source
    }

    /// Re-stage the aggregate writes of every logged link (every link
    /// when the log says `all`) from the spreads that may write on it, in
    /// plan order, and commit them.
    pub(crate) fn restage(&mut self, plans: &mut Plans) {
        let mut cells = std::mem::take(&mut self.cells);
        if self.restage.read(0, &mut cells) {
            cells.clear();
            cells.extend((0..self.by_target.len()).map(CellId::from_index));
        }
        for &c in &cells {
            let plan = plans.link(c);
            for &i in &self.by_target[c.index()] {
                for &(target, w) in &self.list[i].writes {
                    if target == c {
                        plan.stage(w);
                    }
                }
            }
            plans.commit(c);
        }
        self.cells = cells;
    }
}
