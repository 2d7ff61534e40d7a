//! The claim refresh's plans and its one guarded apply step.
//!
//! A wireless link's *plan* is the ordered list of writes the refresh
//! makes on that link's claim table after wiping the claims it owns:
//! the outage seal, then the per-portable claims in ascending portable
//! order, then the strategy's aggregate writes (the lounge spreads, or a
//! baseline's claims), then `B_dyn`. Wiping and replaying a plan is a
//! deterministic function of the ledger and the plan. [`Plans::apply`]
//! does it on every link except where all three of these hold:
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
//! The per-portable part of every plan persists between refreshes and
//! is edited only where a portable's writes change
//! ([`Plans::set_portable_writes`]), which marks the link's plan
//! changed. The seal, the aggregate writes and `B_dyn` are rebuilt every
//! refresh and compared, bit for bit, with what the link last ran.

use arm_net::ids::{CellId, PortableId};
use arm_net::link::{ResvClaim, Revision};
use arm_net::{LinkState, Network};

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

impl ClaimWrite {
    /// The same write, amounts compared with `to_bits`.
    fn same_bits(self, other: ClaimWrite) -> bool {
        match (self, other) {
            (ClaimWrite::Set(k, a), ClaimWrite::Set(l, b))
            | (ClaimWrite::Add(k, a), ClaimWrite::Add(l, b)) => {
                k == l && a.to_bits() == b.to_bits()
            }
            _ => false,
        }
    }

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
    /// Wireless links wiped and re-written.
    pub links_rerun: u64,
    /// Wireless links the guard let stand.
    pub links_skipped: u64,
    /// Portables dispatched again (`Strategy::Paper`), stale-profile
    /// fallbacks included.
    pub redispatched: u64,
    /// Portables the static set's keeper looked at, under every
    /// strategy: each flip popped from its queue, and each portable of a
    /// rebuild's scan (the first refresh after `new` or `restore`, or
    /// one at an earlier instant than the last).
    pub statics_looked: u64,
}

/// One wireless link's plan and what the link last ran.
#[derive(Debug, Default)]
pub(crate) struct LinkPlan {
    /// The outage seal, `set_claim(Outage, capacity)`, goes first.
    /// Rebuilt every refresh.
    sealed: bool,
    /// Per-portable writes, ascending by portable, each portable's in
    /// the order it made them. Kept between refreshes.
    portable: Vec<(PortableId, ClaimWrite)>,
    /// `portable` was edited since the link last ran.
    portable_changed: bool,
    /// Aggregate writes after the per-portable ones. Rebuilt every
    /// refresh.
    tail: Vec<ClaimWrite>,
    /// `set_claim(DynPool, amount)`, last. Rebuilt every refresh.
    dyn_pool: Option<f64>,
    /// `sealed`, `tail` and `dyn_pool` as the last run had them.
    ran_sealed: bool,
    ran_tail: Vec<ClaimWrite>,
    ran_dyn_pool: Option<f64>,
    /// The ledger's revision when the last run ended; `None` before the
    /// first.
    ran_rev: Option<Revision>,
    /// The last run left the claim table and the four sums bit-identical.
    ran_noop: bool,
}

impl LinkPlan {
    /// Seal the link first.
    pub(crate) fn seal(&mut self) {
        self.sealed = true;
    }

    /// Append an aggregate write.
    pub(crate) fn push(&mut self, w: ClaimWrite) {
        self.tail.push(w);
    }

    fn remove_portable(&mut self, p: PortableId) {
        let lo = self.portable.partition_point(|(q, _)| *q < p);
        let hi = lo + self.portable[lo..].partition_point(|(q, _)| *q == p);
        if lo < hi {
            self.portable.drain(lo..hi);
            self.portable_changed = true;
        }
    }

    /// After any of `p`'s writes already here.
    fn insert_portable(&mut self, p: PortableId, w: ClaimWrite) {
        let at = self.portable.partition_point(|(q, _)| *q <= p);
        self.portable.insert(at, (p, w));
        self.portable_changed = true;
    }

    /// Is the plan, bit for bit, the one the link last ran?
    fn as_ran(&self) -> bool {
        !self.portable_changed
            && self.sealed == self.ran_sealed
            && self.dyn_pool.map(f64::to_bits) == self.ran_dyn_pool.map(f64::to_bits)
            && self.tail.len() == self.ran_tail.len()
            && self
                .tail
                .iter()
                .zip(&self.ran_tail)
                .all(|(a, b)| a.same_bits(*b))
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
        if noop && same_rev && self.as_ran() {
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
        self.portable_changed = false;
        self.ran_sealed = self.sealed;
        std::mem::swap(&mut self.tail, &mut self.ran_tail);
        self.ran_dyn_pool = self.dyn_pool;
        true
    }

    /// Start the next refresh: no seal, aggregate writes or pool yet.
    pub(crate) fn begin(&mut self) {
        self.sealed = false;
        self.tail.clear();
        self.dyn_pool = None;
    }
}

/// Every wireless link's plan (index = cell), and the per-portable
/// writes by portable. Derived state: a new or restored manager starts
/// with none run, so its first refresh re-runs every link.
#[derive(Debug, Default)]
pub(crate) struct Plans {
    links: Vec<LinkPlan>,
    /// `(portable, cell, write)` for every per-portable write in the
    /// plans, ascending by portable, each portable's in order: where a
    /// portable's writes are when they have to be taken out.
    by_portable: Vec<(PortableId, CellId, ClaimWrite)>,
    /// Scratch for [`LinkPlan::apply`].
    before: Vec<(ResvClaim, u64)>,
}

impl Plans {
    /// Plans for `cells` wireless links, none run.
    pub(crate) fn new(cells: usize) -> Self {
        Plans {
            links: (0..cells).map(|_| LinkPlan::default()).collect(),
            by_portable: Vec::new(),
            before: Vec::new(),
        }
    }

    /// Start a refresh: every plan's rebuilt parts empty.
    pub(crate) fn begin(&mut self) {
        for plan in &mut self.links {
            plan.begin();
        }
    }

    /// `cell`'s wireless link's plan, if it has one.
    pub(crate) fn link(&mut self, cell: CellId) -> Option<&mut LinkPlan> {
        self.links.get_mut(cell.index())
    }

    /// Append an aggregate write to `cell`'s wireless link's plan.
    pub(crate) fn push(&mut self, cell: CellId, w: ClaimWrite) {
        self.links[cell.index()].push(w);
    }

    /// End `cell`'s wireless link's plan with `set_claim(DynPool,
    /// amount)`.
    pub(crate) fn set_dyn_pool(&mut self, cell: CellId, amount: f64) {
        self.links[cell.index()].dyn_pool = Some(amount);
    }

    /// Make `fresh` — `(cell, write)` in the order they are made — the
    /// per-portable writes of `p`. When they are bit for bit the writes
    /// `p` has, nothing is touched; otherwise every link `p` writes on,
    /// before or after, counts as changed.
    pub(crate) fn set_portable_writes(&mut self, p: PortableId, fresh: &[(CellId, ClaimWrite)]) {
        let lo = self.by_portable.partition_point(|(q, _, _)| *q < p);
        let hi = lo + self.by_portable[lo..].partition_point(|(q, _, _)| *q == p);
        let old = &self.by_portable[lo..hi];
        if old.len() == fresh.len()
            && old
                .iter()
                .zip(fresh)
                .all(|((_, c, v), (d, w))| c == d && v.same_bits(*w))
        {
            return;
        }
        for (_, cell, _) in old {
            self.links[cell.index()].remove_portable(p);
        }
        for &(cell, w) in fresh {
            self.links[cell.index()].insert_portable(p, w);
        }
        self.by_portable
            .splice(lo..hi, fresh.iter().map(|&(c, w)| (p, c, w)));
    }

    /// The one apply step: every wireless link in cell order, each
    /// re-run or let stand by [`LinkPlan::apply`].
    pub(crate) fn apply(
        &mut self,
        net: &mut Network,
        stats: &mut RefreshStats,
        #[cfg(test)] twin: Twin,
    ) {
        for (i, plan) in self.links.iter_mut().enumerate() {
            let wl = net.topology().wireless_link(CellId::from_index(i));
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
        }
    }
}
