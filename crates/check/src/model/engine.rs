//! Exhaustive sweep of the production maxmin engine.
//!
//! `arm_qos::maxmin::incremental::IncrementalMaxmin` is the one engine
//! the resource manager runs: the problem, its reverse index and its
//! solved allocation resident in one slot-indexed state, re-filling
//! only the connected components a dirty link reaches.
//! The proptests in `crates/qos/tests/` sample op
//! sequences against it; this module *enumerates* them. Every state
//! holds a real engine next to the plain [`MaxminProblem`] the same ops
//! describe, and the checker walks every reachable op sequence over
//! bounded topologies (≤4 links, ≤6 connections), checking that
//!
//! * **the engine's structure stays sound** —
//!   [`IncrementalMaxmin::check_invariants`] (interners, `members` ⇄
//!   `routes`, no orphan slot) holds after every op;
//! * **inputs mirror the ops bit-for-bit** — capacities, demands and
//!   routes ([`IncrementalMaxmin::as_problem`]) equal the problem built
//!   from the same ops with no engine in the loop;
//! * **resolves are exact** — after every resolve the resident
//!   allocation (`f64::to_bits`) equals a from-scratch
//!   [`MaxminProblem::solve`], and nothing is left dirty;
//! * **no op sequence forces a redundant re-solve** — `resolve` on a
//!   clean engine performs zero solves and changes no allocation bit.
//!
//! Components merging and splitting under churn are what the built
//! topologies exercise (DESIGN.md §13.2).
//!
//! [`EngineMutant`] carries the seeded known-bad variant
//! (checker-of-the-checker, mirroring `maxmin::MaxminMutant`).

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use arm_net::ids::{ConnId, LinkId};
use arm_qos::maxmin::centralized::{ConnDemand, MaxminProblem};
use arm_qos::maxmin::incremental::IncrementalMaxmin;

use super::sweep::{all_routes, check_into, route_multisets, SweepReport};
use super::{Checker, Counterexample, TransitionSystem};

/// Seeded known-bad variants of the engine. Each must be caught with a
/// counterexample trace (`tests/mutants.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMutant {
    /// The shipped engine.
    #[default]
    None,
    /// `set_link_excess` stores the new capacity but forgets its dirty
    /// mark (emulated by [`IncrementalMaxmin::forget_dirty_mark`]): the
    /// next resolve is a cache hit over stale resident state. Violates
    /// resolve exactness.
    ForgetDirtyMark,
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

impl ConnSpec {
    fn spec(&self, route: &[LinkId]) -> ConnDemand {
        ConnDemand {
            demand: self.demand,
            links: route.to_vec(),
        }
    }
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

/// A bounded engine-model instance: a palette of links and connections,
/// an op alphabet derived from the churn set, and optionally a
/// fully-built (and resolved) initial state.
pub struct EngineSystem {
    name: String,
    links: Vec<(LinkId, f64)>,
    conns: Vec<ConnSpec>,
    churn: BTreeSet<Churn>,
    /// Start with every palette element present and resolved (built
    /// topologies); otherwise start empty (family sweep).
    start_built: bool,
    mutant: EngineMutant,
}

/// The visited-set key: the engine's whole state by external id,
/// bit-exact (slot numbers are history, not state).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    violation: Option<String>,
    inputs: Inputs,
    alloc: Vec<(u32, u64)>,
    dirty: Vec<u32>,
}

/// One explicit state: the real engine, the problem the ops so far
/// describe, and any violation detected while applying the last op.
#[derive(Clone)]
pub struct EngineState {
    engine: IncrementalMaxmin,
    truth: MaxminProblem,
    violation: Option<String>,
    key: Key,
}

impl PartialEq for EngineState {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for EngineState {}
impl PartialOrd for EngineState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EngineState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}
impl Hash for EngineState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}
impl fmt::Debug for EngineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineState")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Bit-exact image of an allocation, ascending by connection.
fn alloc_bits(alloc: impl IntoIterator<Item = (ConnId, f64)>) -> Vec<(u32, u64)> {
    alloc.into_iter().map(|(c, x)| (c.0, x.to_bits())).collect()
}

/// Bit-exact image of a problem's inputs: capacities, then demands
/// with routes.
type Inputs = (Vec<(u32, u64)>, Vec<(u32, u64, Vec<u32>)>);

fn input_bits(p: &MaxminProblem) -> Inputs {
    let links = p.link_excess.iter().map(|(l, x)| (l.0, x.to_bits()));
    let conns = p.conns.iter().map(|(c, d)| {
        let route = d.links.iter().map(|l| l.0).collect();
        (c.0, d.demand.to_bits(), route)
    });
    (links.collect(), conns.collect())
}

fn make_key(engine: &IncrementalMaxmin, violation: &Option<String>) -> Key {
    Key {
        violation: violation.clone(),
        inputs: input_bits(&engine.as_problem()),
        alloc: alloc_bits(engine.rates()),
        dirty: engine.dirty_links().iter().map(|l| l.0).collect(),
    }
}

impl EngineSystem {
    /// A built topology: all palette elements present and resolved at
    /// the initial state, only `churn` elements toggleable.
    #[must_use]
    pub fn built(
        name: &str,
        links: Vec<(LinkId, f64)>,
        conns: Vec<ConnSpec>,
        churn: impl IntoIterator<Item = Churn>,
    ) -> Self {
        EngineSystem {
            name: name.to_string(),
            links,
            conns,
            churn: churn.into_iter().collect(),
            start_built: true,
            mutant: EngineMutant::None,
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
        EngineSystem {
            name: name.to_string(),
            links,
            conns,
            churn,
            start_built: false,
            mutant: EngineMutant::None,
        }
    }

    /// The instance's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Swap in a seeded known-bad variant.
    #[must_use]
    pub fn with_mutant(mut self, mutant: EngineMutant) -> Self {
        self.mutant = mutant;
        self
    }
}

impl EngineState {
    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
    }

    /// One `resolve()` with every check the module docs list for it.
    fn resolve_checked(&mut self) {
        let was_dirty = self.engine.is_dirty();
        let solves_before = self.engine.stats.incremental_solves;
        let before = alloc_bits(self.engine.rates());
        self.engine.resolve();
        let solves = self.engine.stats.incremental_solves - solves_before;
        let after = alloc_bits(self.engine.rates());
        if !was_dirty && solves > 0 {
            self.fail(format!(
                "redundant re-solve: resolve on a clean engine performed \
                 {solves} incremental solves"
            ));
        } else if !was_dirty && after != before {
            self.fail("clean resolve changed allocation bits".to_string());
        } else if self.engine.is_dirty() {
            self.fail("resolve left dirt behind".to_string());
        } else if after != alloc_bits(self.truth.solve()) {
            self.fail(
                "resolved allocation diverges from a from-scratch \
                 MaxminProblem::solve on the same inputs"
                    .to_string(),
            );
        }
    }
}

impl TransitionSystem for EngineSystem {
    type State = EngineState;

    fn initial(&self) -> EngineState {
        let mut engine = IncrementalMaxmin::new();
        let mut truth = MaxminProblem::default();
        if self.start_built {
            for (l, x) in &self.links {
                engine.set_link_excess(*l, *x);
                truth.link_excess.insert(*l, *x);
            }
            for c in &self.conns {
                engine.upsert_conn(c.id, c.demand, &c.routes[0]);
                truth.conns.insert(c.id, c.spec(&c.routes[0]));
            }
            engine.resolve();
        }
        EngineState {
            key: make_key(&engine, &None),
            engine,
            truth,
            violation: None,
        }
    }

    /// Every enabled op (presence-dependent; see [`Churn`]) applied to
    /// the engine and to the problem it describes, with the
    /// transition-level checks (redundant resolve, resolve exactness)
    /// run on the way. A failed check is recorded in
    /// `violation`; the invariant turns it into a counterexample at the
    /// successor state.
    fn successors(&self, s: &EngineState) -> Vec<(String, EngineState)> {
        if s.violation.is_some() {
            // Terminal: the invariant reports it at this state.
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut step = |label: String, op: &dyn Fn(&mut EngineState)| {
            let mut n = s.clone();
            op(&mut n);
            n.key = make_key(&n.engine, &n.violation);
            out.push((label, n));
        };
        for (l, x) in &self.links {
            if !self.churn.contains(&Churn::Link(*l)) {
                continue;
            }
            if s.truth.link_excess.contains_key(l) {
                step(format!("remove-link-{l}"), &|n| {
                    n.engine.remove_link(*l);
                    n.truth.link_excess.remove(l);
                });
            } else {
                step(format!("add-link-{l}"), &|n| {
                    n.engine.set_link_excess(*l, *x);
                    n.truth.link_excess.insert(*l, *x);
                    if self.mutant == EngineMutant::ForgetDirtyMark {
                        n.engine.forget_dirty_mark(*l);
                    }
                });
            }
        }
        for c in &self.conns {
            if !self.churn.contains(&Churn::Conn(c.id)) {
                continue;
            }
            let cur = s.truth.conns.get(&c.id);
            if cur.is_some() {
                step(format!("remove-conn-{}", c.id), &|n| {
                    n.engine.remove_conn(c.id);
                    n.truth.conns.remove(&c.id);
                });
            }
            // Absent: add over any route. Present: rehome to any other.
            let verb = if cur.is_some() { "rehome" } else { "add" };
            for (r, route) in c.routes.iter().enumerate() {
                if cur.is_some_and(|d| d.links == *route) {
                    continue;
                }
                step(format!("{verb}-conn-{}-r{r}", c.id), &|n| {
                    n.engine.upsert_conn(c.id, c.demand, route);
                    n.truth.conns.insert(c.id, c.spec(route));
                });
            }
        }
        step("resolve".to_string(), &EngineState::resolve_checked);
        out
    }

    fn invariant(&self, s: &EngineState) -> Result<(), String> {
        if let Some(v) = &s.violation {
            return Err(v.clone());
        }
        s.engine.check_invariants()?;
        // Input mirror: the engine's problem equals the ops', bit-wise.
        if s.key.inputs != input_bits(&s.truth) {
            return Err(format!(
                "inputs diverge from the applied ops: engine {:?} vs {:?}",
                s.engine.as_problem(),
                s.truth
            ));
        }
        Ok(())
    }

    fn on_quiescent(&self, _s: &EngineState) -> Result<(), String> {
        // `resolve` is always enabled, so no state is quiescent.
        Ok(())
    }
}

fn lid(i: u32) -> LinkId {
    LinkId(i)
}
fn cid(i: u32) -> ConnId {
    ConnId(i)
}
fn conn(id: u32, demand: f64, route: &[u8]) -> ConnSpec {
    ConnSpec {
        id: cid(id),
        demand,
        routes: vec![route.iter().map(|l| lid((*l).into())).collect()],
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
fn family() -> Vec<EngineSystem> {
    let mut out = Vec::new();
    for n_links in 1u8..=3 {
        let links: Vec<(LinkId, f64)> = (0..n_links)
            .map(|l| (lid(l.into()), CAPS[usize::from(l) % CAPS.len()]))
            .collect();
        let routes = all_routes(n_links);
        let max_conns = if n_links == 3 { 2 } else { 3 };
        for n_conns in 1usize..=max_conns {
            for pick in route_multisets(routes.len(), n_conns) {
                let conns = (0u32..)
                    .zip(&pick)
                    .map(|(c, r)| conn(c, DEMANDS[c as usize % DEMANDS.len()], &routes[*r]))
                    .collect();
                let name = format!("engine/family-l{n_links}-{pick:?}");
                out.push(EngineSystem::from_empty(&name, links.clone(), conns));
            }
        }
    }
    out
}

/// Canonical built topologies at the ≤4-link/≤6-conn bound, each with a
/// small churn set chosen to exercise one way components change under
/// the engine's walk: fusing (re-adding a spanning conn), falling apart
/// (removing it), capacity-only links, and rehoming.
fn canonical() -> Vec<EngineSystem> {
    vec![
        // Two links coupled by a spanning conn; churn the coupler and
        // one link: one component, then two, then one again.
        EngineSystem::built(
            "engine/coupler",
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
        EngineSystem::built(
            "engine/chain4",
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
        EngineSystem::built(
            "engine/star6",
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
        // A capacity-only link nobody routes over, plus conn churn: the
        // remove_link path on a link with an empty closure.
        EngineSystem::built(
            "engine/orphan",
            vec![(lid(0), 10.0), (lid(1), 4.5), (lid(2), 6.0)],
            vec![conn(0, 100.0, &[0]), conn(1, 2.5, &[1])],
            [Churn::Link(lid(2)), Churn::Conn(cid(1))],
        ),
        // A conn with two candidate routes: rehoming is the engine's
        // detach-then-reinsert path, old and new links both dirtied.
        EngineSystem::built(
            "engine/rehome",
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

/// The coupler instance (exposed for the mutant self-test: re-adding
/// its churnable link changes a capacity two connections share).
#[must_use]
pub fn coupler_instance() -> EngineSystem {
    canonical()
        .into_iter()
        .find(|s| s.name() == "engine/coupler")
        .expect("invariant: canonical set contains the coupler instance")
}

/// Model-check the engine on the exhaustive small family plus the
/// canonical built topologies. Returns the aggregate report, or the
/// first counterexample.
pub fn sweep_engine() -> Result<SweepReport, Box<Counterexample>> {
    let start = std::time::Instant::now();
    let mut report = SweepReport::default();
    // States carry a live engine each; the budget bounds memory as well
    // as time. Every instance below fits comfortably.
    let checker = Checker {
        max_states: 200_000,
    };
    for sys in family().into_iter().chain(canonical()) {
        check_into(&mut report, &checker, sys.name(), &sys).map_err(Box::new)?;
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
        let report = sweep_engine().expect("bounded engine family verified");
        assert!(report.runs >= 10);
        assert!(report.states > 1_000, "suspiciously small: {report:?}");
    }
}
