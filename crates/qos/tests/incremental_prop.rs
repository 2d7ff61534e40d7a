//! Differential property tests for the incremental maxmin engine: after
//! an arbitrary sequence of admit/depart/capacity-change/link-removal
//! events, the engine's inputs must equal — bit for bit — a shadow
//! `MaxminProblem` built from the same events with no engine in the
//! loop, its resident allocation must match that shadow's from-scratch
//! `solve` (to 1e-9 — in fact bit-for-bit), `verify_maxmin` must hold,
//! and the engine's structural invariants must stay intact.
//!
//! The shadow is what keeps the reference independent: `as_problem()`
//! reads the same arrays the answer is computed from, so a reference
//! derived from it would follow the engine into any input it mangled.

use arm_net::ids::{ConnId, LinkId};
use arm_qos::maxmin::centralized::{Allocation, ConnDemand, MaxminProblem};
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use proptest::prelude::*;

/// One churn event against the engine.
#[derive(Clone, Debug)]
enum Event {
    /// Admit a new connection, or re-admit/renegotiate an existing id
    /// with new demand and route (a handoff is exactly this).
    Admit {
        conn: u32,
        demand: f64,
        links: Vec<u32>,
    },
    /// Depart (no-op if the id is unknown — engines must tolerate it).
    Depart { conn: u32 },
    /// A link's excess capacity changes (fade, claim churn, restoration).
    SetCapacity { link: u32, excess: f64 },
    /// A link disappears (fault schedules do this mid-run).
    RemoveLink { link: u32 },
}

/// Bit-exact image of a problem: capacities, then demands with routes.
type Bits = (Vec<(LinkId, u64)>, Vec<(ConnId, u64, Vec<LinkId>)>);

fn bits(p: &MaxminProblem) -> Bits {
    let links = p.link_excess.iter().map(|(l, x)| (*l, x.to_bits()));
    let conns = p
        .conns
        .iter()
        .map(|(c, d)| (*c, d.demand.to_bits(), d.links.clone()));
    (links.collect(), conns.collect())
}

const N_LINKS: u32 = 5;
const N_CONN_IDS: u32 = 12;

fn demand_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1000.0f64), Just(0.0f64), 0.1f64..20.0]
}

fn links_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..N_LINKS, 1..=3).prop_map(|mut ls| {
        ls.sort_unstable();
        ls.dedup();
        ls
    })
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0..N_CONN_IDS, demand_strategy(), links_strategy()).prop_map(|(conn, demand, links)| {
            Event::Admit {
                conn,
                demand,
                links,
            }
        }),
        (0..N_CONN_IDS).prop_map(|conn| Event::Depart { conn }),
        (0..N_LINKS, prop_oneof![Just(0.0f64), 0.5f64..50.0])
            .prop_map(|(link, excess)| Event::SetCapacity { link, excess }),
        (0..N_LINKS).prop_map(|link| Event::RemoveLink { link }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole's correctness anchor: incremental == from-scratch
    /// after every prefix of a random event sequence, and the result is
    /// always maxmin-optimal.
    #[test]
    fn incremental_matches_fresh_solve_after_any_event_sequence(
        caps in prop::collection::vec(0.5f64..50.0, N_LINKS as usize),
        events in prop::collection::vec(event_strategy(), 1..24),
    ) {
        let mut engine = IncrementalMaxmin::new();
        let mut shadow = MaxminProblem::default();
        for (i, c) in caps.iter().enumerate() {
            engine.set_link_excess(LinkId(i as u32), *c);
            shadow.link_excess.insert(LinkId(i as u32), *c);
        }
        for ev in &events {
            match ev {
                Event::Admit { conn, demand, links } => {
                    let links: Vec<LinkId> = links.iter().map(|l| LinkId(*l)).collect();
                    engine.upsert_conn(ConnId(*conn), *demand, &links);
                    shadow.conns.insert(ConnId(*conn), ConnDemand { demand: *demand, links });
                }
                Event::Depart { conn } => {
                    engine.remove_conn(ConnId(*conn));
                    shadow.conns.remove(&ConnId(*conn));
                }
                Event::SetCapacity { link, excess } => {
                    engine.set_link_excess(LinkId(*link), *excess);
                    shadow.link_excess.insert(LinkId(*link), *excess);
                }
                Event::RemoveLink { link } => {
                    engine.remove_link(LinkId(*link));
                    shadow.link_excess.remove(&LinkId(*link));
                }
            }
            prop_assert_eq!(engine.check_invariants(), Ok(()), "after {:?}", ev);
            prop_assert_eq!(
                bits(&engine.as_problem()), bits(&shadow),
                "inputs diverged from the applied events after {:?}", ev
            );
            let fresh = shadow.solve();
            engine.resolve();
            let incremental: Allocation = engine.rates().collect();
            prop_assert_eq!(
                fresh.len(),
                incremental.len(),
                "allocation key sets diverged after {:?}",
                ev
            );
            for (c, want) in &fresh {
                let got = incremental[c];
                prop_assert!(
                    (got - want).abs() <= 1e-9,
                    "{:?} after {:?}: incremental {} vs fresh {}",
                    c, ev, got, want
                );
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{:?} after {:?}: not bit-identical ({} vs {})",
                    c, ev, got, want
                );
            }
            let verdict = shadow.verify_maxmin(&incremental);
            prop_assert!(verdict.is_ok(), "not maxmin after {:?}: {:?}", ev, verdict);
            prop_assert_eq!(engine.check_invariants(), Ok(()), "after resolving {:?}", ev);
        }
    }

    /// Churn-aware caching: replaying the same inputs dirties nothing,
    /// so a pure re-resolve is a cache hit and leaves the allocation
    /// untouched.
    #[test]
    fn identical_inputs_do_not_dirty(
        caps in prop::collection::vec(0.5f64..50.0, N_LINKS as usize),
        conns in prop::collection::vec((demand_strategy(), links_strategy()), 1..8),
    ) {
        let mut engine = IncrementalMaxmin::new();
        for (i, c) in caps.iter().enumerate() {
            engine.set_link_excess(LinkId(i as u32), *c);
        }
        for (i, (demand, links)) in conns.iter().enumerate() {
            let ls: Vec<LinkId> = links.iter().map(|l| LinkId(*l)).collect();
            engine.upsert_conn(ConnId(i as u32), *demand, &ls);
        }
        engine.resolve();
        let before = engine.stats;
        // Replay everything verbatim.
        for (i, c) in caps.iter().enumerate() {
            engine.set_link_excess(LinkId(i as u32), *c);
        }
        for (i, (demand, links)) in conns.iter().enumerate() {
            let ls: Vec<LinkId> = links.iter().map(|l| LinkId(*l)).collect();
            engine.upsert_conn(ConnId(i as u32), *demand, &ls);
        }
        prop_assert!(!engine.is_dirty(), "verbatim replay must not dirty");
        engine.resolve();
        prop_assert_eq!(engine.stats.cache_hits, before.cache_hits + 1);
        prop_assert_eq!(engine.stats.incremental_solves, before.incremental_solves);
    }
}
