//! Property-based tests on the integrated manager: no sequence of
//! control-plane operations breaks the ledger invariants or the metric
//! conservation laws.

use arm_core::strategy::Strategy as ResvStrategy;
use arm_core::{ManagerConfig, ResourceManager};
use arm_mobility::environment::Figure4;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, PortableId};
use arm_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A randomised control-plane operation.
#[derive(Clone, Debug)]
enum Op {
    Appear { p: u8, cell: u8 },
    Connect { p: u8, kbps_idx: u8 },
    Move { p: u8, cell: u8 },
    Terminate { p: u8 },
    Renegotiate { p: u8, kbps_idx: u8 },
    Fade { cell: u8, frac_idx: u8 },
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..7).prop_map(|(p, cell)| Op::Appear { p, cell }),
        (0u8..6, 0u8..4).prop_map(|(p, kbps_idx)| Op::Connect { p, kbps_idx }),
        (0u8..6, 0u8..7).prop_map(|(p, cell)| Op::Move { p, cell }),
        (0u8..6).prop_map(|p| Op::Terminate { p }),
        (0u8..6, 0u8..4).prop_map(|(p, kbps_idx)| Op::Renegotiate { p, kbps_idx }),
        (0u8..7, 0u8..3).prop_map(|(cell, frac_idx)| Op::Fade { cell, frac_idx }),
        Just(Op::Tick),
    ]
}

fn rate(idx: u8) -> f64 {
    [16.0, 64.0, 150.0, 400.0][idx as usize % 4]
}

fn fade(idx: u8) -> f64 {
    [0.5, 0.8, 1.0][idx as usize % 3]
}

fn qos(kbps: f64) -> QosRequest {
    QosRequest::fixed(kbps)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzz the whole control plane: invariants and conservation hold
    /// after every operation, under every strategy.
    #[test]
    fn manager_survives_random_control_sequences(
        ops in prop::collection::vec(op_strategy(), 1..120),
        strategy_idx in 0usize..4,
    ) {
        let strategy = [
            ResvStrategy::None,
            ResvStrategy::Paper,
            ResvStrategy::BruteForce,
            ResvStrategy::Aggregate,
        ][strategy_idx];
        let f4 = Figure4::build();
        let cells = [f4.a, f4.b, f4.c, f4.d, f4.e, f4.f, f4.g];
        let net = f4.env.build_network(1600.0, 0.0, 50_000.0);
        let cfg = ManagerConfig {
            strategy,
            resolve_excess: strategy_idx % 2 == 0,
            t_th: SimDuration::from_mins(2),
            ..Default::default()
        };
        let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
        let mut now = SimTime::ZERO;
        let mut present: BTreeMap<u8, CellId> = BTreeMap::new();
        let mut conns: BTreeMap<u8, ConnId> = BTreeMap::new();
        for op in ops {
            now += SimDuration::from_secs(7);
            match op {
                Op::Appear { p, cell } => {
                    if let std::collections::btree_map::Entry::Vacant(e) = present.entry(p) {
                        let c = cells[cell as usize % cells.len()];
                        mgr.portable_appears(PortableId(u32::from(p)), c, now);
                        e.insert(c);
                    }
                }
                Op::Connect { p, kbps_idx } => {
                    if present.contains_key(&p) && !conns.contains_key(&p) {
                        if let Ok(id) = mgr.request_connection(
                            PortableId(u32::from(p)),
                            qos(rate(kbps_idx)),
                            now,
                        ) {
                            conns.insert(p, id);
                        }
                    }
                }
                Op::Move { p, cell } => {
                    if let Some(cur) = present.get(&p).copied() {
                        let target = cells[cell as usize % cells.len()];
                        if target != cur && f4.env.are_neighbors(cur, target) {
                            let dropped =
                                mgr.portable_moved(PortableId(u32::from(p)), target, now);
                            for id in dropped {
                                conns.retain(|_, c| *c != id);
                            }
                            present.insert(p, target);
                        }
                    }
                }
                Op::Terminate { p } => {
                    if let Some(id) = conns.remove(&p) {
                        mgr.terminate(id, now);
                    }
                }
                Op::Renegotiate { p, kbps_idx } => {
                    if let Some(id) = conns.get(&p) {
                        let _ = mgr.renegotiate(*id, qos(rate(kbps_idx)), now);
                    }
                }
                Op::Fade { cell, frac_idx } => {
                    let c = cells[cell as usize % cells.len()];
                    let victims = mgr
                        .channel_change(c, fade(frac_idx), now)
                        .expect("fade fractions are valid");
                    for id in victims {
                        conns.retain(|_, c| *c != id);
                    }
                }
                Op::Tick => mgr.slot_tick(now),
            }
            prop_assert!(
                mgr.net.check_invariants().is_ok(),
                "{:?} broke invariants: {:?}",
                strategy,
                mgr.net.check_invariants()
            );
        }
        // Conservation: attempts = successes + drops.
        prop_assert_eq!(
            mgr.metrics.handoff_attempts.get(),
            mgr.metrics.handoff_successes.get() + mgr.metrics.dropped.get()
        );
        // Every tracked live connection is really live and allocated.
        for id in conns.values() {
            prop_assert!(mgr.net.get(*id).is_some(), "tracked {:?} has no record", id);
        }
    }
}
