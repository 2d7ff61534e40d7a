//! Property-based tests on the integrated manager: no sequence of
//! control-plane events, malformed ones included, panics, changes state
//! when refused, or breaks the ledger invariants or the metric
//! conservation laws.

use std::collections::BTreeSet;

use arm_core::strategy::Strategy as ResvStrategy;
use arm_core::{Decision, ManagerConfig, ManagerEvent, ResourceManager};
use arm_mobility::environment::Figure4;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, LinkId, PortableId, ZoneId};
use arm_sim::SimTime;
use proptest::prelude::*;

/// One of six portables, or now and then one of two more.
fn portable() -> impl Strategy<Value = PortableId> {
    (0u32..14).prop_map(|i| PortableId(if i < 12 { i % 6 } else { i - 6 }))
}

/// One of Figure 4's seven cells, or now and then one of two it does not
/// have.
fn cell() -> impl Strategy<Value = CellId> {
    (0u32..16).prop_map(|i| CellId(if i < 14 { i % 7 } else { i - 7 }))
}

/// A §7.1 rate four times in five, else one no request may carry.
fn rate() -> impl Strategy<Value = f64> {
    const RATES: [f64; 4] = [16.0, 64.0, 150.0, 400.0];
    const BAD: [f64; 4] = [0.0, -64.0, f64::NAN, f64::INFINITY];
    (0usize..20).prop_map(|i| if i < 16 { RATES[i % 4] } else { BAD[i - 16] })
}

/// Fixed-rate bounds, or a floor and a ceiling drawn apart (inverted
/// about half the time).
fn bounds() -> impl Strategy<Value = QosRequest> {
    (rate(), 0u8..2, rate()).prop_map(|(b_min, apart, b_max)| {
        let b_max = if apart == 1 { b_max } else { b_min };
        QosRequest::bandwidth(b_min, b_max)
            .with_delay(30.0)
            .with_jitter(30.0)
            .with_loss(1.0)
    })
}

/// A channel fraction: three valid, three not.
fn fraction() -> impl Strategy<Value = f64> {
    (0usize..6).prop_map(|i| [0.5, 0.8, 1.0, 0.0, 1.5, f64::NAN][i])
}

/// Any event, well-formed or not, at time zero: unknown cells, links and
/// zones, untracked portables, moves to the portable's own cell, second
/// requests, hang-ups with nothing open, re-appearances while connected,
/// bad fractions and bad or inverted bounds all come up; requests, moves
/// and re-negotiations most often.
fn event() -> impl Strategy<Value = ManagerEvent> {
    let t = SimTime::ZERO;
    let appear = || {
        (portable(), cell()).prop_map(move |(portable, cell)| ManagerEvent::Appear {
            t,
            portable,
            cell,
        })
    };
    let request = || {
        (portable(), bounds()).prop_map(move |(portable, qos)| ManagerEvent::Request {
            t,
            portable,
            qos,
        })
    };
    let move_to = || {
        (portable(), cell()).prop_map(move |(portable, to)| ManagerEvent::Move { t, portable, to })
    };
    let renegotiate = || {
        (portable(), bounds()).prop_map(move |(portable, qos)| ManagerEvent::Renegotiate {
            t,
            portable,
            qos,
        })
    };
    let link = || (0u32..20).prop_map(LinkId);
    let zone = || (0u32..3).prop_map(ZoneId);
    prop_oneof![
        appear(),
        appear(),
        request(),
        request(),
        request(),
        move_to(),
        move_to(),
        move_to(),
        renegotiate(),
        renegotiate(),
        portable().prop_map(move |portable| ManagerEvent::Terminate { t, portable }),
        (cell(), fraction()).prop_map(move |(cell, fraction)| ManagerEvent::ChannelChange {
            t,
            cell,
            fraction
        }),
        link().prop_map(move |link| ManagerEvent::LinkDown { t, link }),
        link().prop_map(move |link| ManagerEvent::LinkUp { t, link }),
        zone().prop_map(move |zone| ManagerEvent::ProfileServerDown { t, zone }),
        zone().prop_map(move |zone| ManagerEvent::ProfileServerUp { t, zone }),
        portable().prop_map(move |portable| ManagerEvent::FailNextHandoff { t, portable }),
        Just(ManagerEvent::SlotTick { t }),
    ]
}

/// The manager's snapshot, as bytes.
fn snapshot_bytes(mgr: &ResourceManager) -> String {
    mgr.snapshot().to_json().expect("snapshot serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzz the whole control plane with well-formed and malformed
    /// events: nothing panics, `apply` refuses exactly what `check` does
    /// and a refused event leaves the snapshot bytes as they were, the
    /// live connections are exactly those the outcomes admitted and did
    /// not report ended, and invariants and conservation hold after
    /// every event, under every strategy.
    #[test]
    fn manager_survives_random_control_sequences(
        drawn in prop::collection::vec(event(), 1..120),
        strategy_idx in 0usize..4,
    ) {
        // The six portables appear first, one a cell, so that most drawn
        // events find them; then every event seven seconds apart.
        let t = SimTime::ZERO;
        let appear = |p| ManagerEvent::Appear { t, portable: PortableId(p), cell: CellId(p) };
        let mut events: Vec<_> = (0..6).map(appear).chain(drawn).collect();
        for (k, ev) in events.iter_mut().enumerate() {
            *ev.time_mut() = SimTime::from_secs(7 * (k as u64 + 1));
        }
        let strategy = [
            ResvStrategy::None,
            ResvStrategy::Paper,
            ResvStrategy::BruteForce,
            ResvStrategy::Aggregate,
        ][strategy_idx];
        let f4 = Figure4::build();
        let net = f4.env.build_network(1600.0, 0.0, 50_000.0);
        let cfg = ManagerConfig {
            strategy,
            resolve_excess: strategy_idx % 2 == 0,
            t_th: arm_sim::SimDuration::from_mins(2),
            ..Default::default()
        };
        let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
        // Every connection an outcome admitted and none reported ended.
        let mut live = BTreeSet::new();
        for ev in &events {
            let before = mgr.check(ev).err().map(|r| (r, snapshot_bytes(&mgr)));
            let hung_up = match *ev {
                ManagerEvent::Terminate { portable, .. } => mgr.net.conn_ids_of_portable(portable),
                _ => &[],
            }
            .to_vec();
            match (mgr.apply(ev), before) {
                (Err(refused), Some((checked, bytes))) => {
                    prop_assert_eq!(&refused, &checked);
                    prop_assert!(bytes == snapshot_bytes(&mgr), "{:?} changed state", ev);
                }
                (Ok(outcome), None) => match outcome.decision {
                    Decision::Admitted(id) => {
                        live.insert(id);
                    }
                    Decision::Handoff { dropped, .. } | Decision::Faded { dropped } => {
                        for id in &dropped {
                            prop_assert!(live.remove(id), "{:?} dropped unknown {:?}", ev, id);
                        }
                    }
                    _ => {
                        for id in &hung_up {
                            prop_assert!(live.remove(id), "{:?} ended unknown {:?}", ev, id);
                        }
                    }
                },
                (applied, checked) => prop_assert!(
                    false,
                    "apply and check disagree on {:?}: {:?} against {:?}",
                    ev,
                    applied,
                    checked.map(|(r, _)| r)
                ),
            }
            prop_assert!(
                mgr.net.check_invariants().is_ok(),
                "{:?} broke invariants: {:?}",
                strategy,
                mgr.net.check_invariants()
            );
            let open: BTreeSet<_> = mgr.net.live_connections().map(|c| c.id).collect();
            prop_assert!(open == live, "after {:?}: live {:?}, reported {:?}", ev, open, live);
        }
        // Conservation: attempts = successes + drops.
        prop_assert_eq!(
            mgr.metrics.handoff_attempts.get(),
            mgr.metrics.handoff_successes.get() + mgr.metrics.dropped.get()
        );
    }
}
