//! The claim refresh's work, pinned as exact counts
//! (`ResourceManager::refresh_stats`) on the benchmark's `wing_rush`
//! floor: 63 cells, 240 walkers, the paper strategy with `B_dyn` and
//! multicast on, seed 42 — every event of the 40-minute trace, the way
//! the scenario driver replays it (appear + request, move, slot ticks).
//!
//! A wholesale refresh re-writes all 63 wireless links every time; the
//! guarded apply step re-writes only those whose plan or ledger changed
//! since a run that changed nothing, and the dispatcher runs again only
//! for portables one of whose inputs changed. A change that makes either
//! do more work, or less, moves these numbers.

use arm_core::scenario::{self, EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{ManagerEvent, ManagerSnapshot, RefreshStats, ResourceManager, Strategy};
use arm_mobility::WorkloadMix;
use arm_net::ids::CellId;
use arm_net::link::ResvClaim;
use arm_obs::Obs;
use arm_sim::{SimDuration, SimRng, SimTime};

/// The `wing_rush` scenario (benchmark/src/gen.rs), seed 42.
fn wing() -> Scenario {
    Scenario {
        name: "refresh-work-wing".into(),
        environment: EnvSpec::OfficeWing { offices: 30 },
        mobility: MobilitySpec::RandomWalk {
            population: 240,
            mean_dwell_secs: 120,
            span_mins: 40,
        },
        workload: WorkloadSpec::Paper71,
        strategy: Strategy::Paper,
        cell_throughput_kbps: 400.0,
        backbone_kbps: 100_000.0,
        wireless_error: 0.0,
        t_th_secs: 300,
        seed: 42,
    }
}

/// One wireless link's claims, `b_resv` and excess, as bits.
type LinkBits = (Vec<(ResvClaim, u64)>, u64, u64);

/// Every wireless link's [`LinkBits`], by cell.
fn wireless_bits(mgr: &ResourceManager) -> Vec<LinkBits> {
    let topo = mgr.net.topology();
    (0..topo.cell_count())
        .map(|i| {
            let l = mgr.net.link(topo.wireless_link(CellId::from_index(i)));
            (
                l.claims().map(|(k, v)| (k, v.to_bits())).collect(),
                l.b_resv().to_bits(),
                l.excess_available().to_bits(),
            )
        })
        .collect()
}

#[test]
fn the_refresh_on_the_wing_does_exactly_this_much_work() {
    let sc = wing();
    let (mut mgr, trace) = scenario::build_manager(&sc).expect("valid scenario");
    let cells = mgr.net.topology().cell_count() as u64;
    assert_eq!(cells, 63);
    let mut rng = SimRng::new(sc.seed).split("scenario-workload");
    let mix = WorkloadMix::paper71();
    let mut next_slot = SimTime::ZERO + SimDuration::from_mins(1);
    let apply = |mgr: &mut ResourceManager, ev| {
        let _ = mgr.apply(&ev).expect("the trace is well-formed");
    };
    for ev in trace.events() {
        while ev.time >= next_slot {
            apply(&mut mgr, ManagerEvent::SlotTick { t: next_slot });
            next_slot += SimDuration::from_mins(1);
        }
        let (t, portable, cell, to) = (ev.time, ev.portable, ev.to, ev.to);
        match ev.from {
            None => {
                apply(&mut mgr, ManagerEvent::Appear { t, portable, cell });
                let qos = mix.sample(&mut rng);
                apply(&mut mgr, ManagerEvent::Request { t, portable, qos });
            }
            Some(_) => apply(&mut mgr, ManagerEvent::Move { t, portable, to }),
        }
    }
    let stats = mgr.refresh_stats();
    assert_eq!(
        stats,
        RefreshStats {
            refreshes: 4_356,
            links_rerun: 15_692,
            links_skipped: 258_736,
            redispatched: 13_519,
            statics_looked: 3_535,
        }
    );
    assert_eq!(
        stats.links_rerun + stats.links_skipped,
        stats.refreshes * cells
    );
    // The wholesale refresh re-wrote refreshes × 63 links.
    assert!(
        stats.links_rerun * 10 <= stats.refreshes * cells,
        "{} of {} wireless-link re-runs",
        stats.links_rerun,
        stats.refreshes * cells
    );

    // A restored manager starts cold: its first refresh re-dispatches
    // every portable and re-writes every wireless link, and lands on
    // the bits the uninterrupted manager does.
    let json = mgr.snapshot().to_json().expect("snapshot serializes");
    let snap = ManagerSnapshot::from_json(&json).expect("snapshot parses");
    let mut restored = ResourceManager::restore(snap, Obs::off()).expect("restores");
    assert_eq!(restored.refresh_stats(), RefreshStats::default());
    let tick = ManagerEvent::SlotTick { t: next_slot };
    apply(&mut restored, tick);
    apply(&mut mgr, tick);
    let tracked = 240;
    assert_eq!(
        restored.refresh_stats(),
        RefreshStats {
            refreshes: 1,
            links_rerun: cells,
            links_skipped: 0,
            redispatched: tracked,
            statics_looked: tracked,
        }
    );
    assert_eq!(wireless_bits(&restored), wireless_bits(&mgr));
}
