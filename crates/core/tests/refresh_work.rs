//! The claim refresh's work, pinned as exact counts
//! (`ResourceManager::refresh_stats`) on the benchmark's `wing_rush`
//! floor — 63 cells, 240 walkers, the paper strategy with `B_dyn` and
//! multicast on, seed 42, every event of the 40-minute trace — and on
//! the seed-42 office week (Figure 4, seven cells, the §7.1 workweek),
//! each the way the scenario driver replays it (appear + request, move,
//! slot ticks).
//!
//! A wholesale refresh re-writes every wireless link every time. The
//! apply step looks only at the links whose plan changed, whose ledger
//! was written or whose last run was not a no-op, and its guard re-runs
//! those whose plan or ledger changed since a run that changed nothing;
//! `B_dyn` pools are recomputed only around a static allocation that
//! moved; the dispatcher runs again only for portables one of whose
//! inputs changed. A change that makes any of them do more work, or
//! less, moves these numbers. `links_rerun`, `redispatched` and
//! `statics_looked` are also what a walk over every link makes: looking
//! at fewer links re-runs the same ones.

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

/// The seed-42 office week (`benchmark/src/gen.rs::office_week`'s
/// scenario): Figure 4, the §7.1 mix, the paper strategy.
fn office_week() -> Scenario {
    Scenario {
        name: "refresh-work-office".into(),
        environment: EnvSpec::Figure4,
        mobility: MobilitySpec::OfficeCase,
        cell_throughput_kbps: 1600.0,
        ..wing()
    }
}

/// `sc`'s manager after every event of its trace, the way the scenario
/// driver replays it (appear + request, move, slot ticks), and the next
/// slot boundary.
fn replay(sc: &Scenario) -> (ResourceManager, SimTime) {
    let (mut mgr, trace) = scenario::build_manager(sc).expect("valid scenario");
    let mut rng = SimRng::new(sc.seed).split("scenario-workload");
    let mix = WorkloadMix::paper71();
    let mut next_slot = SimTime::ZERO + SimDuration::from_mins(1);
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
    (mgr, next_slot)
}

fn apply(mgr: &mut ResourceManager, ev: ManagerEvent) {
    let _ = mgr.apply(&ev).expect("the trace is well-formed");
}

#[test]
fn the_refresh_on_the_wing_does_exactly_this_much_work() {
    let (mut mgr, next_slot) = replay(&wing());
    let cells = mgr.net.topology().cell_count() as u64;
    assert_eq!(cells, 63);
    let stats = mgr.refresh_stats();
    assert_eq!(
        stats,
        RefreshStats {
            refreshes: 4_356,
            links_looked: 15_692,
            links_rerun: 15_692,
            links_skipped: 0,
            redispatched: 13_519,
            statics_looked: 3_535,
            pools_recomputed: 1_162,
        }
    );
    assert_eq!(stats.links_rerun + stats.links_skipped, stats.links_looked);
    // The wholesale refresh re-wrote refreshes × 63 links, and looking
    // at every link meant as many looks; a refresh looks at under 4.
    assert!(
        stats.links_looked * 16 <= stats.refreshes * cells,
        "{} of {} wireless-link looks",
        stats.links_looked,
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
            links_looked: cells,
            links_rerun: cells,
            links_skipped: 0,
            redispatched: tracked,
            statics_looked: tracked,
            pools_recomputed: cells,
        }
    );
    assert_eq!(wireless_bits(&restored), wireless_bits(&mgr));
}

#[test]
fn the_refresh_on_the_office_week_does_exactly_this_much_work() {
    let (mgr, _) = replay(&office_week());
    let stats = mgr.refresh_stats();
    assert_eq!(
        stats,
        RefreshStats {
            refreshes: 11_598,
            links_looked: 29_214,
            links_rerun: 29_214,
            links_skipped: 0,
            redispatched: 13_964,
            statics_looked: 9_159,
            pools_recomputed: 708,
        }
    );
    assert_eq!(stats.links_rerun + stats.links_skipped, stats.links_looked);
}

/// What each change log handed its readers over `sc`'s stream
/// (`Traffic::drained`, summed over reads), by log.
fn drained(sc: &Scenario) -> [(&'static str, u64); 10] {
    let (mgr, _) = replay(sc);
    mgr.log_traffic().map(|(name, t)| (name, t.drained))
}

/// Every change log hands out exactly the ids the record it replaced
/// did. The counts were first taken from those records — `Network`'s
/// `changed` and `written` buffers, the statics' flip list, the watch
/// queue's pending and revision-moved cells, the plans' queue, the
/// pools' re-fold and re-pool queues and the spreads' re-stage marks —
/// by a counting harness over the same stream, each read after the
/// first (a first read hands out nothing and says `all`). `net.ended`
/// has no reader here: no adaptation round runs on either stream.
/// `plans.due` and `pools.repool` are `links_looked` and
/// `pools_recomputed` less the first refresh's every-cell walk.
#[test]
fn each_change_log_on_the_wing_hands_out_exactly_this_much() {
    assert_eq!(
        drained(&wing()),
        [
            ("net.changed", 3_443),
            ("net.ended", 0),
            ("net.written", 22_329),
            ("statics.flipped", 701),
            ("watch.pend", 4_437),
            ("watch.handoffs", 3_845),
            ("plans.due", 15_629),
            ("pools.refold", 574),
            ("pools.repool", 1_099),
            ("spreads.restage", 38),
        ]
    );
}

/// [`each_change_log_on_the_wing_hands_out_exactly_this_much`] on the
/// office week: no lounge spread moves, so nothing re-stages.
#[test]
fn each_change_log_on_the_office_week_hands_out_exactly_this_much() {
    assert_eq!(
        drained(&office_week()),
        [
            ("net.changed", 9_160),
            ("net.ended", 0),
            ("net.written", 47_490),
            ("statics.flipped", 4_229),
            ("watch.pend", 10_259),
            ("watch.handoffs", 9_116),
            ("plans.due", 29_207),
            ("pools.refold", 3_236),
            ("pools.repool", 701),
            ("spreads.restage", 0),
        ]
    );
}
