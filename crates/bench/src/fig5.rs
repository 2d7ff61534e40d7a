//! The Figure 5 experiment: meeting-room handoffs under three
//! reservation algorithms.
//!
//! §7.1: "We simulated the following three advanced reservation
//! algorithms for the measured handoffs: (a) brute force reservation in
//! the neighborhood of a user, (b) advance reservation based on
//! aggregation of previous handoffs from a cell to its neighbors, and (c)
//! the meeting room algorithm … cell throughput 1.6 Mbps, each user opens
//! one connection of either 16 Kbps (75%) or 64 Kbps (25%). For the 35
//! student class, the offered load was 59%; brute force registered 2
//! connection drops, the other two none. For the 55 student class (94%
//! load): brute force 7, aggregation 4, meeting room 0."
//!
//! The runner replays the meeting [`Scenario`] through the server's event
//! loop ([`Server::apply_event`]): the scenario's trace as a server event
//! stream, with one fixed-rate `Request` line from the §7.1 mix after
//! each `Appear`.

use std::collections::{BTreeMap, BTreeSet};

use arm_core::scenario::{MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_mobility::models::meeting::{MeetingEnv, MeetingParams, ATTENDEE_BASE, WALKBY_BASE};
use arm_mobility::WorkloadMix;
use arm_net::ids::PortableId;
use arm_obs::Obs;
use arm_server::drill::events_from_scenario;
use arm_server::{Server, ServerConfig, ServerEvent};
use arm_sim::stats::TimeSeries;
use arm_sim::{Audited, FaultSchedule, SimDuration, SimRng};

/// Everything Figure 5 plots, for one (algorithm, class-size) run.
#[derive(Clone, Debug)]
pub struct MeetingRunResult {
    /// Strategy label.
    pub strategy: String,
    /// Offered load against the 1.6 Mbps classroom medium.
    pub offered_load: f64,
    /// Attendee connections dropped while entering or leaving the
    /// classroom — the count the paper reports (drops caused by wasteful
    /// walk-by reservations inside the room).
    pub drops: u64,
    /// Walk-by connections dropped in the corridor (collateral damage of
    /// over-reservation; not part of the paper's headline count).
    pub walkby_drops: u64,
    /// New connections blocked outright.
    pub blocks: u64,
    /// Fig 5.a / 5.c / 5.b+d: handoffs into the classroom, out of the
    /// classroom, and total activity at the corridor outside, per minute.
    pub into_room: TimeSeries,
    /// Handoffs out of the classroom per minute.
    pub out_of_room: TimeSeries,
    /// Total handoff arrivals at the corridor cell per minute.
    pub corridor_activity: TimeSeries,
    /// The simulated span the series cover. Quiet tail minutes record no
    /// samples, so plot the series with
    /// [`values_padded`](TimeSeries::values_padded)`(SimTime::ZERO + span)`
    /// to keep the time axis comparable across runs.
    pub span: SimDuration,
}

/// Run one strategy against one class size. The trace depends only on
/// `seed`, so every strategy sees the *same* handoffs, as in the paper.
pub fn run(strategy: Strategy, attendees: usize, seed: u64) -> MeetingRunResult {
    // The sample scenario is the lecture: the meeting floor plan, 1.6 Mbps
    // cells, `T_th` = 5 min.
    let scenario = Scenario {
        mobility: MobilitySpec::Meeting { attendees },
        workload: WorkloadSpec::None,
        strategy,
        seed,
        ..Scenario::sample()
    };
    let events = events_from_scenario(&scenario, &FaultSchedule::empty())
        .invariant("the meeting scenario is valid");
    let rates = rates(&events, seed);
    let cfg = ServerConfig {
        checkpoint_every: 0,
        ..scenario.into()
    };
    let mut server = Server::new(cfg, Obs::off()).invariant("the meeting scenario is valid");
    let apply = |server: &mut Server, ev: &ServerEvent| {
        server
            .apply_event(ev)
            .invariant("a generated stream is valid");
    };
    let holds =
        |server: &Server, p: PortableId| server.mgr.net.connections_of_portable(p).next().is_some();

    let menv = MeetingEnv::build();
    let minute = SimDuration::from_mins(1);
    let (mut into_room, mut out_of_room, mut corridor_activity) = (
        TimeSeries::new(minute),
        TimeSeries::new(minute),
        TimeSeries::new(minute),
    );
    let (mut drops, mut walkby_drops) = (0, 0);
    for ev in &events {
        let (t, portable, from, to) = match *ev {
            ServerEvent::Appear { t, portable, cell } => (t, portable, None, cell),
            ServerEvent::Move { t, portable, to } => {
                (t, portable, server.mgr.portable_cell(portable), to)
            }
            _ => {
                apply(&mut server, ev);
                continue;
            }
        };
        let held = holds(&server, portable);
        apply(&mut server, ev);
        if from.is_none() {
            let kbps = rates[&portable];
            apply(
                &mut server,
                &ServerEvent::Request {
                    t,
                    portable,
                    b_min_kbps: kbps,
                    b_max_kbps: kbps,
                },
            );
        } else if held && !holds(&server, portable) {
            if (ATTENDEE_BASE..WALKBY_BASE).contains(&portable.0) {
                drops += 1;
            } else {
                walkby_drops += 1;
            }
        }
        if to == menv.m {
            into_room.incr(t);
        }
        if from == Some(menv.m) {
            out_of_room.incr(t);
        }
        if to == menv.x {
            corridor_activity.incr(t);
        }
    }
    MeetingRunResult {
        strategy: strategy.label(),
        offered_load: WorkloadMix::paper71().offered_load(attendees, 1600.0),
        drops,
        walkby_drops,
        blocks: server.mgr.metrics.blocked.get(),
        into_room,
        out_of_room,
        corridor_activity,
        span: MeetingParams::default().span,
    }
}

/// Everyone gets one fixed-rate connection from the §7.1 mix. Attendees
/// draw from an exact 75%/25% deck (the paper's "each user opens one
/// connection of either 16 Kbps (75%) or 64 Kbps (25%)"); walk-by
/// pedestrians sample freely, in id order. The rates depend only on
/// `seed`, so every strategy assigns identical rates to identical users.
fn rates(events: &[ServerEvent], seed: u64) -> BTreeMap<PortableId, f64> {
    let mut rng = SimRng::new(seed).split("workload");
    let mix = WorkloadMix::paper71();
    let (attendees, walkbys): (Vec<_>, Vec<_>) = events
        .iter()
        .filter_map(|ev| match *ev {
            ServerEvent::Appear { portable, .. } => Some(portable),
            _ => None,
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .partition(|p| (ATTENDEE_BASE..WALKBY_BASE).contains(&p.0));
    let n_small = (attendees.len() as f64 * 0.75).round() as usize;
    let mut deck: Vec<f64> = (0..attendees.len())
        .map(|i| mix.entries[usize::from(i >= n_small)].1.b_min)
        .collect();
    rng.shuffle(&mut deck);
    let mut rates: BTreeMap<PortableId, f64> = attendees.into_iter().zip(deck).collect();
    for p in walkbys {
        rates.insert(p, mix.sample(&mut rng).b_min);
    }
    rates
}

/// Run the paper's three algorithms on one shared trace; returns results
/// in the order brute-force, aggregate, meeting-room.
pub fn compare(attendees: usize, seed: u64) -> Vec<MeetingRunResult> {
    [Strategy::BruteForce, Strategy::Aggregate, Strategy::Paper]
        .into_iter()
        .map(|s| run(s, attendees, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lecture_35_shape_matches_the_paper() {
        // Paper: brute force 2 drops, aggregate 0, meeting room 0. The
        // exact per-algorithm counts are single-draw artefacts (our draw
        // differs, and attendee drops number in the low single digits);
        // the reproducible claims are that the meeting algorithm is
        // perfect and that brute force loses more victims overall
        // (attendees + walk-bys) than aggregation.
        let results = compare(35, 42);
        let (bf, ag, mr) = (&results[0], &results[1], &results[2]);
        assert_eq!(mr.strategy, "paper");
        assert_eq!(mr.drops, 0, "meeting algorithm must not drop");
        assert_eq!(mr.walkby_drops, 0, "meeting algorithm spares walk-bys");
        assert!(bf.drops > 0, "brute force drops even at modest load");
        assert!(
            bf.drops + bf.walkby_drops > ag.drops + ag.walkby_drops,
            "brute force ({} + {}) must hurt more than aggregate ({} + {})",
            bf.drops,
            bf.walkby_drops,
            ag.drops,
            ag.walkby_drops
        );
        // All attendees entered the room.
        assert_eq!(mr.into_room.total(), 35.0);
    }

    #[test]
    fn lab_55_ordering_matches_the_paper() {
        // Paper: brute force 7 > aggregation 4 > meeting room 0. The
        // exact counts depend on the draw; the reproducible claims are
        // the meeting algorithm's zero and the total-victim ordering
        // (attendee drops alone are single digits, where a draw can tie
        // brute force with aggregation).
        let results = compare(55, 42);
        let (bf, ag, mr) = (&results[0], &results[1], &results[2]);
        assert_eq!(mr.drops, 0, "meeting room drops: {}", mr.drops);
        assert_eq!(mr.walkby_drops, 0, "meeting room walk-by drops");
        assert!(
            bf.drops + bf.walkby_drops > ag.drops + ag.walkby_drops,
            "brute force ({} + {}) must hurt more than aggregate ({} + {})",
            bf.drops,
            bf.walkby_drops,
            ag.drops,
            ag.walkby_drops
        );
        assert!(ag.drops > 0, "at 96% load aggregate also drops");
    }

    #[test]
    fn offered_loads_bracket_the_paper() {
        let results = compare(35, 1);
        assert!((results[0].offered_load - 0.6125).abs() < 1e-9);
        let results = compare(55, 1);
        assert!((results[0].offered_load - 0.9625).abs() < 1e-9);
    }

    #[test]
    fn corridor_activity_dominates_room_series() {
        let results = compare(35, 7);
        let r = &results[2];
        assert!(r.corridor_activity.total() > r.into_room.total());
        // The room's arrival peak sits in the 10-minute window around the
        // class start (minute 20–32).
        let peak = r.into_room.peak_slot().expect("arrivals exist");
        assert!((19..=32).contains(&peak), "peak at minute {peak}");
    }
}
