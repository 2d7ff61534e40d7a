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
//! The driver replays an `arm-mobility` meeting trace through the full
//! [`ResourceManager`], one connection per user from the §7.1 mix.

use std::collections::BTreeMap;

use arm_mobility::models::meeting::{self, MeetingEnv, MeetingParams};
use arm_mobility::{MobilityTrace, WorkloadMix};
use arm_net::ids::{ConnId, PortableId};
use arm_reservation::meeting::{BookingCalendar, Meeting};
use arm_sim::stats::TimeSeries;
use arm_sim::{SimDuration, SimRng, SimTime};

use crate::manager::{ManagerConfig, ResourceManager, SLOT};
use crate::strategy::Strategy;

/// Everything Figure 5 plots, for one (algorithm, class-size) run.
#[derive(Clone, Debug)]
pub struct MeetingRunResult {
    /// Strategy label.
    pub strategy: String,
    /// Number of attendees.
    pub attendees: usize,
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

/// Run one strategy against one class size.
pub fn run(strategy: Strategy, attendees: usize, seed: u64) -> MeetingRunResult {
    let menv = MeetingEnv::build();
    let params = MeetingParams {
        attendees,
        ..Default::default()
    };
    let mut rng = SimRng::new(seed);
    let trace = meeting::generate(&menv, &params, &mut rng);
    run_trace(strategy, &menv, &params, &trace, &mut rng.split("workload"))
}

/// Run one strategy against a pre-generated trace (so every strategy sees
/// the *same* handoffs, as in the paper).
pub fn run_trace(
    strategy: Strategy,
    menv: &MeetingEnv,
    params: &MeetingParams,
    trace: &MobilityTrace,
    rng: &mut SimRng,
) -> MeetingRunResult {
    let net = menv.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(menv.env.clone(), net, cfg);
    // The meeting-room algorithm knows the booking.
    let mut cal = BookingCalendar::new();
    cal.book(Meeting {
        t_start: params.t_start,
        t_end: params.t_start + params.duration,
        expected: params.attendees as u32,
    });
    mgr.set_calendar(menv.m, cal);

    // Everyone gets one connection from the §7.1 mix. Attendees draw
    // from an exact 75%/25% deck (the paper's "each user opens one
    // connection of either 16 Kbps (75%) or 64 Kbps (25%)"); walk-by
    // pedestrians sample freely. Rates are fixed up front so every
    // strategy assigns identical rates to identical users.
    let mix = WorkloadMix::paper71();
    let mut rates: BTreeMap<PortableId, arm_net::flowspec::QosRequest> = BTreeMap::new();
    let attendees: Vec<PortableId> = trace
        .portables()
        .into_iter()
        .filter(|p| p.0 >= meeting::ATTENDEE_BASE && p.0 < meeting::WALKBY_BASE)
        .collect();
    let n_small = (attendees.len() as f64 * 0.75).round() as usize;
    let mut deck: Vec<arm_net::flowspec::QosRequest> = Vec::new();
    for i in 0..attendees.len() {
        deck.push(if i < n_small {
            mix.entries[0].1
        } else {
            mix.entries[1].1
        });
    }
    rng.shuffle(&mut deck);
    for (p, q) in attendees.iter().zip(deck) {
        rates.insert(*p, q);
    }
    for p in trace.portables() {
        rates.entry(p).or_insert_with(|| mix.sample(rng));
    }

    // A portable's connection ends when it leaves the modelled area —
    // i.e. at its final trace event (the corridor continues beyond the
    // model; we stop accounting for the user there).
    let mut last_event: BTreeMap<PortableId, SimTime> = BTreeMap::new();
    for ev in trace.events() {
        last_event.insert(ev.portable, ev.time);
    }

    let is_attendee = |p: PortableId| p.0 >= meeting::ATTENDEE_BASE && p.0 < meeting::WALKBY_BASE;
    let mut open_conns: BTreeMap<PortableId, ConnId> = BTreeMap::new();
    let mut dropped_conns = 0u64;
    let mut walkby_drops = 0u64;
    let mut next_slot = SimTime::ZERO + SLOT;
    for ev in trace.events() {
        while ev.time >= next_slot {
            mgr.slot_tick(next_slot);
            next_slot += SLOT;
        }
        match ev.from {
            None => {
                mgr.portable_appears(ev.portable, ev.to, ev.time);
                let qos = rates[&ev.portable];
                if let Ok(id) = mgr.request_connection(ev.portable, qos, ev.time) {
                    open_conns.insert(ev.portable, id);
                }
            }
            Some(_) => {
                let dropped = mgr.portable_moved(ev.portable, ev.to, ev.time);
                for id in dropped {
                    if open_conns.get(&ev.portable).is_some_and(|c| *c == id) {
                        open_conns.remove(&ev.portable);
                        if is_attendee(ev.portable) {
                            dropped_conns += 1;
                        } else {
                            walkby_drops += 1;
                        }
                    }
                }
            }
        }
        // Off the modelled floor: tear the connection down normally.
        if last_event[&ev.portable] == ev.time {
            if let Some(id) = open_conns.remove(&ev.portable) {
                mgr.terminate(id, ev.time);
            }
        }
    }
    let into_room = trace.arrivals_series(menv.m, SimDuration::from_mins(1));
    let out_of_room = trace.departures_series(menv.m, SimDuration::from_mins(1));
    let corridor_activity = trace.arrivals_series(menv.x, SimDuration::from_mins(1));
    MeetingRunResult {
        strategy: strategy.label(),
        attendees: params.attendees,
        offered_load: mix.offered_load(params.attendees, 1600.0),
        drops: dropped_conns,
        walkby_drops,
        blocks: mgr.metrics.blocked.get(),
        into_room,
        out_of_room,
        corridor_activity,
        span: params.span,
    }
}

/// Run the paper's three algorithms on one shared trace; returns results
/// in the order brute-force, aggregate, meeting-room.
pub fn compare(attendees: usize, seed: u64) -> Vec<MeetingRunResult> {
    let menv = MeetingEnv::build();
    let params = MeetingParams {
        attendees,
        ..Default::default()
    };
    let mut rng = SimRng::new(seed);
    let trace = meeting::generate(&menv, &params, &mut rng);
    [Strategy::BruteForce, Strategy::Aggregate, Strategy::Paper]
        .into_iter()
        .map(|s| {
            run_trace(
                s,
                &menv,
                &params,
                &trace,
                &mut SimRng::new(seed).split("workload"),
            )
        })
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
