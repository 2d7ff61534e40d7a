//! The Figure 5 meeting-room scenario.
//!
//! "The handoffs into the classes were mostly aggregated in a 10 minute
//! period around the start of the class, while the handoffs out of the
//! classes were mostly aggregated in a 5 minute period after the class."
//! Figure 5 plots, for a 35-student lecture and a 55-student laboratory:
//! (a) handoffs into the classroom at the start, (b) total handoff
//! activity just outside at the same time, (c) handoffs out at the end,
//! (d) total activity outside at the end — "a fraction of the students
//! who walk by the class actually enter".
//!
//! The generator produces attendees converging through the corridor cell
//! outside the classroom, superimposed on a Poisson walk-by stream that
//! never enters — the traffic whose wasteful advance reservations sink
//! the brute-force and aggregate algorithms at high load.

use arm_net::ids::{CellId, PortableId};
use arm_profiles::{CellClass, LoungeKind};
use arm_sim::{SimDuration, SimRng, SimTime};

use crate::environment::IndoorEnvironment;
use crate::trace::MobilityTrace;

use super::markov::Walker;

/// The meeting scenario's floor plan: a corridor W–X–Y with the
/// classroom M off the middle segment X.
#[derive(Clone, Debug)]
pub struct MeetingEnv {
    /// The floor plan.
    pub env: IndoorEnvironment,
    /// West corridor segment (walk-by entry/exit).
    pub(crate) w: CellId,
    /// The corridor segment outside the classroom.
    pub x: CellId,
    /// East corridor segment (walk-by entry/exit).
    pub(crate) y: CellId,
    /// The classroom (a meeting-room lounge).
    pub m: CellId,
}

impl MeetingEnv {
    /// Build the scenario plan.
    pub fn build() -> Self {
        let mut env = IndoorEnvironment::new();
        let w = env.add_cell("W", CellClass::Corridor);
        let x = env.add_cell("X", CellClass::Corridor);
        let y = env.add_cell("Y", CellClass::Corridor);
        let m = env.add_cell("M", CellClass::Lounge(LoungeKind::MeetingRoom));
        env.connect(w, x);
        env.connect(x, y);
        env.connect(x, m);
        MeetingEnv { env, w, x, y, m }
    }
}

/// Scenario parameters. Defaults model the paper's lecture: class at
/// t = 30 min lasting 50 min, arrivals in the 10 minutes around the
/// start, departures in the 5 minutes after the end.
#[derive(Clone, Copy, Debug)]
pub struct MeetingParams {
    /// Number of attendees (35 for the lecture, 55 for the laboratory).
    pub attendees: usize,
    /// Class start time.
    pub t_start: SimTime,
    /// Class duration.
    pub duration: SimDuration,
    /// Arrivals fall within `[t_start − window, t_start + slack]`.
    pub arrival_window: SimDuration,
    /// Small fraction of late arrivals after the start.
    pub arrival_slack: SimDuration,
    /// Departures fall within `[t_end, t_end + departure_window]`.
    pub departure_window: SimDuration,
    /// Walk-by pedestrians per minute outside the surge windows.
    pub walkby_quiet_per_min: f64,
    /// Walk-by pedestrians per minute during the class-change surges
    /// (around the start and after the end — Figure 5.b/d show the
    /// corridor activity peaking exactly then).
    pub walkby_surge_per_min: f64,
    /// Total simulated span.
    pub span: SimDuration,
}

impl Default for MeetingParams {
    fn default() -> Self {
        MeetingParams {
            attendees: 35,
            t_start: SimTime::from_mins(30),
            duration: SimDuration::from_mins(50),
            arrival_window: SimDuration::from_mins(10),
            arrival_slack: SimDuration::from_mins(2),
            departure_window: SimDuration::from_mins(5),
            walkby_quiet_per_min: 1.0,
            walkby_surge_per_min: 20.0,
            span: SimDuration::from_mins(120),
        }
    }
}

impl MeetingParams {
    /// The walk-by intensity (per minute) at time `t`: surging in the
    /// 10 minutes around the class start and after the end.
    pub(crate) fn walkby_intensity(&self, t: SimTime) -> f64 {
        let t_end = self.t_start + self.duration;
        let start_lo = self.t_start.saturating_sub(self.arrival_window);
        let start_hi = self.t_start + self.arrival_slack;
        let end_hi = t_end + SimDuration::from_mins(10);
        if (t >= start_lo && t <= start_hi) || (t >= t_end && t <= end_hi) {
            self.walkby_surge_per_min
        } else {
            self.walkby_quiet_per_min
        }
    }
}

/// First portable id used for attendees; walk-by traffic starts above the
/// attendee range.
pub const ATTENDEE_BASE: u32 = 1000;
/// First portable id used for walk-by pedestrians.
pub const WALKBY_BASE: u32 = 10_000;

/// Generate the meeting trace.
pub fn generate(menv: &MeetingEnv, params: &MeetingParams, rng: &mut SimRng) -> MobilityTrace {
    let rng = rng.split("meeting");
    let mut trace = MobilityTrace::new();
    let t_end = params.t_start + params.duration;
    let hop = |rng: &mut SimRng| SimDuration::from_secs(rng.int_range(10, 30));

    // Attendees.
    for i in 0..params.attendees {
        let p = PortableId(ATTENDEE_BASE + i as u32);
        let mut rng = rng.split_index("attendee", i as u64);
        // Enter the classroom at a time in the arrival window…
        let window = params.arrival_window + params.arrival_slack;
        let enter_at = (params.t_start - params.arrival_window)
            + SimDuration::from_secs_f64(rng.unit() * window.as_secs_f64());
        // …and leave in the departure window.
        let leave_at =
            t_end + SimDuration::from_secs_f64(rng.unit() * params.departure_window.as_secs_f64());
        // Walk in from W or Y through X.
        let from_west = rng.chance(0.5);
        let start = if from_west { menv.w } else { menv.y };
        // Budget two hops before the classroom entry.
        let h1 = hop(&mut rng);
        let h2 = hop(&mut rng);
        let appear_at = enter_at.saturating_sub(h1 + h2);
        let mut wk = Walker::new(&menv.env, p, appear_at);
        wk.appear(start).step_to(menv.x, h1).step_to(menv.m, h2);
        // Sit through the class.
        wk.at_time(leave_at);
        let exit_west = rng.chance(0.5);
        wk.step_to(menv.x, hop(&mut rng))
            .step_to(if exit_west { menv.w } else { menv.y }, hop(&mut rng));
        trace = trace.merge(wk.into_trace());
    }

    // Walk-by stream: a nonhomogeneous Poisson process (thinned against
    // the surge profile), each pedestrian crossing W → X → Y or
    // Y → X → W with a realistic dwell in the corridor segment.
    let mut t = SimTime::ZERO;
    let max_rate = params
        .walkby_surge_per_min
        .max(params.walkby_quiet_per_min)
        .max(1e-9);
    let mut k = 0u32;
    let mut wrng = rng.split("walkby");
    loop {
        t += wrng.exp_duration(SimDuration::from_secs_f64(60.0 / max_rate));
        if t.since(SimTime::ZERO) >= params.span {
            break;
        }
        if !wrng.chance(params.walkby_intensity(t) / max_rate) {
            continue;
        }
        let p = PortableId(WALKBY_BASE + k);
        k += 1;
        let west_to_east = wrng.chance(0.5);
        let (a, b) = if west_to_east {
            (menv.w, menv.y)
        } else {
            (menv.y, menv.w)
        };
        let mut wk = Walker::new(&menv.env, p, t);
        wk.appear(a).step_to(menv.x, hop(&mut wrng));
        // Linger outside the classroom (chat, notice board, …).
        wk.dwell(SimDuration::from_secs(wrng.int_range(30, 90)));
        wk.step_to(b, hop(&mut wrng));
        trace = trace.merge(wk.into_trace());
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_cluster_around_start_departures_after_end() {
        let menv = MeetingEnv::build();
        let params = MeetingParams::default();
        let trace = generate(&menv, &params, &mut SimRng::new(5));
        assert!(trace.check_consistency().is_ok());

        // Exactly `attendees` entries into the classroom.
        let entries: Vec<SimTime> = trace
            .events()
            .iter()
            .filter(|e| e.to == menv.m)
            .map(|e| e.time)
            .collect();
        assert_eq!(entries.len(), params.attendees);
        // All entries inside the arrival window (±slack).
        let lo = params.t_start - params.arrival_window;
        let hi = params.t_start + params.arrival_slack;
        assert!(entries.iter().all(|t| *t >= lo && *t <= hi));

        // Exactly `attendees` exits, all within the departure window.
        let t_end = params.t_start + params.duration;
        let exits: Vec<SimTime> = trace
            .events()
            .iter()
            .filter(|e| e.from == Some(menv.m))
            .map(|e| e.time)
            .collect();
        assert_eq!(exits.len(), params.attendees);
        // Small hop time after leave_at is included; allow one hop (30 s).
        let hi_exit = t_end + params.departure_window + SimDuration::from_secs(30);
        assert!(exits.iter().all(|t| *t >= t_end && *t <= hi_exit));
    }

    #[test]
    fn corridor_sees_more_traffic_than_the_classroom() {
        let menv = MeetingEnv::build();
        let params = MeetingParams::default();
        let trace = generate(&menv, &params, &mut SimRng::new(5));
        let into_class = trace.events().iter().filter(|e| e.to == menv.m).count();
        let into_corridor = trace.events().iter().filter(|e| e.to == menv.x).count();
        // Figure 5.b: walk-by traffic means the corridor activity strictly
        // dominates the classroom's.
        assert!(
            into_corridor > into_class,
            "{into_corridor} vs {into_class}"
        );
    }

    #[test]
    fn walkby_rate_scales() {
        let menv = MeetingEnv::build();
        let quiet = MeetingParams {
            walkby_quiet_per_min: 0.5,
            walkby_surge_per_min: 0.5,
            ..Default::default()
        };
        let busy = MeetingParams {
            walkby_quiet_per_min: 8.0,
            walkby_surge_per_min: 8.0,
            ..Default::default()
        };
        let tq = generate(&menv, &quiet, &mut SimRng::new(9));
        let tb = generate(&menv, &busy, &mut SimRng::new(9));
        let walkers =
            |t: &MobilityTrace| t.portables().iter().filter(|p| p.0 >= WALKBY_BASE).count();
        assert!(walkers(&tb) > walkers(&tq) * 4);
    }

    #[test]
    fn walkby_surges_around_class_boundaries() {
        let menv = MeetingEnv::build();
        let params = MeetingParams::default();
        let trace = generate(&menv, &params, &mut SimRng::new(11));
        // Corridor arrivals in the surge window around the start should
        // clearly exceed a mid-class window of equal length.
        let arrivals = trace.arrivals_series(menv.x, SimDuration::from_mins(1));
        let v = arrivals.values();
        let sum = |lo: usize, hi: usize| -> f64 { v.iter().skip(lo).take(hi - lo).sum() };
        let surge = sum(20, 32); // minutes 20–32 (class starts at 30)
        let mid = sum(45, 57); // quiet mid-class window
        assert!(surge > mid * 2.0, "surge {surge} vs mid {mid}");
    }

    #[test]
    fn lab_of_55_has_more_entries() {
        let menv = MeetingEnv::build();
        let lab = MeetingParams {
            attendees: 55,
            ..Default::default()
        };
        let trace = generate(&menv, &lab, &mut SimRng::new(5));
        assert_eq!(trace.events().iter().filter(|e| e.to == menv.m).count(), 55);
    }
}
