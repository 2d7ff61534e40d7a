//! The meeting-room reservation algorithm (§6.2.1).
//!
//! A meeting room's profile includes a *booking calendar*; each meeting
//! specifies a start time `T_s`, stop time `T_a`, and expected attendance
//! `N_m`. The policy:
//!
//! * **(a) arrivals** — from `T_s − Δ_s` (Δ_s = 10 min in the paper's
//!   simulations) the room advance-reserves for `N_m` attendees and
//!   counts arrivals; at any time the reservation covers
//!   `N_m − N_arrived(t)`. Five minutes after `T_s` a timer releases
//!   whatever is still unused (no-shows).
//! * **(b) departures** — from `T_a − Δ_a` (Δ_a = 5 min) the room asks
//!   its neighbours to reserve for the leaving attendees, sized by the
//!   attendees still present; fifteen minutes after `T_a` the neighbours
//!   release what remains. (The paper words the neighbour demand as
//!   `N_m − N_left(t)`; we size it from the attendees actually present,
//!   `min(N_m, N_arrived) − N_left`, since no-show reservations were
//!   already released by timer (a) and cannot leave the room.)
//!
//! The policy is queried, not scheduled: the resource manager calls
//! [`MeetingRoomPolicy::room_demand`] / [`neighbor_demand`] whenever it
//! refreshes claims, and reports arrivals/departures as they happen.
//! Timers therefore need no event plumbing — they are implied by `now`.
//!
//! [`neighbor_demand`]: MeetingRoomPolicy::neighbor_demand

use arm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One calendar entry.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Meeting {
    /// Scheduled start `T_s`.
    pub t_start: SimTime,
    /// Scheduled end `T_a`.
    pub t_end: SimTime,
    /// Expected attendance `N_m` ("currently, we specify N_m in terms of
    /// the number of users").
    pub expected: u32,
}

/// The room's booking calendar (non-overlapping, time-sorted).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BookingCalendar {
    meetings: Vec<Meeting>,
}

impl BookingCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Book a meeting; panics if it overlaps an existing booking
    /// (including the surrounding reservation windows would be a policy
    /// choice; we require plain non-overlap of `[T_s, T_a]`).
    pub fn book(&mut self, m: Meeting) {
        assert!(m.t_end > m.t_start, "meeting must have positive duration");
        for ex in &self.meetings {
            assert!(
                m.t_end <= ex.t_start || m.t_start >= ex.t_end,
                "overlapping booking"
            );
        }
        self.meetings.push(m);
        self.meetings.sort_by_key(|m| m.t_start);
    }

    /// The booking whose extended window (`T_s − δ_before` to
    /// `T_a + δ_after`) contains `now`.
    pub(crate) fn active(
        &self,
        now: SimTime,
        before: SimDuration,
        after: SimDuration,
    ) -> Option<(usize, &Meeting)> {
        self.meetings
            .iter()
            .enumerate()
            .find(|(_, m)| now >= m.t_start.saturating_sub(before) && now <= m.t_end + after)
    }
}

/// Timer configuration (paper values as defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(crate) struct MeetingTimers {
    /// Δ_s: how long before `T_s` arrival reservations begin (10 min).
    pub(crate) delta_s: SimDuration,
    /// Release-unused timer after `T_s` (5 min).
    pub(crate) release_start: SimDuration,
    /// Δ_a: how long before `T_a` neighbour reservations begin (5 min).
    pub(crate) delta_a: SimDuration,
    /// Neighbour release timer after `T_a` (15 min).
    pub(crate) release_end: SimDuration,
}

impl Default for MeetingTimers {
    fn default() -> Self {
        MeetingTimers {
            delta_s: SimDuration::from_mins(10),
            release_start: SimDuration::from_mins(5),
            delta_a: SimDuration::from_mins(5),
            release_end: SimDuration::from_mins(15),
        }
    }
}

/// The per-room policy state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MeetingRoomPolicy {
    calendar: BookingCalendar,
    timers: MeetingTimers,
    /// Bandwidth to reserve per expected user (kbps) — the §7.1 workload
    /// mean, 0.75·16 + 0.25·64 = 28 kbps, unless configured otherwise.
    per_user_kbps: f64,
    /// Meeting index the counters refer to.
    counting_for: Option<usize>,
    n_arrived: u32,
    n_left: u32,
}

impl MeetingRoomPolicy {
    /// A policy over a calendar with the paper's timer values.
    pub fn new(calendar: BookingCalendar, per_user_kbps: f64) -> Self {
        MeetingRoomPolicy {
            calendar,
            timers: MeetingTimers::default(),
            per_user_kbps,
            counting_for: None,
            n_arrived: 0,
            n_left: 0,
        }
    }

    /// Which meeting is in its extended window at `now`, resetting the
    /// counters when the active meeting changes.
    fn sync(&mut self, now: SimTime) -> Option<Meeting> {
        let active = self
            .calendar
            .active(now, self.timers.delta_s, self.timers.release_end);
        match active {
            Some((idx, m)) => {
                if self.counting_for != Some(idx) {
                    self.counting_for = Some(idx);
                    self.n_arrived = 0;
                    self.n_left = 0;
                }
                Some(*m)
            }
            None => {
                self.counting_for = None;
                None
            }
        }
    }

    /// Report a portable entering the room at `now`.
    pub fn on_arrival(&mut self, now: SimTime) {
        if self.sync(now).is_some() {
            self.n_arrived += 1;
        }
    }

    /// Report a portable leaving the room at `now`.
    pub fn on_departure(&mut self, now: SimTime) {
        if self.sync(now).is_some() {
            self.n_left += 1;
        }
    }

    /// Bandwidth (kbps) the room should hold in advance for attendees
    /// still expected at `now` — rule (a).
    pub fn room_demand(&mut self, now: SimTime) -> f64 {
        let Some(m) = self.sync(now) else {
            return 0.0;
        };
        let window_start = m.t_start.saturating_sub(self.timers.delta_s);
        let release_at = m.t_start + self.timers.release_start;
        if now < window_start || now >= release_at {
            return 0.0;
        }
        let outstanding = m.expected.saturating_sub(self.n_arrived);
        f64::from(outstanding) * self.per_user_kbps
    }

    /// Bandwidth (kbps) the room should ask its neighbours to hold for
    /// departing attendees at `now` — rule (b). The caller splits this
    /// across neighbours using the cell profile's transition row.
    pub fn neighbor_demand(&mut self, now: SimTime) -> f64 {
        let Some(m) = self.sync(now) else {
            return 0.0;
        };
        let window_start = m.t_end.saturating_sub(self.timers.delta_a);
        let release_at = m.t_end + self.timers.release_end;
        if now < window_start || now >= release_at {
            return 0.0;
        }
        let present = self.n_arrived.min(m.expected).saturating_sub(self.n_left);
        f64::from(present) * self.per_user_kbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meeting() -> Meeting {
        Meeting {
            t_start: SimTime::from_mins(60),
            t_end: SimTime::from_mins(110),
            expected: 35,
        }
    }

    fn policy() -> MeetingRoomPolicy {
        let mut cal = BookingCalendar::new();
        cal.book(meeting());
        MeetingRoomPolicy::new(cal, 28.0)
    }

    #[test]
    fn room_demand_window() {
        let mut p = policy();
        // Before T_s − 10 min: nothing.
        assert_eq!(p.room_demand(SimTime::from_mins(49)), 0.0);
        // Inside the window: full expected attendance.
        assert_eq!(p.room_demand(SimTime::from_mins(50)), 35.0 * 28.0);
        // Arrivals shrink the outstanding reservation.
        for _ in 0..20 {
            p.on_arrival(SimTime::from_mins(55));
        }
        assert_eq!(p.room_demand(SimTime::from_mins(56)), 15.0 * 28.0);
        // The 5-minute release timer after T_s clears no-shows.
        assert_eq!(p.room_demand(SimTime::from_mins(64)), 15.0 * 28.0);
        assert_eq!(p.room_demand(SimTime::from_mins(65)), 0.0);
    }

    #[test]
    fn more_arrivals_than_expected_clamp_at_zero() {
        let mut p = policy();
        for _ in 0..40 {
            p.on_arrival(SimTime::from_mins(55));
        }
        assert_eq!(p.room_demand(SimTime::from_mins(56)), 0.0);
    }

    #[test]
    fn neighbor_demand_window() {
        let mut p = policy();
        for _ in 0..30 {
            p.on_arrival(SimTime::from_mins(55));
        }
        // Before T_a − 5 min: nothing.
        assert_eq!(p.neighbor_demand(SimTime::from_mins(104)), 0.0);
        // In the window: everyone still present may leave.
        assert_eq!(p.neighbor_demand(SimTime::from_mins(105)), 30.0 * 28.0);
        // Departures shrink it.
        for _ in 0..10 {
            p.on_departure(SimTime::from_mins(111));
        }
        assert_eq!(p.neighbor_demand(SimTime::from_mins(112)), 20.0 * 28.0);
        // The 15-minute release timer after T_a clears the rest.
        assert_eq!(p.neighbor_demand(SimTime::from_mins(124)), 20.0 * 28.0);
        assert_eq!(p.neighbor_demand(SimTime::from_mins(125)), 0.0);
    }

    #[test]
    fn counters_reset_between_meetings() {
        let mut cal = BookingCalendar::new();
        cal.book(meeting());
        cal.book(Meeting {
            t_start: SimTime::from_mins(200),
            t_end: SimTime::from_mins(250),
            expected: 10,
        });
        let mut p = MeetingRoomPolicy::new(cal, 28.0);
        for _ in 0..35 {
            p.on_arrival(SimTime::from_mins(55));
        }
        assert_eq!(p.n_arrived, 35);
        // The second meeting's window: counters start fresh.
        assert_eq!(p.room_demand(SimTime::from_mins(195)), 10.0 * 28.0);
        assert_eq!(p.n_arrived, 0);
    }

    #[test]
    fn arrivals_outside_any_window_are_ignored() {
        let mut p = policy();
        p.on_arrival(SimTime::from_mins(10));
        assert_eq!(p.n_arrived, 0);
    }

    #[test]
    #[should_panic(expected = "overlapping booking")]
    fn overlapping_bookings_rejected() {
        let mut cal = BookingCalendar::new();
        cal.book(meeting());
        cal.book(Meeting {
            t_start: SimTime::from_mins(100),
            t_end: SimTime::from_mins(130),
            expected: 5,
        });
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_meeting_rejected() {
        let mut cal = BookingCalendar::new();
        cal.book(Meeting {
            t_start: SimTime::from_mins(10),
            t_end: SimTime::from_mins(10),
            expected: 5,
        });
    }
}
