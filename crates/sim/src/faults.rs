//! Deterministic fault injection for robustness testing.
//!
//! The paper's algorithms are evaluated on a clean simulated network;
//! this module supplies the adversarial counterpart: a seeded,
//! reproducible schedule of faults — control-packet loss/delay windows,
//! link outages, zone profile-server outages, and handoff-signalling
//! failures — emitted as a time-sorted event list that a driver replays
//! against the resource manager exactly like
//! `arm_mobility::channel::ChannelEvent`s.
//!
//! The layer is deliberately dumb about the entities it disturbs:
//! links, zones, and portables are opaque `u32` indices that the
//! consumer maps onto its own id types. That keeps `arm-sim` free of
//! upward dependencies and lets the same schedule drive any topology.
//!
//! Windows generated for the same resource may overlap; consumers must
//! treat redundant `Down`/`Up` events as idempotent (a second `Down`
//! on a dead link is a no-op, the first `Up` revives it).

use serde::{Deserialize, Serialize};

use crate::{SimDuration, SimRng, SimTime};

/// What goes wrong.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Open a control-plane degradation window: from now on each
    /// control packet is independently dropped with probability `loss`
    /// and, if it survives, delayed (causing reordering) with
    /// probability `delay_prob`. Both in `[0, 1)`.
    ControlDegradeStart {
        /// Per-packet drop probability.
        loss: f64,
        /// Per-packet extra-delay probability.
        delay_prob: f64,
    },
    /// Close the control-plane degradation window.
    ControlDegradeEnd,
    /// A link (wired or wireless) fails; its usable capacity drops to
    /// the floors already admitted on it.
    LinkDown {
        /// Opaque link index, mapped by the consumer.
        link: u32,
    },
    /// The link comes back.
    LinkUp {
        /// Opaque link index, mapped by the consumer.
        link: u32,
    },
    /// A zone's profile server stops answering; predictions and
    /// profile updates for its cells are unavailable until `Up`.
    ProfileServerDown {
        /// Opaque zone index, mapped by the consumer.
        zone: u32,
    },
    /// The zone's profile server recovers (with stale profiles).
    ProfileServerUp {
        /// Opaque zone index, mapped by the consumer.
        zone: u32,
    },
    /// The next handoff attempted by this portable loses its
    /// signalling: advance reservations cannot be consumed.
    HandoffSignallingFailure {
        /// Opaque portable index, mapped by the consumer.
        portable: u32,
    },
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub time: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Knobs for [`FaultSchedule::generate`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FaultScheduleParams {
    /// Horizon; every window closes at or before this.
    pub span: SimDuration,
    /// Number of link indices to draw from (0 disables link faults).
    pub links: u32,
    /// Number of zone indices to draw from (0 disables server faults).
    pub zones: u32,
    /// Number of portable indices (0 disables handoff faults).
    pub portables: u32,
    /// How many link outage windows to inject.
    pub link_outages: u32,
    /// Mean (exponential) link outage duration.
    pub mean_link_outage: SimDuration,
    /// How many profile-server outage windows to inject.
    pub server_outages: u32,
    /// Mean (exponential) server outage duration.
    pub mean_server_outage: SimDuration,
    /// How many control-plane degradation windows to inject.
    pub control_windows: u32,
    /// Mean (exponential) degradation window duration.
    pub mean_control_window: SimDuration,
    /// Upper bound on the per-packet loss probability of a window.
    pub max_loss: f64,
    /// Upper bound on the per-packet delay probability of a window.
    pub max_delay_prob: f64,
    /// How many handoff signalling failures to inject.
    pub handoff_failures: u32,
}

impl Default for FaultScheduleParams {
    fn default() -> Self {
        FaultScheduleParams {
            span: SimDuration::from_mins(60),
            links: 0,
            zones: 0,
            portables: 0,
            link_outages: 3,
            mean_link_outage: SimDuration::from_secs(90),
            server_outages: 2,
            mean_server_outage: SimDuration::from_mins(5),
            control_windows: 3,
            mean_control_window: SimDuration::from_mins(2),
            max_loss: 0.5,
            max_delay_prob: 0.5,
            handoff_failures: 4,
        }
    }
}

/// A time-sorted list of [`FaultEvent`]s.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The schedule with no faults; replaying it is a no-op.
    pub fn empty() -> Self {
        FaultSchedule { events: Vec::new() }
    }

    /// Build a schedule from explicit events (stably sorted by time).
    pub(crate) fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.time);
        FaultSchedule { events }
    }

    /// Draw a random schedule. Deterministic in (`params`, `rng` seed);
    /// the caller's rng is not consumed (an independent stream is
    /// split off), so adding fault generation never perturbs the rest
    /// of a seeded scenario.
    pub fn generate(params: &FaultScheduleParams, rng: &SimRng) -> Self {
        let mut rng = rng.split("faults");
        let mut events = Vec::new();
        let span = params.span.as_secs_f64().max(0.0);

        let window = |rng: &mut SimRng, mean: SimDuration| -> (SimTime, SimTime) {
            let start = SimTime::from_secs_f64(rng.uniform(0.0, span));
            let end = (start + rng.exp_duration(mean)).min(SimTime::ZERO + params.span);
            (start, end)
        };

        if params.links > 0 {
            for _ in 0..params.link_outages {
                let link = rng.int_range(0, params.links as u64 - 1) as u32;
                let (start, end) = window(&mut rng, params.mean_link_outage);
                events.push(FaultEvent {
                    time: start,
                    kind: FaultKind::LinkDown { link },
                });
                events.push(FaultEvent {
                    time: end,
                    kind: FaultKind::LinkUp { link },
                });
            }
        }
        if params.zones > 0 {
            for _ in 0..params.server_outages {
                let zone = rng.int_range(0, params.zones as u64 - 1) as u32;
                let (start, end) = window(&mut rng, params.mean_server_outage);
                events.push(FaultEvent {
                    time: start,
                    kind: FaultKind::ProfileServerDown { zone },
                });
                events.push(FaultEvent {
                    time: end,
                    kind: FaultKind::ProfileServerUp { zone },
                });
            }
        }
        for _ in 0..params.control_windows {
            let loss = rng.uniform(0.0, params.max_loss.clamp(0.0, 0.999));
            let delay_prob = rng.uniform(0.0, params.max_delay_prob.clamp(0.0, 0.999));
            let (start, end) = window(&mut rng, params.mean_control_window);
            events.push(FaultEvent {
                time: start,
                kind: FaultKind::ControlDegradeStart { loss, delay_prob },
            });
            events.push(FaultEvent {
                time: end,
                kind: FaultKind::ControlDegradeEnd,
            });
        }
        if params.portables > 0 {
            for _ in 0..params.handoff_failures {
                let portable = rng.int_range(0, params.portables as u64 - 1) as u32;
                events.push(FaultEvent {
                    time: SimTime::from_secs_f64(rng.uniform(0.0, span)),
                    kind: FaultKind::HandoffSignallingFailure { portable },
                });
            }
        }
        Self::from_events(events)
    }

    /// The events, in non-decreasing time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when replaying the schedule would do nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_params() -> FaultScheduleParams {
        FaultScheduleParams {
            links: 6,
            zones: 2,
            portables: 30,
            ..FaultScheduleParams::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultSchedule::generate(&full_params(), &SimRng::new(7));
        let b = FaultSchedule::generate(&full_params(), &SimRng::new(7));
        assert_eq!(a, b);
        let c = FaultSchedule::generate(&full_params(), &SimRng::new(8));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn events_are_time_sorted_and_within_span() {
        let p = full_params();
        let sched = FaultSchedule::generate(&p, &SimRng::new(3));
        let horizon = SimTime::ZERO + p.span;
        let mut prev = SimTime::ZERO;
        for e in sched.events() {
            assert!(e.time >= prev, "events out of order");
            assert!(e.time <= horizon, "event beyond span");
            prev = e.time;
        }
        assert_eq!(
            sched.len(),
            (p.link_outages * 2 + p.server_outages * 2 + p.control_windows * 2 + p.handoff_failures)
                as usize
        );
    }

    #[test]
    fn every_down_has_a_matching_up() {
        let sched = FaultSchedule::generate(&full_params(), &SimRng::new(11));
        let mut link_depth = 0i64;
        let mut zone_depth = 0i64;
        let mut ctrl_depth = 0i64;
        for e in sched.events() {
            match e.kind {
                FaultKind::LinkDown { .. } => link_depth += 1,
                FaultKind::LinkUp { .. } => link_depth -= 1,
                FaultKind::ProfileServerDown { .. } => zone_depth += 1,
                FaultKind::ProfileServerUp { .. } => zone_depth -= 1,
                FaultKind::ControlDegradeStart { loss, delay_prob } => {
                    assert!((0.0..1.0).contains(&loss));
                    assert!((0.0..1.0).contains(&delay_prob));
                    ctrl_depth += 1;
                }
                FaultKind::ControlDegradeEnd => ctrl_depth -= 1,
                FaultKind::HandoffSignallingFailure { .. } => {}
            }
        }
        assert_eq!(link_depth, 0);
        assert_eq!(zone_depth, 0);
        assert_eq!(ctrl_depth, 0);
    }

    #[test]
    fn zero_counts_make_an_empty_schedule() {
        let p = FaultScheduleParams {
            link_outages: 0,
            server_outages: 0,
            control_windows: 0,
            handoff_failures: 0,
            ..full_params()
        };
        let sched = FaultSchedule::generate(&p, &SimRng::new(1));
        assert!(sched.is_empty());
        assert!(FaultSchedule::empty().is_empty());
    }

    #[test]
    fn generation_does_not_consume_the_callers_rng() {
        let base = SimRng::new(42);
        let mut a = base.split("scenario");
        let _ = FaultSchedule::generate(&full_params(), &base);
        let mut b = base.split("scenario");
        for _ in 0..16 {
            assert_eq!(a.unit(), b.unit());
        }
    }
}
