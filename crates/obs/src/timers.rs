//! Span-style phase timers.
//!
//! A phase is one named unit of control-plane work (an admission
//! round-trip, a maxmin re-solve, a prediction update). Each phase gets
//! two [`Histogram`]s: wall-clock microseconds (how expensive the code
//! is) and sim-time microseconds (how long the modelled system took).
//! The pattern is token-based rather than RAII so callers never hold a
//! borrow across the timed region:
//!
//! ```
//! # use arm_obs::{Obs, Phase};
//! # use arm_sim::time::SimTime;
//! let mut obs = Obs::recording(16);
//! let now = SimTime::from_secs(1);
//! let tok = obs.phase_start(now);
//! // ... do the work ...
//! obs.phase_end(Phase::Admission, tok, now);
//! ```
//!
//! When observation is off, [`Obs::phase_start`](crate::Obs::phase_start)
//! skips the `Instant::now()` syscall entirely and `phase_end` is a
//! no-op, so the disabled overhead is two branches.
//!
//! This module is the workspace's one reader of the wall clock.
#![expect(
    clippy::disallowed_types,
    reason = "phase timers measure wall time; it feeds reports, never simulation state"
)]

use std::time::Instant;

use arm_sim::stats::Histogram;
use arm_sim::time::SimTime;

use crate::report::{HistSummary, PhaseSummary};

/// The named control-plane phases we time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One admission round-trip (request → decision).
    Admission,
    /// One eqn-2 adaptation round: the maxmin re-solve plus rate
    /// application.
    Maxmin,
    /// A per-slot prediction update (predictor observe + claim sizing).
    PredictionUpdate,
    /// A claims refresh sweep.
    ClaimRefresh,
    /// One handoff (move → re-admit/claim drawdown → outcome).
    Handoff,
}

impl Phase {
    /// Every phase, in schema order.
    pub const ALL: [Phase; 5] = [
        Phase::Admission,
        Phase::Maxmin,
        Phase::PredictionUpdate,
        Phase::ClaimRefresh,
        Phase::Handoff,
    ];

    /// Stable kebab-case label (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Maxmin => "maxmin",
            Phase::PredictionUpdate => "prediction-update",
            Phase::ClaimRefresh => "claim-refresh",
            Phase::Handoff => "handoff",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Admission => 0,
            Phase::Maxmin => 1,
            Phase::PredictionUpdate => 2,
            Phase::ClaimRefresh => 3,
            Phase::Handoff => 4,
        }
    }
}

/// An in-flight phase measurement. `Copy` so callers can thread it
/// through control flow freely; dropping it without `phase_end` simply
/// records nothing.
#[derive(Clone, Copy, Debug)]
pub struct PhaseToken {
    pub(crate) wall: Option<Instant>,
    pub(crate) sim_start: SimTime,
}

impl PhaseToken {
    /// A token that started now on both clocks.
    #[inline]
    pub(crate) fn start(now: SimTime) -> Self {
        PhaseToken {
            wall: Some(Instant::now()),
            sim_start: now,
        }
    }

    /// A token that records nothing (the disabled path).
    pub(crate) fn inert() -> Self {
        PhaseToken {
            wall: None,
            sim_start: SimTime::ZERO,
        }
    }
}

/// One phase's paired distributions.
#[derive(Clone, Debug)]
pub struct PhaseTimer {
    /// Wall-clock cost per span, microseconds.
    pub wall_us: Histogram,
    /// Sim-time elapsed per span, microseconds.
    pub sim_us: Histogram,
    spans: u64,
}

impl PhaseTimer {
    fn new() -> Self {
        PhaseTimer {
            // Control-plane work is typically well under a millisecond of
            // wall clock; min/max saturation keeps the tails honest when
            // a span lands outside the binned range.
            wall_us: Histogram::new(0.0, 5_000.0, 100),
            // Sim-time spans range from instantaneous (synchronous
            // solves) to multi-second protocol round-trips.
            sim_us: Histogram::new(0.0, 10_000_000.0, 100),
            spans: 0,
        }
    }

    /// Spans recorded.
    pub fn spans(&self) -> u64 {
        self.spans
    }
}

/// All phase timers, indexed by [`Phase`].
#[derive(Clone, Debug)]
pub struct PhaseTimers {
    timers: Vec<PhaseTimer>,
}

impl Default for PhaseTimers {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTimers {
    /// Fresh, empty timers for every phase.
    pub fn new() -> Self {
        PhaseTimers {
            timers: Phase::ALL.iter().map(|_| PhaseTimer::new()).collect(),
        }
    }

    /// Record one finished span.
    pub fn record(&mut self, phase: Phase, token: PhaseToken, now: SimTime) {
        let Some(started) = token.wall else {
            return;
        };
        let idx = phase.index();
        let Some(timer) = self.timers.get_mut(idx) else {
            return;
        };
        let wall_us = started.elapsed().as_secs_f64() * 1e6;
        let sim_us = now.saturating_since(token.sim_start).as_secs_f64() * 1e6;
        timer.wall_us.record(wall_us);
        timer.sim_us.record(sim_us);
        timer.spans += 1;
    }

    /// This phase's timer.
    pub fn get(&self, phase: Phase) -> &PhaseTimer {
        // Construction guarantees one timer per phase; fall back to the
        // first slot rather than indexing (no-panic discipline).
        self.timers.get(phase.index()).unwrap_or(&self.timers[0])
    }

    /// Summaries for every phase that recorded at least one span.
    pub fn summaries(&self) -> Vec<PhaseSummary> {
        Phase::ALL
            .iter()
            .zip(&self.timers)
            .filter(|(_, t)| t.spans > 0)
            .map(|(p, t)| PhaseSummary {
                phase: p.name().to_string(),
                spans: t.spans,
                wall_us: HistSummary::of(&t.wall_us),
                sim_us: HistSummary::of(&t.sim_us),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_records_nothing() {
        let mut timers = PhaseTimers::new();
        timers.record(Phase::Admission, PhaseToken::inert(), SimTime::from_secs(5));
        assert_eq!(timers.get(Phase::Admission).spans(), 0);
        assert!(timers.summaries().is_empty());
    }

    #[test]
    fn live_token_records_both_clocks() {
        let mut timers = PhaseTimers::new();
        let tok = PhaseToken {
            wall: Some(Instant::now()),
            sim_start: SimTime::from_secs(1),
        };
        timers.record(Phase::Maxmin, tok, SimTime::from_secs(3));
        let t = timers.get(Phase::Maxmin);
        assert_eq!(t.spans(), 1);
        assert_eq!(t.sim_us.count(), 1);
        // 2 s of sim time = 2e6 µs.
        assert!((t.sim_us.max() - 2.0e6).abs() < 1.0);
        let sums = timers.summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].phase, "maxmin");
    }

    #[test]
    fn phase_labels_are_stable() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
    }
}
