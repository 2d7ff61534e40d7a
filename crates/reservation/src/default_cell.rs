//! The default-lounge predictor (§6.2.3).
//!
//! "We adopt a one-step-memory policy for the prediction of the number of
//! handoffs … the number of handoffs at time t+1 is simply the number of
//! handoffs at current time: `N_handoff(t+1) = N_handoff(t)`."
//!
//! When a default cell's neighbour is itself a default cell — a poor
//! predictor it "should not totally trust" — the cell additionally runs
//! the probabilistic reservation algorithm
//! ([`crate::probabilistic`]) for its own inbound capacity.

use serde::{Deserialize, Serialize};

/// One-step-memory predictor.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct OneStepMemory {
    last: f64,
    seen_any: bool,
}

impl OneStepMemory {
    /// Fresh predictor (predicts zero until the first observation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the handoff count of the slot that just ended. Counts are
    /// tallies: NaN/infinite/negative observations sanitise to zero so
    /// the echoed prediction can never size a negative reservation.
    pub fn observe(&mut self, count: f64) {
        self.last = if count.is_finite() {
            count.max(0.0)
        } else {
            0.0
        };
        self.seen_any = true;
    }

    /// `N_handoff(t+1) = N_handoff(t)`.
    pub fn predict(&self) -> f64 {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_the_last_observation() {
        let mut p = OneStepMemory::new();
        assert_eq!(p.predict(), 0.0);
        assert!(!p.seen_any);
        p.observe(7.0);
        assert_eq!(p.predict(), 7.0);
        p.observe(3.0);
        assert_eq!(p.predict(), 3.0);
        assert!(p.seen_any);
    }

    #[test]
    fn bad_observations_are_sanitised() {
        // Regression: the echo predictor used to repeat a negative or
        // NaN sample verbatim as the next reservation size.
        let mut p = OneStepMemory::new();
        p.observe(-2.0);
        assert_eq!(p.predict(), 0.0);
        p.observe(f64::NAN);
        assert_eq!(p.predict(), 0.0);
        p.observe(f64::NEG_INFINITY);
        assert_eq!(p.predict(), 0.0);
        assert!(p.seen_any);
    }
}
