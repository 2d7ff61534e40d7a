//! Run metrics: the quantities the paper reports.

use arm_obs::MetricsSummary;
use arm_sim::stats::Counter;
use serde::{Deserialize, Serialize};

/// Counters collected over one simulation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// New-connection requests offered.
    pub requests: Counter,
    /// New-connection requests rejected (`P_b` numerator).
    pub blocked: Counter,
    /// Connections that completed normally.
    pub(crate) completed: Counter,
    /// Handoff attempts (one per live connection per cell change).
    pub handoff_attempts: Counter,
    /// Handoffs that found resources (possibly via a claim or pool).
    pub handoff_successes: Counter,
    /// Connections dropped mid-life because a handoff failed (`P_d`
    /// numerator).
    pub dropped: Counter,
    /// Handoffs satisfied by consuming an advance claim or pool rather
    /// than free capacity.
    pub claims_consumed: Counter,
}

impl Metrics {
    /// New-connection blocking probability `P_b`.
    pub fn p_b(&self) -> f64 {
        self.blocked.ratio_of(&self.requests)
    }

    /// Handoff dropping probability `P_d` — the fraction of handoff
    /// attempts that killed their connection.
    pub fn p_d(&self) -> f64 {
        self.dropped.ratio_of(&self.handoff_attempts)
    }

    /// These metrics as the run-report summary section.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            requests: self.requests.get(),
            blocked: self.blocked.get(),
            completed: self.completed.get(),
            handoff_attempts: self.handoff_attempts.get(),
            handoff_successes: self.handoff_successes.get(),
            dropped: self.dropped.get(),
            claims_consumed: self.claims_consumed.get(),
            p_b: self.p_b(),
            p_d: self.p_d(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities() {
        let mut m = Metrics::default();
        m.requests.add(10);
        m.blocked.add(2);
        m.handoff_attempts.add(50);
        m.dropped.add(5);
        assert!((m.p_b() - 0.2).abs() < 1e-12);
        assert!((m.p_d() - 0.1).abs() < 1e-12);
        // Empty metrics report zero, not NaN.
        let empty = Metrics::default();
        assert_eq!(empty.p_b(), 0.0);
        assert_eq!(empty.p_d(), 0.0);
    }

    #[test]
    fn summary_mirrors_counters() {
        let mut m = Metrics::default();
        m.requests.add(10);
        m.blocked.add(2);
        m.completed.add(7);
        m.handoff_attempts.add(50);
        m.handoff_successes.add(45);
        m.dropped.add(5);
        m.claims_consumed.add(3);
        let s = m.summary();
        assert_eq!(s.requests, 10);
        assert_eq!(s.blocked, 2);
        assert_eq!(s.completed, 7);
        assert_eq!(s.handoff_attempts, 50);
        assert_eq!(s.handoff_successes, 45);
        assert_eq!(s.dropped, 5);
        assert_eq!(s.claims_consumed, 3);
        assert!((s.p_b - m.p_b()).abs() < 1e-15);
        assert!((s.p_d - m.p_d()).abs() < 1e-15);
    }
}
