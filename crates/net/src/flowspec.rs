//! Traffic envelopes and QoS-bound requests.
//!
//! §5.1: to request a new connection the application specifies lower and
//! upper bandwidth bounds `[b_min, b_max]`, an end-to-end delay bound `d`,
//! an end-to-end delay-jitter bound `σ̄`, and a maximum packet loss
//! probability `p_e`. Traffic is described by a `(σ, ρ)` token-bucket
//! envelope with maximum packet size `L_max` (Table 2's notation).
//!
//! Units throughout the workspace: bandwidth in **kilobits per second**,
//! buffer/burst sizes in **kilobits**, delays in **seconds**, probabilities
//! dimensionless. (Abstract experiments like Figure 6 use "bandwidth
//! units"; nothing in the formulas depends on the unit choice, only on
//! consistency.)

use serde::{Deserialize, Serialize};

/// Token-bucket traffic envelope `(σ, ρ)` with maximum packet size.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Burst size σ (kilobits).
    pub sigma: f64,
    /// Sustained rate ρ (kbps). In the paper's admission test the reserved
    /// rate is at least `b_min ≥ ρ`; we keep ρ explicit for generality.
    pub rho: f64,
    /// Maximum packet size `L_max` (kilobits).
    pub l_max: f64,
}

impl TrafficSpec {
    /// A spec with the given burst and rate, using a 1 kbit (125-byte)
    /// maximum packet — a typical small wireless MTU of the era.
    pub fn new(sigma: f64, rho: f64) -> Self {
        TrafficSpec {
            sigma,
            rho,
            l_max: 1.0,
        }
    }

    /// Sanity: all fields nonnegative, packet fits in the burst.
    pub(crate) fn validate(&self) -> Result<(), SpecError> {
        if !(self.sigma >= 0.0 && self.rho >= 0.0 && self.l_max > 0.0) {
            return Err(SpecError::NonPositive);
        }
        Ok(())
    }
}

/// QoS bounds requested at connection setup (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QosRequest {
    /// Minimum acceptable bandwidth `b_min` (kbps). The network guarantees
    /// this level for the lifetime of the connection (including across
    /// handoffs, via advance reservation).
    pub b_min: f64,
    /// Maximum useful bandwidth `b_max` (kbps). The network never allocates
    /// beyond this; excess capacity between `b_min` and `b_max` is
    /// distributed maxmin-fairly.
    pub b_max: f64,
    /// End-to-end delay bound `d` (seconds).
    pub delay_bound: f64,
    /// End-to-end delay-jitter bound `σ̄` (seconds).
    pub jitter_bound: f64,
    /// Maximum end-to-end packet loss probability `p_e`.
    pub loss_bound: f64,
    /// Traffic envelope.
    pub traffic: TrafficSpec,
}

/// Why a spec failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A field that must be positive (or nonnegative) is not.
    NonPositive,
    /// `b_min > b_max`.
    InvertedBounds,
    /// Loss probability outside `[0, 1]`.
    LossOutOfRange,
    /// A field is NaN or infinite.
    NotFinite,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NonPositive => write!(f, "spec field must be positive"),
            SpecError::InvertedBounds => write!(f, "b_min exceeds b_max"),
            SpecError::LossOutOfRange => write!(f, "loss bound outside [0, 1]"),
            SpecError::NotFinite => write!(f, "spec field is NaN or infinite"),
        }
    }
}

impl std::error::Error for SpecError {}

impl QosRequest {
    /// A request with bandwidth bounds and generous secondary bounds —
    /// the common case in the paper's experiments, which exercise the
    /// bandwidth dimension.
    pub fn bandwidth(b_min: f64, b_max: f64) -> Self {
        QosRequest {
            b_min,
            b_max,
            delay_bound: 10.0,
            jitter_bound: 10.0,
            loss_bound: 1.0,
            traffic: TrafficSpec::new(b_min * 0.1, b_min),
        }
    }

    /// A fixed-rate request (`b_min == b_max`), e.g. the 16 kbps / 64 kbps
    /// audio connections of §7.1.
    pub fn fixed(rate: f64) -> Self {
        Self::bandwidth(rate, rate)
    }

    /// Override the delay bound.
    pub fn with_delay(mut self, d: f64) -> Self {
        self.delay_bound = d;
        self
    }

    /// Override the jitter bound.
    pub fn with_jitter(mut self, j: f64) -> Self {
        self.jitter_bound = j;
        self
    }

    /// Override the loss bound.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_bound = p;
        self
    }

    /// Override the traffic envelope.
    pub fn with_traffic(mut self, t: TrafficSpec) -> Self {
        self.traffic = t;
        self
    }

    /// The adaptable bandwidth range `b_max - b_min` (the paper's "demand"
    /// beyond the guaranteed minimum).
    pub fn adaptable_range(&self) -> f64 {
        self.b_max - self.b_min
    }

    /// Validate all bounds.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.traffic.validate()?;
        // Every comparison below is written so NaN falls into an error
        // branch — except `b_min > b_max`, which is *false* for a NaN
        // `b_max` and would let one through to crash the allocator's
        // `clamp(b_min, b_max)` later. Check finiteness explicitly.
        if !(self.b_max.is_finite() && self.b_min.is_finite()) {
            return Err(SpecError::NotFinite);
        }
        if !(self.b_min > 0.0 && self.delay_bound > 0.0 && self.jitter_bound >= 0.0) {
            return Err(SpecError::NonPositive);
        }
        if self.b_min > self.b_max {
            return Err(SpecError::InvertedBounds);
        }
        if !(0.0..=1.0).contains(&self.loss_bound) {
            return Err(SpecError::LossOutOfRange);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_validation() {
        let q = QosRequest::bandwidth(16.0, 64.0)
            .with_delay(0.1)
            .with_jitter(0.02)
            .with_loss(0.01)
            .with_traffic(TrafficSpec::new(4.0, 16.0));
        assert!(q.validate().is_ok());
        assert_eq!(q.adaptable_range(), 48.0);
    }

    #[test]
    fn fixed_rate_has_no_adaptable_range() {
        let q = QosRequest::fixed(16.0);
        assert_eq!(q.b_min, 16.0);
        assert_eq!(q.b_max, 16.0);
        assert_eq!(q.adaptable_range(), 0.0);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn invalid_specs_rejected() {
        assert_eq!(
            QosRequest::bandwidth(64.0, 16.0).validate(),
            Err(SpecError::InvertedBounds)
        );
        assert_eq!(
            QosRequest::bandwidth(0.0, 16.0).validate(),
            Err(SpecError::NonPositive)
        );
        assert_eq!(
            QosRequest::bandwidth(16.0, 64.0).with_loss(1.5).validate(),
            Err(SpecError::LossOutOfRange)
        );
        assert_eq!(
            QosRequest::bandwidth(16.0, 64.0)
                .with_traffic(TrafficSpec {
                    sigma: -1.0,
                    rho: 1.0,
                    l_max: 1.0
                })
                .validate(),
            Err(SpecError::NonPositive)
        );
    }

    #[test]
    fn non_finite_bounds_rejected() {
        // Regression: `b_min > b_max` is false when b_max is NaN, so a
        // NaN upper bound used to validate cleanly and only blow up in
        // the rate allocator's `clamp` much later.
        assert_eq!(
            QosRequest::bandwidth(16.0, f64::NAN).validate(),
            Err(SpecError::NotFinite)
        );
        assert_eq!(
            QosRequest::bandwidth(16.0, f64::INFINITY).validate(),
            Err(SpecError::NotFinite)
        );
        // (With a valid traffic envelope, so the bounds check is what
        // fires rather than the NaN-poisoned builder-derived envelope.)
        assert_eq!(
            QosRequest::bandwidth(f64::NAN, 16.0)
                .with_traffic(TrafficSpec::new(1.0, 1.0))
                .validate(),
            Err(SpecError::NotFinite)
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(SpecError::InvertedBounds.to_string(), "b_min exceeds b_max");
        assert_eq!(
            SpecError::NotFinite.to_string(),
            "spec field is NaN or infinite"
        );
    }
}
