//! The cafeteria predictor (§6.2.2).
//!
//! "The algorithm for prediction of the number of handoffs
//! `N_handoff(t+1)` at the next time instant is based on a linear model
//! due to the slow time-varying nature of a cafeteria." With the handoff
//! counts `n_{t−2}, n_{t−1}, n_t` of the last three slots and the model
//! `n = a·t + m`, least squares gives
//!
//! ```text
//! a = (n_t − n_{t−2}) / 2
//! m = ((3t − 1)·n_{t−2} + 2·n_{t−1} + (5 − 3t)·n_t) / 6
//! N_handoff(t+1) = a·(t+1) + m
//! ```
//!
//! **Erratum.** The paper prints the intercept as
//! `m = ((5 + 3t)·n_{t−2} + 2·n_{t−1} − (3t + 1)·n_t)/6`, which is *not*
//! the least-squares intercept it claims to apply: on a perfectly linear
//! series 3, 5, 7 it predicts 5 instead of 9 (see the
//! `paper_printed_formula_is_not_least_squares` test). Since the text
//! explicitly derives the fit from "the standard Least-square technique",
//! we implement the correct closed form above, which matches the paper's
//! printed slope and agrees with the textbook fit.
//!
//! The same procedure predicts the number of *arriving* portables when a
//! neighbour is a default cell the cafeteria "should not totally trust".

use std::collections::VecDeque;

use arm_sim::Audited;
use serde::{Deserialize, Serialize};

/// Closed-form least-squares fit of `n = a·t + m` over the last three
/// slots, evaluated at the slot index `t` of the newest sample.
pub fn least_squares_params(n_tm2: f64, n_tm1: f64, n_t: f64, t: f64) -> (f64, f64) {
    let a = (n_t - n_tm2) / 2.0;
    let m = ((3.0 * t - 1.0) * n_tm2 + 2.0 * n_tm1 + (5.0 - 3.0 * t) * n_t) / 6.0;
    (a, m)
}

/// The intercept exactly as printed in §6.2.2 — kept for the erratum
/// test, not used by the predictor.
pub fn paper_printed_intercept(n_tm2: f64, n_tm1: f64, n_t: f64, t: f64) -> f64 {
    ((5.0 + 3.0 * t) * n_tm2 + 2.0 * n_tm1 - (3.0 * t + 1.0) * n_t) / 6.0
}

/// Predict the next slot's handoff count from the last three.
pub fn predict_next(n_tm2: f64, n_tm1: f64, n_t: f64, t: f64) -> f64 {
    let (a, m) = least_squares_params(n_tm2, n_tm1, n_t, t);
    (a * (t + 1.0) + m).max(0.0)
}

/// Sliding three-slot window with the slot index tracked automatically.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CafeteriaPredictor {
    window: VecDeque<f64>,
    /// Slot index of the newest sample.
    t: f64,
}

impl CafeteriaPredictor {
    /// Empty predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the handoff count of the slot that just ended. A count is
    /// a tally, so NaN/infinite/negative observations are sanitised to
    /// zero at the door — otherwise a single bad sample would poison the
    /// window and the short-window `predict` fallback would hand a
    /// negative or NaN reservation straight to the claim sizing.
    pub fn observe(&mut self, count: f64) {
        let count = if count.is_finite() {
            count.max(0.0)
        } else {
            0.0
        };
        if self.window.len() == 3 {
            self.window.pop_front();
        }
        self.window.push_back(count);
        self.t += 1.0;
    }

    /// Predicted handoffs for the next slot; falls back to the latest
    /// observation (one-step memory) until three slots are available,
    /// and to zero before any observation. Never negative or NaN.
    pub fn predict(&self) -> f64 {
        match self.window.len() {
            0 => 0.0,
            1 | 2 => self.window.back().invariant("non-empty").max(0.0),
            _ => predict_next(self.window[0], self.window[1], self.window[2], self.t),
        }
    }

    /// Number of observations so far (capped view: window size).
    pub fn observations(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force least squares over the three points
    /// ((t−2, n0), (t−1, n1), (t, n2)).
    fn ls_reference(n0: f64, n1: f64, n2: f64, t: f64) -> (f64, f64) {
        let xs = [t - 2.0, t - 1.0, t];
        let ys = [n0, n1, n2];
        let xbar = xs.iter().sum::<f64>() / 3.0;
        let ybar = ys.iter().sum::<f64>() / 3.0;
        let sxy: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - xbar) * (y - ybar))
            .sum();
        let sxx: f64 = xs.iter().map(|x| (x - xbar) * (x - xbar)).sum();
        let a = sxy / sxx;
        let m = ybar - a * xbar;
        (a, m)
    }

    #[test]
    fn closed_form_matches_textbook_least_squares() {
        for (n0, n1, n2, t) in [
            (2.0, 3.0, 4.0, 2.0),
            (10.0, 7.0, 9.0, 5.0),
            (0.0, 0.0, 5.0, 17.0),
            (4.0, 4.0, 4.0, 100.0),
        ] {
            let (a, m) = least_squares_params(n0, n1, n2, t);
            let (ar, mr) = ls_reference(n0, n1, n2, t);
            assert!((a - ar).abs() < 1e-9, "slope {a} vs {ar}");
            assert!((m - mr).abs() < 1e-9, "intercept {m} vs {mr}");
        }
    }

    #[test]
    fn linear_ramp_is_extrapolated_exactly() {
        // Counts 3, 5, 7 at slots 4, 5, 6 → next is 9.
        let p = predict_next(3.0, 5.0, 7.0, 6.0);
        assert!((p - 9.0).abs() < 1e-9, "p={p}");
        // Constant series predicts itself.
        assert!((predict_next(4.0, 4.0, 4.0, 9.0) - 4.0).abs() < 1e-9);
        // Falling ramp clamps at zero rather than predicting negative
        // handoffs.
        assert_eq!(predict_next(4.0, 2.0, 0.0, 3.0), 0.0);
    }

    #[test]
    fn sliding_window_behaviour() {
        let mut p = CafeteriaPredictor::new();
        assert_eq!(p.predict(), 0.0);
        p.observe(2.0);
        assert_eq!(p.predict(), 2.0, "one-step memory until warm");
        p.observe(4.0);
        assert_eq!(p.predict(), 4.0);
        p.observe(6.0);
        // Ramp 2, 4, 6 → 8.
        assert!((p.predict() - 8.0).abs() < 1e-9);
        p.observe(8.0);
        // Window slides: 4, 6, 8 → 10.
        assert!((p.predict() - 10.0).abs() < 1e-9);
        assert_eq!(p.observations(), 3);
    }

    #[test]
    fn short_window_fallback_is_latest_observation() {
        // Intended behavior with fewer than three samples, documented:
        // the least-squares fit needs three points, so the predictor
        // degrades gracefully rather than guessing a trend —
        //   0 samples → 0.0 (no information: reserve nothing);
        //   1 sample  → that sample (one-step memory);
        //   2 samples → the *newest* sample, not the mean — a cafeteria
        //     ramps at meal boundaries, so the latest slot is the best
        //     cheap estimate and deliberately ignores the older one.
        let p = CafeteriaPredictor::new();
        assert_eq!(p.observations(), 0);
        assert_eq!(p.predict(), 0.0);

        let mut p = CafeteriaPredictor::new();
        p.observe(5.0);
        assert_eq!(p.observations(), 1);
        assert_eq!(p.predict(), 5.0);

        p.observe(9.0);
        assert_eq!(p.observations(), 2);
        // Newest wins; no averaging, no extrapolation of the 5→9 ramp.
        assert_eq!(p.predict(), 9.0);

        // Two samples in the other direction: still the newest, even
        // though a trend fit would predict lower.
        let mut q = CafeteriaPredictor::new();
        q.observe(9.0);
        q.observe(5.0);
        assert_eq!(q.predict(), 5.0);
    }

    #[test]
    fn paper_printed_formula_is_not_least_squares() {
        // Documenting the erratum: on the linear series 3, 5, 7 at slots
        // 4..6, the printed intercept yields prediction 5 where least
        // squares (and common sense) give 9.
        let a = (7.0 - 3.0) / 2.0;
        let m = paper_printed_intercept(3.0, 5.0, 7.0, 6.0);
        let printed_pred = a * 7.0 + m;
        assert!((printed_pred - 5.0).abs() < 1e-9, "printed={printed_pred}");
        // It does agree on constant series, which is probably why the
        // typo survived review.
        let mc = paper_printed_intercept(4.0, 4.0, 4.0, 9.0);
        assert!((mc - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bad_observations_never_produce_negative_or_nan_predictions() {
        // Regression: with fewer than three samples, `predict` returns
        // the newest observation raw — a negative or NaN sample became a
        // negative or NaN reservation.
        let mut p = CafeteriaPredictor::new();
        p.observe(-3.0);
        assert_eq!(p.predict(), 0.0);
        p.observe(f64::NAN);
        assert_eq!(p.predict(), 0.0);
        p.observe(f64::INFINITY);
        assert_eq!(p.predict(), 0.0);
        // And the warm path stays finite and nonnegative too.
        p.observe(2.0);
        let pred = p.predict();
        assert!(pred.is_finite() && pred >= 0.0, "pred={pred}");
    }

    #[test]
    fn prediction_is_shift_invariant_in_t() {
        // The predicted next value shouldn't depend on the absolute slot
        // index, only on the three counts.
        let p1 = predict_next(3.0, 5.0, 6.0, 10.0);
        let p2 = predict_next(3.0, 5.0, 6.0, 1000.0);
        assert!((p1 - p2).abs() < 1e-6, "{p1} vs {p2}");
    }
}
