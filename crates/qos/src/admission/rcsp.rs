//! Buffer demand under rate-controlled static priority (Table 2, RCSP
//! rows, with `b*(·)` rate-jitter regulators per Zhang's survey \[13\]).
//!
//! RCSP is non-work-conserving: a regulator at each hop reshapes the flow,
//! so the buffer demand depends on how long packets may dwell — the local
//! delay budget plus (after the first hop) the upstream hop's budget:
//!
//! * forward pass, hop 1: `σ + L_max + b_max · d_1`,
//! * forward pass, hop l≠1: `σ + L_max + b_max · (d_{l−1} + d_l)`,
//! * reverse pass, hop 1: `σ + L_max + b · d'_1`,
//! * reverse pass, hop l≠1: `σ + b · (d'_{l−1} + d'_l)`.
//!
//! The forward pass uses `b_max` (worst case before the grant is known);
//! the reverse pass uses the granted rate `b` and the relaxed budgets
//! `d'`, reclaiming the over-reservation.

/// Worst-case buffer demand on the forward pass. `d_prev` is the previous
/// hop's delay budget (`None` at the first hop), `d_cur` the local one.
pub(crate) fn buffer_demand(
    sigma: f64,
    l_max: f64,
    b_max: f64,
    d_prev: Option<f64>,
    d_cur: f64,
) -> f64 {
    match d_prev {
        None => sigma + l_max + b_max * d_cur,
        Some(dp) => sigma + l_max + b_max * (dp + d_cur),
    }
}

/// Buffer actually reserved on the reverse pass, from the granted rate
/// and relaxed budgets.
pub(crate) fn buffer_reserved(
    sigma: f64,
    l_max: f64,
    b: f64,
    d_prev: Option<f64>,
    d_cur: f64,
) -> f64 {
    match d_prev {
        None => sigma + l_max + b * d_cur,
        Some(dp) => sigma + b * (dp + d_cur),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_hop_uses_only_local_budget() {
        assert_eq!(buffer_demand(4.0, 1.0, 100.0, None, 0.02), 4.0 + 1.0 + 2.0);
        assert_eq!(buffer_reserved(4.0, 1.0, 50.0, None, 0.02), 4.0 + 1.0 + 1.0);
    }

    #[test]
    fn later_hops_add_upstream_budget() {
        let fwd = buffer_demand(4.0, 1.0, 100.0, Some(0.01), 0.02);
        assert_eq!(fwd, 4.0 + 1.0 + 100.0 * 0.03);
        let rev = buffer_reserved(4.0, 1.0, 50.0, Some(0.01), 0.02);
        assert_eq!(rev, 4.0 + 50.0 * 0.03);
    }

    #[test]
    fn reverse_pass_reclaims_when_rate_below_max() {
        // Granted rate b < b_max ⇒ reverse reservation ≤ forward demand.
        let fwd = buffer_demand(4.0, 1.0, 100.0, Some(0.01), 0.02);
        let rev = buffer_reserved(4.0, 1.0, 60.0, Some(0.01), 0.02);
        assert!(rev < fwd);
    }
}
