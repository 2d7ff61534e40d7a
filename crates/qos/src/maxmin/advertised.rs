//! The advertised-rate computation `μ_l` (§5.3.1).
//!
//! A switch maintains, per link, the last stamped rate seen for each
//! ongoing connection (its *recorded rate*). Connections whose recorded
//! rate is at or below the advertised rate are *restricted* (set `R`) —
//! they are bottlenecked elsewhere and cannot use a fair share here.
//! Given excess capacity `b'_av,l`, total connections `N_l`, restricted
//! consumption `b'_R` and count `N_R`:
//!
//! ```text
//!        ⎧ b'_av,l                                if N_l = 0
//! μ_l =  ⎨ b'_av,l − b'_R + max_{i∈R} b'_R,i      if N_l = N_R
//!        ⎩ (b'_av,l − b'_R) / (N_l − N_R)         otherwise
//! ```
//!
//! After a first calculation, "some connections that were previously
//! restricted … can become unrestricted with respect to the new
//! advertised rate. In this case, these connections are re-marked as
//! unrestricted and the advertised rate is re-calculated once more. It can
//! be shown that the second re-calculation is sufficient."

/// Small tolerance for the ≤ comparisons over float rates.
const EPS: f64 = 1e-9;

/// Compute `μ_l` for a link with excess capacity `excess` and the given
/// recorded (excess) rates of its ongoing connections.
///
/// The restricted set is derived from the rates themselves via the
/// paper's fixed-point rule, using at most two recalculations.
pub fn advertised_rate(excess: f64, recorded: &[f64]) -> f64 {
    advertised_rate_iter(excess, recorded.len(), || recorded.iter().copied())
}

/// Allocation-free form of [`advertised_rate`]: `recorded` yields the
/// connections' recorded rates afresh on each recalculation (the
/// restricted set is classified twice) and `n` is how many it yields.
/// The admission round trip quotes every hop through this form so a
/// steady-state admission builds no per-hop rate vector. Bit-identical
/// to the slice form: the streaming sum/max fold in yield order, exactly
/// as the collected `Vec` did.
pub(crate) fn advertised_rate_iter<I, F>(excess: f64, n: usize, recorded: F) -> f64
where
    I: Iterator<Item = f64>,
    F: Fn() -> I,
{
    if n == 0 {
        return excess.max(0.0);
    }
    let excess = excess.max(0.0);
    // First pass: everyone unrestricted.
    let mut mu = excess / n as f64;
    // Two recalculations, per the paper's sufficiency argument.
    for _ in 0..2 {
        mu = recalc(excess, n, &recorded, mu);
    }
    mu.max(0.0)
}

/// One recalculation: classify restricted connections against the current
/// `mu`, then apply the three-case formula.
fn recalc<I, F>(excess: f64, n: usize, recorded: &F, mu: f64) -> f64
where
    I: Iterator<Item = f64>,
    F: Fn() -> I,
{
    let mut n_r = 0usize;
    let mut b_r = 0.0;
    let mut max_r = f64::NEG_INFINITY;
    for r in recorded().filter(|r| *r <= mu + EPS) {
        n_r += 1;
        b_r += r;
        max_r = max_r.max(r);
    }
    if n_r == 0 {
        excess / n as f64
    } else if n_r == n {
        excess - b_r + max_r
    } else {
        (excess - b_r) / (n - n_r) as f64
    }
}

/// Is connection `i` restricted at a link quoting `mu`?
#[cfg(test)]
pub(crate) fn is_restricted(recorded_rate: f64, mu: f64) -> bool {
    recorded_rate <= mu + EPS
}

/// The rate a link quotes to one *subject* connection: the fair share
/// computed "under the assumption that this switch is a bottleneck for
/// this connection" (§5.3.1) — i.e. the subject is always counted as
/// unrestricted, whatever its recorded rate, and only the *other*
/// connections' recorded rates may classify as restricted consumption.
///
/// `others` are the recorded rates of every other connection on the link.
pub fn advertised_rate_for(excess: f64, others: &[f64]) -> f64 {
    advertised_rate_for_iter(excess, others.len(), || others.iter().copied())
}

/// Allocation-free form of [`advertised_rate_for`]: `others` yields the
/// other connections' recorded rates afresh on each call (the fixed-point
/// iteration classifies them several times) and `n_others` is how many it
/// yields. Hot packet-processing paths use this to avoid building a rate
/// vector per packet.
pub fn advertised_rate_for_iter<I, F>(excess: f64, n_others: usize, others: F) -> f64
where
    I: Iterator<Item = f64>,
    F: Fn() -> I,
{
    let excess = excess.max(0.0);
    let n = n_others + 1; // the subject is always unrestricted
    let mut mu = excess / n as f64;
    // Iterate the classification to its fixed point; with the subject
    // pinned unrestricted the denominator never vanishes, and each round
    // can only move connections between the two classes, so
    // `n_others + 1` rounds certainly suffice.
    for _ in 0..=n_others + 1 {
        let mut b_r = 0.0;
        let mut n_r = 0usize;
        for r in others().filter(|r| *r <= mu + EPS) {
            b_r += r;
            n_r += 1;
        }
        let next = (excess - b_r).max(0.0) / (n - n_r) as f64;
        if (next - mu).abs() <= EPS {
            mu = next;
            break;
        }
        mu = next;
    }
    mu.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_link_advertises_full_excess() {
        assert_eq!(advertised_rate(42.0, &[]), 42.0);
        assert_eq!(advertised_rate(-5.0, &[]), 0.0);
    }

    #[test]
    fn symmetric_connections_split_evenly() {
        // Everyone recorded at the fair share → all restricted →
        // N_l = N_R case: μ = excess − b_R + max = 30 − 30 + 10 = 10.
        let mu = advertised_rate(30.0, &[10.0, 10.0, 10.0]);
        assert!((mu - 10.0).abs() < 1e-9, "mu={mu}");
    }

    #[test]
    fn elsewhere_bottlenecked_connection_frees_capacity() {
        // Conn 0 is stuck at 2 (bottlenecked on another link); the other
        // two share the rest: μ = (30 − 2)/2 = 14.
        let mu = advertised_rate(30.0, &[2.0, 14.0, 14.0]);
        assert!((mu - 14.0).abs() < 1e-9, "mu={mu}");
    }

    #[test]
    fn two_pass_reclassification_settles() {
        // First pass μ0 = 30/3 = 10 classifies {2, 9} restricted →
        // μ1 = (30 − 11)/1 = 19. Both 2 and 9 stay ≤ 19, so the second
        // recalculation confirms the fixed point: the one unrestricted
        // connection may take 19.
        let mu = advertised_rate(30.0, &[2.0, 9.0, 25.0]);
        assert!((mu - 19.0).abs() < 1e-9, "mu={mu}");
    }

    #[test]
    fn recalculation_unrestricts_when_mu_rises_past_recorded() {
        // μ0 = 40/2 = 20 classifies {12} restricted → μ1 = (40−12)/1 = 28;
        // 12 ≤ 28 keeps it restricted; stable at 28.
        let mu = advertised_rate(40.0, &[12.0, 35.0]);
        assert!((mu - 28.0).abs() < 1e-9, "mu={mu}");
        // Symmetric high rates: all restricted at μ0 = 20 →
        // N = N_R case: μ = 40 − 40 + 20 = 20.
        let mu = advertised_rate(40.0, &[20.0, 20.0]);
        assert!((mu - 20.0).abs() < 1e-9, "mu={mu}");
    }

    #[test]
    fn fixed_point_property() {
        // μ is a fixed point: recalculating with the returned μ keeps it.
        for recorded in [
            vec![1.0, 2.0, 3.0],
            vec![5.0, 5.0, 5.0],
            vec![0.0, 0.0, 40.0],
            vec![7.0],
        ] {
            let mu = advertised_rate(20.0, &recorded);
            let again = recalc(20.0, recorded.len(), &|| recorded.iter().copied(), mu);
            assert!(
                (mu - again.max(0.0)).abs() < 1e-9,
                "not a fixed point: {mu} vs {again} for {recorded:?}"
            );
        }
    }

    #[test]
    fn negative_excess_clamps_to_zero() {
        assert_eq!(advertised_rate(-10.0, &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn rate_for_subject_on_empty_link() {
        assert_eq!(advertised_rate_for(40.0, &[]), 40.0);
        assert_eq!(advertised_rate_for(-3.0, &[]), 0.0);
    }

    #[test]
    fn rate_for_subject_with_restricted_peer() {
        // Peer pinned at 2 elsewhere: subject may take 10 − 2 = 8.
        let mu = advertised_rate_for(10.0, &[2.0]);
        assert!((mu - 8.0).abs() < 1e-9, "mu={mu}");
        // Peer consuming the even split: both unrestricted-ish → 5.
        let mu = advertised_rate_for(10.0, &[5.0]);
        assert!((mu - 5.0).abs() < 1e-9, "mu={mu}");
        // Greedy peer recorded above the fair share: treated as
        // unrestricted, each gets the even split.
        let mu = advertised_rate_for(10.0, &[8.0]);
        assert!((mu - 5.0).abs() < 1e-9, "mu={mu}");
    }

    #[test]
    fn rate_for_mixed_peers() {
        // Excess 30, peers {2 restricted, 25 greedy}: subject shares
        // (30 − 2) with the greedy peer → 14.
        let mu = advertised_rate_for(30.0, &[2.0, 25.0]);
        assert!((mu - 14.0).abs() < 1e-9, "mu={mu}");
    }

    #[test]
    fn restriction_predicate() {
        assert!(is_restricted(5.0, 5.0));
        assert!(is_restricted(4.0, 5.0));
        assert!(!is_restricted(6.0, 5.0));
    }
}
