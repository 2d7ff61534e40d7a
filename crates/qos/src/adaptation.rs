//! Adaptation triggers and policy (§5.3).
//!
//! Network-initiated adaptation runs **only for connections from static
//! portables** ("for a frequently handing-off mobile portable, the
//! control and processing overhead might completely compromise the
//! performance improvements"). Adaptation is initiated for link `l` when
//! (eqn 2):
//!
//! ```text
//! b'_av,l(t) < b'_av,l(t⁻)                                  (shrinkage)
//!    OR
//! b'_av,l(t) ≥ Σ_i b'_(av,l),i(t⁻) + δ  AND  M(l) ≠ ∅       (growth)
//! ```
//!
//! where δ throttles adaptation frequency. If `b'_av,l < 0`, "some
//! connections are notified to do re-negotiation".
//!
//! The module also implements the `B_dyn` pool policy of §5.3: each cell
//! sets aside a dynamically adjustable fraction of resources (5%–20%) for
//! unforeseen events, and the pool "has to be adapted to accommodate at
//! least a connection (with the maximum allocated bandwidth) from a
//! static portable that is residing in its neighboring cells".

use arm_net::ids::{ConnId, LinkId};
use arm_net::Network;
use arm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What an observed excess-bandwidth change at a link calls for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptDecision {
    /// No action: the change is below the δ threshold (or there is no
    /// connection that could benefit).
    None,
    /// Shrinkage: allocations above the new fair share must come down.
    Shrink,
    /// Growth of at least δ with a non-empty bottleneck set: upgrade.
    Grow,
    /// Excess went negative: floors no longer fit — some connections must
    /// re-negotiate their bounds.
    Renegotiate,
}

/// The eqn-2 trigger. `prev_excess` is `b'_av,l(t⁻)`, `new_excess` is
/// `b'_av,l(t)`, `prev_shares_sum` is `Σ_i b'_(av,l),i(t⁻)` (the excess
/// currently handed to connections at this link), `bottleneck_nonempty`
/// is `M(l) ≠ ∅`.
pub fn decide(
    prev_excess: f64,
    new_excess: f64,
    prev_shares_sum: f64,
    bottleneck_nonempty: bool,
    delta: f64,
) -> AdaptDecision {
    if new_excess < 0.0 {
        return AdaptDecision::Renegotiate;
    }
    if new_excess < prev_excess {
        return AdaptDecision::Shrink;
    }
    if new_excess >= prev_shares_sum + delta && bottleneck_nonempty {
        return AdaptDecision::Grow;
    }
    AdaptDecision::None
}

/// Static/mobile classification (§3.4.2): a portable is *static* once it
/// has stayed in the same cell for `T_th`.
#[derive(Clone, Copy, Debug)]
pub struct StaticMobileTest {
    /// The dwell threshold `T_th`.
    pub t_th: SimDuration,
}

impl StaticMobileTest {
    /// A test with the given threshold.
    pub fn new(t_th: SimDuration) -> Self {
        StaticMobileTest { t_th }
    }

    /// Classify from the time the portable entered its current cell.
    pub fn is_static(&self, entered_cell_at: SimTime, now: SimTime) -> bool {
        now.saturating_since(entered_cell_at) >= self.t_th
    }
}

/// Policy for the `B_dyn` pool of a cell's wireless link.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DynPoolPolicy {
    /// Lower bound as a fraction of cell capacity (paper: 5%).
    pub min_fraction: f64,
    /// Upper bound as a fraction of cell capacity (paper: 20%).
    pub max_fraction: f64,
}

impl Default for DynPoolPolicy {
    fn default() -> Self {
        DynPoolPolicy {
            min_fraction: 0.05,
            max_fraction: 0.20,
        }
    }
}

impl DynPoolPolicy {
    /// The pool a cell should hold given the largest allocated bandwidth
    /// among connections of *static* portables in its neighbouring cells
    /// (§5.3: the pool must accommodate at least one such connection).
    pub fn target_pool(&self, cell_capacity: f64, max_neighbor_static_alloc: f64) -> f64 {
        let lo = self.min_fraction * cell_capacity;
        let hi = self.max_fraction * cell_capacity;
        max_neighbor_static_alloc.clamp(lo, hi)
    }
}

/// Connections at `link` that would be told to re-negotiate if the excess
/// is negative: those whose floors no longer fit, picked youngest-first
/// (the paper drops "the connection with a later arrival time" on
/// conflicts, §6.3's model).
pub fn renegotiation_victims(net: &Network, link: LinkId, deficit: f64) -> Vec<ConnId> {
    let mut conns: Vec<(SimTime, ConnId, f64)> = net
        .conns_on_link(link)
        .map(|c| (c.started, c.id, c.qos.b_min))
        .collect();
    // Youngest (latest arrival) first.
    conns.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)));
    let mut out = Vec::new();
    let mut recovered = 0.0;
    for (_, id, b_min) in conns {
        if recovered >= deficit {
            break;
        }
        recovered += b_min;
        out.push(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eqn2_decisions() {
        // Shrinkage always triggers.
        assert_eq!(decide(10.0, 8.0, 6.0, false, 1.0), AdaptDecision::Shrink);
        // Growth needs δ *and* a non-empty bottleneck set.
        assert_eq!(decide(10.0, 12.0, 10.0, true, 1.0), AdaptDecision::Grow);
        assert_eq!(decide(10.0, 12.0, 10.0, false, 1.0), AdaptDecision::None);
        assert_eq!(decide(10.0, 10.5, 10.0, true, 1.0), AdaptDecision::None);
        // Negative excess demands renegotiation.
        assert_eq!(
            decide(10.0, -2.0, 6.0, true, 1.0),
            AdaptDecision::Renegotiate
        );
        // Equal excess, no growth beyond shares: nothing to do.
        assert_eq!(decide(10.0, 10.0, 10.0, true, 1.0), AdaptDecision::None);
    }

    #[test]
    fn delta_throttles_upgrades() {
        // A 0.5 gain with δ=1.0 is ignored; with δ=0.4 it triggers.
        assert_eq!(decide(5.0, 5.5, 5.0, true, 1.0), AdaptDecision::None);
        assert_eq!(decide(5.0, 5.5, 5.0, true, 0.4), AdaptDecision::Grow);
    }

    #[test]
    fn static_mobile_threshold() {
        let t = StaticMobileTest::new(SimDuration::from_mins(5));
        let entered = SimTime::from_mins(10);
        assert!(!t.is_static(entered, SimTime::from_mins(12)));
        assert!(t.is_static(entered, SimTime::from_mins(15)));
        assert!(t.is_static(entered, SimTime::from_mins(30)));
        // Clock slightly before entry (shouldn't happen, but safe).
        assert!(!t.is_static(entered, SimTime::from_mins(9)));
    }

    #[test]
    fn dyn_pool_clamped_to_policy_band() {
        let p = DynPoolPolicy::default();
        // No static neighbours: floor at 5%.
        assert_eq!(p.target_pool(1600.0, 0.0), 80.0);
        // A 200 kbps static connection nearby: pool covers it.
        assert_eq!(p.target_pool(1600.0, 200.0), 200.0);
        // But never above 20%.
        assert_eq!(p.target_pool(1600.0, 500.0), 320.0);
    }
}
