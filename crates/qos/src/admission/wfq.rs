//! Buffer demand under weighted fair queueing (Table 2, WFQ rows).
//!
//! WFQ is work-conserving: a burst admitted at the edge can arrive at hop
//! `l` having accumulated one maximum packet of distortion per upstream
//! hop, so the buffer demand grows linearly with the hop index:
//! `σ_j + l·L_max`. The demand does not depend on the allocated rate, so
//! the forward and reverse passes reserve the same amount.

/// Buffer needed at hop `l` (1-indexed): `σ + l·L_max` (kilobits).
pub(crate) fn buffer_demand(sigma: f64, l_max: f64, hop: usize) -> f64 {
    debug_assert!(hop >= 1);
    sigma + hop as f64 * l_max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_linearly_with_hop_index() {
        let b1 = buffer_demand(10.0, 1.0, 1);
        let b2 = buffer_demand(10.0, 1.0, 2);
        let b5 = buffer_demand(10.0, 1.0, 5);
        assert_eq!(b1, 11.0);
        assert_eq!(b2 - b1, 1.0);
        assert_eq!(b5, 15.0);
    }

    #[test]
    fn zero_burst_still_needs_packet_buffers() {
        assert_eq!(buffer_demand(0.0, 2.0, 3), 6.0);
    }
}
