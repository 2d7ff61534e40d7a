//! Packetized WFQ (PGPS).
//!
//! WFQ transmits packets, one at a time at the full link rate, in
//! nondecreasing order of their *GPS finish time*; among packets with
//! equal finish times, arrival order breaks the tie. The classic PGPS
//! result (Parekh–Gallager) bounds its lag behind the fluid reference:
//!
//! ```text
//! d_WFQ(p) ≤ d_GPS(p) + L_max / C
//! ```
//!
//! which is exactly the shape of Table 2's per-hop delay row
//! `d_l = L_max/b_min + L_max/C`: the first term is the GPS bound for a
//! packet at the guaranteed rate, the second the packetization penalty.
//! Both inequalities are asserted by this module's tests on greedy and
//! randomised conformant traffic.

use arm_sim::Audited;

use super::{gps, Departure, Packet};

/// Simulate WFQ over a packet sequence. `weights` and `capacity` as in
/// [`gps::finish_times`]. Returns per-packet departures (last bit out).
pub fn simulate(packets: &[Packet], weights: &[f64], capacity: f64) -> Vec<Departure> {
    assert!(capacity > 0.0);
    // The scheduling key: fluid finish times.
    let gps_fin = gps::finish_times(packets, weights, capacity);
    let mut idx: Vec<usize> = (0..packets.len()).collect();
    // Service emulation: at each decision instant, among ARRIVED and
    // unserved packets pick the smallest GPS finish time. (WFQ never
    // preempts and may momentarily idle only when nothing has arrived.)
    idx.sort_by(|a, b| {
        packets[*a]
            .arrival
            .total_cmp(&packets[*b].arrival)
            .then(a.cmp(b))
    });
    let mut departures: Vec<Option<f64>> = vec![None; packets.len()];
    let mut served = vec![false; packets.len()];
    let mut now = 0.0f64;
    let mut remaining = packets.len();
    let mut next_arrival = 0usize;
    // Heap of (gps_finish, seq, packet index) for arrived packets.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Key(f64, usize);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
    while remaining > 0 {
        // Admit arrivals up to `now`.
        while next_arrival < idx.len() && packets[idx[next_arrival]].arrival <= now + 1e-15 {
            let i = idx[next_arrival];
            heap.push(Reverse(Key(gps_fin[i].departure, i)));
            next_arrival += 1;
        }
        match heap.pop() {
            Some(Reverse(Key(_, i))) => {
                debug_assert!(!served[i]);
                served[i] = true;
                now += packets[i].size / capacity;
                departures[i] = Some(now);
                remaining -= 1;
            }
            None => {
                // Idle until the next arrival.
                now = packets[idx[next_arrival]].arrival;
            }
        }
    }
    packets
        .iter()
        .enumerate()
        .map(|(i, p)| Departure {
            packet: *p,
            departure: departures[i].invariant("all served"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::traffic::{greedy, random_conformant};

    fn pkt(flow: usize, size: f64, arrival: f64) -> Packet {
        Packet {
            flow,
            size,
            arrival,
        }
    }

    #[test]
    fn serves_in_gps_finish_order() {
        // Flow 0 heavy weight: its packet finishes first under GPS, so
        // WFQ sends it first even though both arrived together.
        let pkts = vec![pkt(1, 1.0, 0.0), pkt(0, 1.0, 0.0)];
        let d = simulate(&pkts, &[3.0, 1.0], 10.0);
        assert!(d[1].departure < d[0].departure);
        // Non-preemptive full-rate service: 0.1 then 0.2.
        assert!((d[1].departure - 0.1).abs() < 1e-9);
        assert!((d[0].departure - 0.2).abs() < 1e-9);
    }

    #[test]
    fn pgps_lag_bound_holds_on_greedy_traffic() {
        // Three flows with different weights, all greedy: every packet's
        // WFQ departure is within L_max/C of its GPS departure.
        let capacity = 100.0;
        let l_max = 1.0;
        let mut pkts = Vec::new();
        pkts.extend(greedy(0, 4.0, 50.0, l_max, 0.0, 1.0));
        pkts.extend(greedy(1, 2.0, 30.0, l_max, 0.0, 1.0));
        pkts.extend(greedy(2, 1.0, 20.0, l_max, 0.0, 1.0));
        let weights = [50.0, 30.0, 20.0];
        let g = crate::schedulers::gps::finish_times(&pkts, &weights, capacity);
        let w = simulate(&pkts, &weights, capacity);
        for (gd, wd) in g.iter().zip(&w) {
            assert!(
                wd.departure <= gd.departure + l_max / capacity + 1e-9,
                "PGPS bound violated: {} vs {}",
                wd.departure,
                gd.departure
            );
        }
    }

    #[test]
    fn table2_per_hop_delay_bound_holds() {
        // Table 2, WFQ delay row: a flow with guaranteed rate b and a
        // (σ, ρ ≤ b) envelope sees per-packet delay ≤ (σ + L)/b + L/C.
        let capacity = 160.0;
        let l_max = 1.0;
        let specs = [(8.0, 64.0), (4.0, 64.0), (2.0, 32.0)];
        let mut pkts = Vec::new();
        for (f, (sigma, rho)) in specs.iter().enumerate() {
            pkts.extend(greedy(f, *sigma, *rho, l_max, 0.0, 2.0));
        }
        let weights: Vec<f64> = specs.iter().map(|(_, rho)| *rho).collect();
        let d = simulate(&pkts, &weights, capacity);
        for (f, (sigma, rho)) in specs.iter().enumerate() {
            let bound = (sigma + l_max) / rho + l_max / capacity + 1e-9;
            let max = d
                .iter()
                .filter(|x| x.packet.flow == f)
                .map(super::super::Departure::delay)
                .fold(0.0, f64::max);
            assert!(
                max <= bound,
                "flow {f}: observed {max} > Table 2 bound {bound}"
            );
        }
    }

    #[test]
    fn bound_holds_on_randomised_conformant_traffic() {
        let capacity = 160.0;
        let l_max = 1.0;
        let mut rng = arm_sim::SimRng::new(17);
        let specs = [(8.0, 64.0), (4.0, 64.0)];
        let mut pkts = Vec::new();
        for (f, (sigma, rho)) in specs.iter().enumerate() {
            pkts.extend(random_conformant(
                f, *sigma, *rho, l_max, 0.9, 5.0, &mut rng,
            ));
        }
        let weights: Vec<f64> = specs.iter().map(|(_, rho)| *rho).collect();
        let d = simulate(&pkts, &weights, capacity);
        for (f, (sigma, rho)) in specs.iter().enumerate() {
            let bound = (sigma + l_max) / rho + l_max / capacity + 1e-9;
            for x in d.iter().filter(|x| x.packet.flow == f) {
                assert!(x.delay() <= bound, "flow {f} delay {}", x.delay());
            }
        }
    }

    #[test]
    fn work_conserving() {
        // WFQ never idles while packets wait: total busy time equals
        // total bits / capacity within a busy period.
        let pkts = vec![pkt(0, 2.0, 0.0), pkt(1, 3.0, 0.0), pkt(0, 1.0, 0.1)];
        let d = simulate(&pkts, &[1.0, 1.0], 10.0);
        let last = d.iter().map(|x| x.departure).fold(0.0, f64::max);
        assert!((last - 0.6).abs() < 1e-9);
    }
}
