//! The fluid Generalized Processor Sharing reference.
//!
//! GPS serves every backlogged flow simultaneously at a rate proportional
//! to its weight: flow `i` with weight `φ_i` receives
//! `C · φ_i / Σ_{j ∈ B(t)} φ_j` whenever it is backlogged. Packetized
//! WFQ ([`super::wfq`]) transmits packets in the order they would
//! *finish* under GPS; the fluid finish times computed here are therefore
//! both the scheduling key and the delay reference for the
//! `d_WFQ ≤ d_GPS + L_max/C` bound.
//!
//! The simulation is event-driven over arrival instants and backlog
//! depletion moments; with the full arrival sequence known, the finish
//! times are exact (no discretisation).

use arm_sim::Audited;

use super::{Departure, Packet};

/// Compute GPS (fluid) finish times for a packet sequence.
///
/// `weights[f]` is flow `f`'s weight (any positive scale; only ratios
/// matter), `capacity` the link speed in kilobits per second. `packets`
/// need not be sorted; ties are served in input order within a flow.
pub fn finish_times(packets: &[Packet], weights: &[f64], capacity: f64) -> Vec<Departure> {
    assert!(capacity > 0.0);
    assert!(weights.iter().all(|w| *w > 0.0));
    let flows = weights.len();
    // Per-flow packet FIFO with cumulative bit boundaries.
    let mut order: Vec<usize> = (0..packets.len()).collect();
    order.sort_by(|a, b| {
        packets[*a]
            .arrival
            .total_cmp(&packets[*b].arrival)
            .then(a.cmp(b))
    });

    // State: for each flow, bits of backlog and the queue of (packet
    // index, bits remaining to finish that packet *within the backlog*).
    let mut backlog = vec![0.0f64; flows];
    let mut queues: Vec<std::collections::VecDeque<(usize, f64)>> = vec![Default::default(); flows];
    let mut out: Vec<Option<f64>> = vec![None; packets.len()];

    let mut now = order.first().map_or(0.0, |i| packets[*i].arrival);
    let mut next_arrival = 0usize; // index into `order`

    loop {
        // Admit all arrivals at `now`.
        while next_arrival < order.len() && packets[order[next_arrival]].arrival <= now + 1e-15 {
            let idx = order[next_arrival];
            let p = packets[idx];
            backlog[p.flow] += p.size;
            queues[p.flow].push_back((idx, p.size));
            next_arrival += 1;
        }
        let active_weight: f64 = (0..flows)
            .filter(|f| backlog[*f] > 1e-12)
            .map(|f| weights[f])
            .sum();
        if active_weight <= 0.0 {
            // Idle: jump to the next arrival or finish.
            if next_arrival >= order.len() {
                break;
            }
            now = packets[order[next_arrival]].arrival;
            continue;
        }
        // Time until the earliest backlog depletes (head packet of some
        // flow finishes) at current rates.
        let mut dt_deplete = f64::INFINITY;
        for f in 0..flows {
            if backlog[f] <= 1e-12 {
                continue;
            }
            let rate = capacity * weights[f] / active_weight;
            let head_remaining = queues[f].front().invariant("backlogged flow has a head").1;
            let dt = head_remaining / rate;
            if dt < dt_deplete {
                dt_deplete = dt;
            }
        }
        // Time until the next arrival changes the active set.
        let dt_arrival = if next_arrival < order.len() {
            packets[order[next_arrival]].arrival - now
        } else {
            f64::INFINITY
        };
        let dt = dt_deplete.min(dt_arrival).max(0.0);
        // Advance service.
        for f in 0..flows {
            if backlog[f] <= 1e-12 {
                continue;
            }
            let mut served = capacity * weights[f] / active_weight * dt;
            backlog[f] = (backlog[f] - served).max(0.0);
            while served > 0.0 {
                match queues[f].front_mut() {
                    Some((idx, rem)) => {
                        if *rem <= served + 1e-12 {
                            served -= *rem;
                            out[*idx] = Some(now + dt);
                            queues[f].pop_front();
                        } else {
                            *rem -= served;
                            served = 0.0;
                        }
                    }
                    None => break,
                }
            }
        }
        now += dt;
        if next_arrival >= order.len() && backlog.iter().all(|b| *b <= 1e-12) {
            break;
        }
    }

    packets
        .iter()
        .enumerate()
        .map(|(i, p)| Departure {
            packet: *p,
            departure: out[i].invariant("every packet finishes"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: usize, size: f64, arrival: f64) -> Packet {
        Packet {
            flow,
            size,
            arrival,
        }
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        // 3 packets of 1 kb at a 10 kbps link: finish at 0.1, 0.2, 0.3.
        let pkts = vec![pkt(0, 1.0, 0.0), pkt(0, 1.0, 0.0), pkt(0, 1.0, 0.0)];
        let d = finish_times(&pkts, &[1.0], 10.0);
        let times: Vec<f64> = d.iter().map(|x| x.departure).collect();
        assert!((times[0] - 0.1).abs() < 1e-9);
        assert!((times[1] - 0.2).abs() < 1e-9);
        assert!((times[2] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_share_equally() {
        // Two flows, one packet each, same arrival: both finish at 0.2
        // (each served at 5 kbps).
        let pkts = vec![pkt(0, 1.0, 0.0), pkt(1, 1.0, 0.0)];
        let d = finish_times(&pkts, &[1.0, 1.0], 10.0);
        assert!((d[0].departure - 0.2).abs() < 1e-9);
        assert!((d[1].departure - 0.2).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_the_split() {
        // φ = 3:1 → flow 0's packet is served at 7.5 kbps while both are
        // backlogged: finishes at 1/7.5 ≈ 0.1333; flow 1's packet then
        // gets the full link for its remaining 1 − 0.1333·2.5 = 0.6667 kb:
        // 0.1333 + 0.6667/10 = 0.2.
        let pkts = vec![pkt(0, 1.0, 0.0), pkt(1, 1.0, 0.0)];
        let d = finish_times(&pkts, &[3.0, 1.0], 10.0);
        assert!(
            (d[0].departure - 1.0 / 7.5).abs() < 1e-9,
            "{}",
            d[0].departure
        );
        assert!((d[1].departure - 0.2).abs() < 1e-9, "{}", d[1].departure);
    }

    #[test]
    fn work_conservation() {
        // Busy period: total service equals capacity × busy time.
        let pkts = vec![pkt(0, 2.0, 0.0), pkt(1, 3.0, 0.1), pkt(0, 1.0, 0.2)];
        let d = finish_times(&pkts, &[1.0, 2.0], 10.0);
        let last = d
            .iter()
            .map(|x| x.departure)
            .fold(f64::NEG_INFINITY, f64::max);
        // 6 kb through a 10 kbps link starting at t = 0 with no idling.
        assert!((last - 0.6).abs() < 1e-9, "last={last}");
    }

    #[test]
    fn idle_gap_resets_the_busy_period() {
        let pkts = vec![pkt(0, 1.0, 0.0), pkt(0, 1.0, 5.0)];
        let d = finish_times(&pkts, &[1.0], 10.0);
        assert!((d[0].departure - 0.1).abs() < 1e-9);
        assert!((d[1].departure - 5.1).abs() < 1e-9);
    }

    #[test]
    fn guaranteed_rate_bound_holds() {
        // A (σ=4, ρ=50) greedy flow with weight giving it 50 kbps of a
        // 100 kbps link, against a greedy competitor: every packet
        // finishes within (σ + L)/b of its arrival (GPS bound).
        use crate::schedulers::traffic::greedy;
        let mut pkts = greedy(0, 4.0, 50.0, 1.0, 0.0, 1.0);
        pkts.extend(greedy(1, 4.0, 50.0, 1.0, 0.0, 1.0));
        let d = finish_times(&pkts, &[1.0, 1.0], 100.0);
        let bound = (4.0 + 1.0) / 50.0 + 1e-9;
        for dep in d.iter().filter(|x| x.packet.flow == 0) {
            assert!(
                dep.delay() <= bound,
                "delay {} exceeds GPS bound {bound}",
                dep.delay()
            );
        }
    }
}
