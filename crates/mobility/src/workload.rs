//! Connection workload generators.
//!
//! Two workloads drive the paper's experiments:
//!
//! * **§7.1 / Figure 5** — "cell throughput 1.6 Mbps, each user opens one
//!   connection of either 16 Kbps (75%) or 64 Kbps (25%)" —
//!   [`WorkloadMix::paper71`],
//! * **Figure 6** — the two-cell model: "capacity of each cell is 40;
//!   type 1: bandwidth 1, arrival rate 30, mean holding 0.2, handoff
//!   probability 0.7; type 2: bandwidth 4, arrival rate 1, mean holding
//!   0.25, handoff probability 0.7" — [`ConnTypeSpec::fig6_types`] and
//!   [`poisson_arrivals`].

use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, PortableId};
use arm_sim::{Audited, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// A weighted mix of per-user connection requests.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadMix {
    /// `(weight, request)` pairs; weights need not sum to 1.
    pub entries: Vec<(f64, QosRequest)>,
}

impl WorkloadMix {
    /// The §7.1 mix: one 16 kbps (75%) or 64 kbps (25%) connection per
    /// user, fixed-rate (no adaptable range), permissive secondary
    /// bounds — the experiment exercises the bandwidth dimension.
    pub fn paper71() -> Self {
        let mk = |kbps: f64| {
            QosRequest::fixed(kbps)
                .with_delay(30.0)
                .with_jitter(30.0)
                .with_loss(1.0)
        };
        WorkloadMix {
            entries: vec![(0.75, mk(16.0)), (0.25, mk(64.0))],
        }
    }

    /// Sample one request.
    pub fn sample(&self, rng: &mut SimRng) -> QosRequest {
        let weights: Vec<f64> = self.entries.iter().map(|(w, _)| *w).collect();
        let idx = rng
            .weighted_choice(&weights)
            .precondition("mix has positive weights");
        self.entries[idx].1
    }

    /// Expected bandwidth per sampled connection (kbps).
    pub(crate) fn mean_rate(&self) -> f64 {
        let total_w: f64 = self.entries.iter().map(|(w, _)| *w).sum();
        self.entries.iter().map(|(w, q)| w * q.b_min).sum::<f64>() / total_w
    }

    /// The offered load of `n` users against a cell of `capacity` kbps —
    /// the quantity the paper reports as 59% (35 users) and 94% (55
    /// users).
    pub fn offered_load(&self, n_users: usize, capacity: f64) -> f64 {
        n_users as f64 * self.mean_rate() / capacity
    }
}

/// One connection type of the Figure 6 model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ConnTypeSpec {
    /// Bandwidth requirement `b_min = b_max` (abstract units).
    pub bandwidth: f64,
    /// New-request arrival rate per cell (per time unit).
    pub arrival_rate: f64,
    /// Mean connection holding time `1/μ` (time units).
    pub mean_holding: f64,
    /// Handoff probability `h`: on leaving a cell the connection moves to
    /// the neighbour with probability `h`, terminates otherwise.
    pub handoff_prob: f64,
}

impl ConnTypeSpec {
    /// The Figure 6 pair of types.
    pub fn fig6_types() -> Vec<ConnTypeSpec> {
        vec![
            ConnTypeSpec {
                bandwidth: 1.0,
                arrival_rate: 30.0,
                mean_holding: 0.2,
                handoff_prob: 0.7,
            },
            ConnTypeSpec {
                bandwidth: 4.0,
                arrival_rate: 1.0,
                mean_holding: 0.25,
                handoff_prob: 0.7,
            },
        ]
    }

    /// Departure rate `μ`.
    pub fn mu(&self) -> f64 {
        1.0 / self.mean_holding
    }
}

/// One new-connection request event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConnRequest {
    /// Arrival time.
    pub time: SimTime,
    /// The cell where the request originates.
    pub(crate) cell: CellId,
    /// Index into the type list.
    pub(crate) type_idx: usize,
    /// Synthetic owner id (unique per request).
    pub(crate) portable: PortableId,
}

/// Generate Poisson new-connection arrivals for every `(cell, type)`
/// pair over `span`, where one Figure 6 "time unit" lasts `time_unit` of
/// virtual time. Events are merged and time-sorted.
pub fn poisson_arrivals(
    cells: &[CellId],
    types: &[ConnTypeSpec],
    span: SimDuration,
    time_unit: SimDuration,
    rng: &mut SimRng,
) -> Vec<ConnRequest> {
    let mut out = Vec::new();
    let mut next_portable = 50_000u32;
    for cell in cells {
        for (ti, ty) in types.iter().enumerate() {
            let mut rng = rng
                .split_index("arrivals-cell", cell.0 as u64)
                .split_index("type", ti as u64);
            if ty.arrival_rate <= 0.0 {
                continue;
            }
            let mean_gap = SimDuration::from_secs_f64(time_unit.as_secs_f64() / ty.arrival_rate);
            let mut t = SimTime::ZERO;
            loop {
                t += rng.exp_duration(mean_gap);
                if t.since(SimTime::ZERO) >= span {
                    break;
                }
                out.push(ConnRequest {
                    time: t,
                    cell: *cell,
                    type_idx: ti,
                    portable: PortableId(next_portable),
                });
                next_portable += 1;
            }
        }
    }
    out.sort_by(|a, b| a.time.cmp(&b.time).then(a.portable.cmp(&b.portable)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper71_mix_statistics() {
        let mix = WorkloadMix::paper71();
        // Mean rate = 0.75·16 + 0.25·64 = 28 kbps.
        assert!((mix.mean_rate() - 28.0).abs() < 1e-12);
        // Offered loads the paper reports: 35 users → 61%… the paper says
        // 59% for 35 students at 1.6 Mbps; with the stated mix the exact
        // expectation is 35·28/1600 = 61.25%. The published 59% reflects
        // their particular draw; the expectation is what we check.
        assert!((mix.offered_load(35, 1600.0) - 0.6125).abs() < 1e-9);
        assert!((mix.offered_load(55, 1600.0) - 0.9625).abs() < 1e-9);
    }

    #[test]
    fn mix_sampling_matches_weights() {
        let mix = WorkloadMix::paper71();
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let smalls = (0..n)
            .filter(|_| (mix.sample(&mut rng).b_min - 16.0).abs() < 1e-9)
            .count();
        let frac = smalls as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn fig6_types_match_the_paper() {
        let t = ConnTypeSpec::fig6_types();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].bandwidth, 1.0);
        assert_eq!(t[0].arrival_rate, 30.0);
        assert!((t[0].mu() - 5.0).abs() < 1e-12);
        assert_eq!(t[1].bandwidth, 4.0);
        assert!((t[1].mu() - 4.0).abs() < 1e-12);
        assert_eq!(t[0].handoff_prob, 0.7);
    }

    #[test]
    fn poisson_arrival_counts_scale_with_rate() {
        let cells = [CellId(0), CellId(1)];
        let types = ConnTypeSpec::fig6_types();
        let span = SimDuration::from_secs(1000);
        let unit = SimDuration::from_secs(1);
        let mut rng = SimRng::new(7);
        let reqs = poisson_arrivals(&cells, &types, span, unit, &mut rng);
        // Expect ≈ 30·1000 type-1 per cell and ≈ 1·1000 type-2 per cell.
        let t1c0 = reqs
            .iter()
            .filter(|r| r.type_idx == 0 && r.cell == cells[0])
            .count() as f64;
        let t2c0 = reqs
            .iter()
            .filter(|r| r.type_idx == 1 && r.cell == cells[0])
            .count() as f64;
        assert!((t1c0 - 30_000.0).abs() < 1500.0, "t1c0={t1c0}");
        assert!((t2c0 - 1000.0).abs() < 150.0, "t2c0={t2c0}");
        // Sorted by time, unique portables.
        assert!(reqs.windows(2).all(|w| w[0].time <= w[1].time));
        let mut ids: Vec<_> = reqs.iter().map(|r| r.portable).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reqs.len());
    }
}
