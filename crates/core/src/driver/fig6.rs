//! The Figure 6 experiment: performance of the default (probabilistic)
//! reservation algorithm.
//!
//! Two identical cells of capacity 40 carry two connection types (type 1:
//! b=1, λ=30, 1/μ=0.2, h=0.7; type 2: b=4, λ=1, 1/μ=0.25, h=0.7). New
//! connections pass the §6.3 look-ahead admission test (window `T`,
//! target `P_QOS`); handoffs are admitted whenever the raw capacity
//! fits. Sweeping `P_QOS` for a family of `T` values produces the
//! `P_d`-vs-`P_b` trade-off curves of Figure 6; the static-reservation
//! baseline reserves a fixed slice instead.
//!
//! The driver is a dedicated birth–death simulation on `arm-sim` (the
//! full ledger machinery adds nothing here — there is one link per cell
//! and all rates are fixed), which lets a whole curve family run in
//! milliseconds.

use arm_mobility::workload::ConnTypeSpec;
use arm_reservation::probabilistic::{ProbabilisticConfig, ProbabilisticReservation, TypeState};
use arm_sim::engine::{Ctx, Model};
use arm_sim::{Engine, SimDuration, SimRng, SimTime};

/// Which admission policy guards new connections.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionPolicy {
    /// §6.3: admit while the look-ahead non-blocking probability stays
    /// above `1 − P_QOS`.
    Probabilistic {
        /// Look-ahead window `T` (time units).
        window_t: f64,
        /// Target handoff-drop probability.
        p_qos: f64,
    },
    /// Reserve a fixed bandwidth slice for handoffs; admit new
    /// connections only into the remainder.
    StaticReservation {
        /// Reserved bandwidth (abstract units out of the capacity).
        reserved: f64,
    },
    /// No protection: admit whenever capacity fits.
    None,
}

/// One simulation's outcome.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    /// New-connection blocking probability.
    pub p_b: f64,
    /// Handoff dropping probability.
    pub p_d: f64,
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Params {
    /// Cell capacity `B_c` (both cells; paper: 40).
    pub capacity: f64,
    /// Virtual seconds per model time unit.
    pub time_unit: SimDuration,
    /// Simulated span in model time units.
    pub span_units: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig6Params {
    fn default() -> Self {
        Fig6Params {
            capacity: 40.0,
            time_unit: SimDuration::from_secs(1),
            span_units: 2000.0,
            seed: 1,
        }
    }
}

/// Events of the birth–death model.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A new connection of `type_idx` arrives at `cell` (0 or 1).
    Arrive { cell: usize, type_idx: usize },
    /// Connection `serial` (if still alive) leaves its cell.
    Depart { serial: u64 },
}

/// A live connection.
#[derive(Clone, Copy, Debug)]
struct Live {
    cell: usize,
    type_idx: usize,
}

struct Fig6Model {
    types: Vec<ConnTypeSpec>,
    policy: AdmissionPolicy,
    capacity: f64,
    time_unit: SimDuration,
    end: SimTime,
    rng: SimRng,
    /// Bandwidth in use per cell.
    used: [f64; 2],
    /// Live connection count per (cell, type).
    counts: [[u32; 2]; 2],
    live: std::collections::BTreeMap<u64, Live>,
    next_serial: u64,
    offered: u64,
    blocked: u64,
    handoff_attempts: u64,
    dropped: u64,
}

impl Fig6Model {
    fn admit_new(&self, cell: usize, type_idx: usize) -> bool {
        let b = self.types[type_idx].bandwidth;
        match self.policy {
            AdmissionPolicy::None => self.used[cell] + b <= self.capacity + 1e-9,
            AdmissionPolicy::StaticReservation { reserved } => {
                self.used[cell] + b <= self.capacity - reserved + 1e-9
            }
            AdmissionPolicy::Probabilistic { window_t, p_qos } => {
                if self.used[cell] + b > self.capacity + 1e-9 {
                    return false;
                }
                let solver = ProbabilisticReservation::new(ProbabilisticConfig {
                    window_t,
                    p_qos,
                    capacity: self.capacity,
                    handoff_prob: self.types[type_idx].handoff_prob,
                    quantum: 1.0,
                });
                let other = 1 - cell;
                let states: Vec<TypeState> = self
                    .types
                    .iter()
                    .enumerate()
                    .map(|(i, ty)| TypeState {
                        b_min: ty.bandwidth,
                        mu: ty.mu(),
                        n_current: self.counts[cell][i],
                        s_neighbor: self.counts[other][i],
                    })
                    .collect();
                solver.admit_new(&states, type_idx)
            }
        }
    }

    fn admit_handoff(&self, cell: usize, type_idx: usize) -> bool {
        // Handoffs are the protected class: they may use the full
        // capacity, including anything reserved.
        let b = self.types[type_idx].bandwidth;
        self.used[cell] + b <= self.capacity + 1e-9
    }

    fn place(&mut self, cell: usize, type_idx: usize, ctx: &mut Ctx<'_, Ev>) {
        let serial = self.next_serial;
        self.next_serial += 1;
        self.used[cell] += self.types[type_idx].bandwidth;
        self.counts[cell][type_idx] += 1;
        self.live.insert(serial, Live { cell, type_idx });
        let holding = self.rng.exp_duration(SimDuration::from_secs_f64(
            self.types[type_idx].mean_holding * self.time_unit.as_secs_f64(),
        ));
        ctx.schedule_after(holding, Ev::Depart { serial });
    }

    fn remove(&mut self, serial: u64) -> Option<Live> {
        let live = self.live.remove(&serial)?;
        self.used[live.cell] -= self.types[live.type_idx].bandwidth;
        self.counts[live.cell][live.type_idx] -= 1;
        Some(live)
    }
}

impl Model for Fig6Model {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        if ctx.now() > self.end {
            return; // drain without acting
        }
        match ev {
            Ev::Arrive { cell, type_idx } => {
                self.offered += 1;
                if self.admit_new(cell, type_idx) {
                    self.place(cell, type_idx, ctx);
                } else {
                    self.blocked += 1;
                }
                // Next arrival of this stream.
                let rate = self.types[type_idx].arrival_rate;
                let gap = self.rng.exp_duration(SimDuration::from_secs_f64(
                    self.time_unit.as_secs_f64() / rate,
                ));
                ctx.schedule_after(gap, Ev::Arrive { cell, type_idx });
            }
            Ev::Depart { serial } => {
                let Some(live) = self.remove(serial) else {
                    return;
                };
                // With probability h the connection hands off to the
                // neighbour cell; otherwise it terminates.
                if self.rng.chance(self.types[live.type_idx].handoff_prob) {
                    self.handoff_attempts += 1;
                    let target = 1 - live.cell;
                    if self.admit_handoff(target, live.type_idx) {
                        self.place(target, live.type_idx, ctx);
                    } else {
                        self.dropped += 1;
                    }
                }
            }
        }
    }
}

/// Run one Figure 6 point.
pub fn run(policy: AdmissionPolicy, params: Fig6Params) -> Fig6Point {
    let types = ConnTypeSpec::fig6_types();
    let end = SimTime::ZERO
        + SimDuration::from_secs_f64(params.span_units * params.time_unit.as_secs_f64());
    let model = Fig6Model {
        types: types.clone(),
        policy,
        capacity: params.capacity,
        time_unit: params.time_unit,
        end,
        rng: SimRng::new(params.seed).split("fig6"),
        used: [0.0; 2],
        counts: [[0; 2]; 2],
        live: Default::default(),
        next_serial: 0,
        offered: 0,
        blocked: 0,
        handoff_attempts: 0,
        dropped: 0,
    };
    let mut engine = Engine::new(model);
    for cell in 0..2 {
        for type_idx in 0..types.len() {
            engine.schedule_at(SimTime::ZERO, Ev::Arrive { cell, type_idx });
        }
    }
    engine.run_until(end);
    let m = engine.model();
    Fig6Point {
        p_b: m.blocked as f64 / m.offered.max(1) as f64,
        p_d: m.dropped as f64 / m.handoff_attempts.max(1) as f64,
    }
}

/// Sweep `P_QOS` for one window `T`, producing one Figure 6 curve.
pub fn curve(window_t: f64, p_qos_values: &[f64], params: Fig6Params) -> Vec<(f64, Fig6Point)> {
    p_qos_values
        .iter()
        .map(|p_qos| {
            (
                *p_qos,
                run(
                    AdmissionPolicy::Probabilistic {
                        window_t,
                        p_qos: *p_qos,
                    },
                    params,
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig6Params {
        Fig6Params {
            span_units: 400.0,
            ..Default::default()
        }
    }

    #[test]
    fn unprotected_system_runs_hot() {
        let p = run(AdmissionPolicy::None, quick());
        // λ/μ per cell: type 1 offers 30×0.2 = 6 erlangs of bandwidth 1
        // plus handoffs; type 2 offers 1 erlang of bandwidth 4 — the cell
        // mostly fits, so blocking is modest but handoff drops happen.
        assert!(p.p_b < 0.2);
        assert!(p.p_d > 0.0);
    }

    #[test]
    fn tighter_p_qos_trades_blocking_for_dropping() {
        let params = quick();
        let loose = run(
            AdmissionPolicy::Probabilistic {
                window_t: 0.05,
                p_qos: 0.9,
            },
            params,
        );
        let tight = run(
            AdmissionPolicy::Probabilistic {
                window_t: 0.05,
                p_qos: 0.001,
            },
            params,
        );
        assert!(
            tight.p_b > loose.p_b,
            "tight target must block more: {} vs {}",
            tight.p_b,
            loose.p_b
        );
        assert!(
            tight.p_d <= loose.p_d + 1e-3,
            "tight target must not drop more: {} vs {}",
            tight.p_d,
            loose.p_d
        );
    }

    #[test]
    fn probabilistic_beats_static_at_comparable_blocking() {
        // The paper's claim ([12]): the look-ahead algorithm outperforms
        // static reservation. Compare at similar P_b by picking a static
        // slice and a P_QOS that land close together.
        let params = Fig6Params {
            span_units: 1500.0,
            ..Default::default()
        };
        let stat = run(AdmissionPolicy::StaticReservation { reserved: 6.0 }, params);
        // Find a probabilistic point with P_b no worse than static's. The
        // grid must reach the tight end (P_QOS ≈ 0.002): static with a
        // 6-unit slice blocks ~2%, and only comparably tight look-ahead
        // targets land in that blocking regime.
        let mut best: Option<Fig6Point> = None;
        for p_qos in [0.05, 0.02, 0.01, 0.005, 0.002, 0.001] {
            let p = run(
                AdmissionPolicy::Probabilistic {
                    window_t: 0.05,
                    p_qos,
                },
                params,
            );
            if p.p_b <= stat.p_b && best.map_or(true, |b| p.p_d < b.p_d) {
                best = Some(p);
            }
        }
        let best = best.expect("some probabilistic point blocks no more than static");
        assert!(
            best.p_d <= stat.p_d,
            "probabilistic P_d {} should not exceed static P_d {} at no more blocking",
            best.p_d,
            stat.p_d
        );
    }

    #[test]
    fn determinism() {
        let a = run(AdmissionPolicy::None, quick());
        let b = run(AdmissionPolicy::None, quick());
        assert_eq!(a.p_b.to_bits(), b.p_b.to_bits());
        assert_eq!(a.p_d.to_bits(), b.p_d.to_bits());
    }

    #[test]
    fn curve_is_a_tradeoff_frontier() {
        let pts = curve(0.05, &[0.001, 0.01, 0.05, 0.2, 0.8], quick());
        // P_b should broadly decrease as P_QOS loosens.
        let first = pts.first().expect("non-empty").1;
        let last = pts.last().expect("non-empty").1;
        assert!(first.p_b >= last.p_b, "{} vs {}", first.p_b, last.p_b);
    }
}
