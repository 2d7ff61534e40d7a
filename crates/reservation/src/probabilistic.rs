//! The probabilistic default reservation algorithm (§6.3, eqns 3–7).
//!
//! Model (Figure 3): two neighbouring cells `C_q` (ours) and `C_s`.
//! Connections come in `k` types with bandwidth `b_min,i`, exponential
//! holding (rate `μ_i`), and handoff probability `h_q`. Over a look-ahead
//! window `[t, t+T]`:
//!
//! * a connection stays put with `p_s,i = e^{−μ_i T}` ,
//! * a connection in the neighbour hands off here with
//!   `p_m,i = (1 − e^{−μ_i T})·h_q`,
//! * at most one handoff per connection, and new arrivals during the
//!   window are ignored (conflicts drop the later arrival — the
//!   interpretation that makes "handoff dropping" measurable),
//! * the count of stayers is binomial `B(j_i; N_i, p_s,i)` (eqn 3), the
//!   count of arrivals binomial `B(l_i; s_i, p_m,i)` (eqn 4),
//! * the non-blocking probability is
//!   `P_nb = Prob(Σ_i b_min,i (l_i + j_i) ≤ B_c)` (eqn 5),
//! * the design constraint is `P_nb ≥ 1 − P_QOS` (eqn 6), met by capping
//!   the admissible counts `N_i` and reserving
//!   `b_resv ≥ B_c − Σ_i b_min,i N_i` (eqn 7).
//!
//! Everything is computed exactly by convolving the binomial pmfs on a
//! bandwidth grid — no Monte Carlo, so admission decisions are
//! deterministic.

use serde::{Deserialize, Serialize};

/// Stay probability `p_s = e^{−μT}`.
pub fn p_stay(mu: f64, t_window: f64) -> f64 {
    (-mu * t_window).exp()
}

/// Handoff-in probability `p_m = (1 − e^{−μT})·h`.
pub fn p_move(mu: f64, t_window: f64, h: f64) -> f64 {
    (1.0 - (-mu * t_window).exp()) * h
}

/// Binomial pmf `B(·; n, p)` as a vector of length `n + 1`.
pub fn binom_pmf(n: u32, p: f64) -> Vec<f64> {
    let p = p.clamp(0.0, 1.0);
    let mut pmf = vec![0.0; n as usize + 1];
    // Iterative: start at (1-p)^n, multiply by ratio.
    let q = 1.0 - p;
    if q == 0.0 {
        pmf[n as usize] = 1.0;
        return pmf;
    }
    let mut v = q.powi(n as i32);
    for (k, slot) in pmf.iter_mut().enumerate() {
        *slot = v;
        if k < n as usize {
            v = v * (n as usize - k) as f64 / (k + 1) as f64 * (p / q);
        }
    }
    pmf
}

/// One connection type's state at decision time.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TypeState {
    /// Guaranteed bandwidth per connection (`b_min,i`).
    pub b_min: f64,
    /// Departure rate `μ_i`.
    pub mu: f64,
    /// Connections of this type currently in our cell (`n_i`, a lower
    /// bound on `N_i`).
    pub n_current: u32,
    /// Connections of this type currently in the neighbour (`s_i`).
    pub s_neighbor: u32,
}

/// Algorithm configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ProbabilisticConfig {
    /// Look-ahead window `T` (same time unit as the `μ_i`).
    pub window_t: f64,
    /// Target handoff-drop probability `P_QOS`.
    pub p_qos: f64,
    /// Cell capacity `B_c`.
    pub capacity: f64,
    /// Handoff probability `h_q` out of the neighbour toward us.
    pub handoff_prob: f64,
    /// Bandwidth quantum: every `b_min,i` and the capacity must be an
    /// integer multiple (1.0 for the Figure 6 units; 16.0 for the §7.1
    /// kbps mix).
    pub quantum: f64,
}

impl ProbabilisticConfig {
    /// The Figure 6 experiment's base configuration (capacity 40,
    /// `h_q` = 0.7, unit quantum); `window_t` and `p_qos` vary per curve.
    pub fn fig6(window_t: f64, p_qos: f64) -> Self {
        ProbabilisticConfig {
            window_t,
            p_qos,
            capacity: 40.0,
            handoff_prob: 0.7,
            quantum: 1.0,
        }
    }
}

/// The solver.
///
/// ```
/// use arm_reservation::probabilistic::{
///     ProbabilisticConfig, ProbabilisticReservation, TypeState,
/// };
///
/// // Figure 6's cell: capacity 40, look-ahead T = 0.05, target 1%.
/// let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(0.05, 0.01));
/// let types = [
///     TypeState { b_min: 1.0, mu: 5.0, n_current: 20, s_neighbor: 20 },
///     TypeState { b_min: 4.0, mu: 4.0, n_current: 1, s_neighbor: 1 },
/// ];
/// // Admitting one more type-1 connection keeps P_nb ≥ 1 − P_QOS here…
/// assert!(solver.admit_new(&types, 0));
/// // …and the non-blocking probability itself is available (eqn 5).
/// let p_nb = solver.nonblocking_prob(&types, &[20, 1]);
/// assert!(p_nb > 0.99);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ProbabilisticReservation {
    /// Configuration.
    pub cfg: ProbabilisticConfig,
}

impl ProbabilisticReservation {
    /// Wrap a configuration.
    pub fn new(cfg: ProbabilisticConfig) -> Self {
        assert!(cfg.window_t > 0.0 && cfg.capacity > 0.0 && cfg.quantum > 0.0);
        assert!((0.0..=1.0).contains(&cfg.p_qos));
        ProbabilisticReservation { cfg }
    }

    fn units(&self, b: f64) -> usize {
        let u = b / self.cfg.quantum;
        let r = u.round();
        assert!(
            (u - r).abs() < 1e-9,
            "bandwidth {b} is not a multiple of the quantum {}",
            self.cfg.quantum
        );
        r as usize
    }

    /// Eqn 5: `P_nb = Prob(Σ b_min,i (l_i + j_i) ≤ B_c)`, with the
    /// admitted counts `n_i` (eqn 3's `N_i`) given per type.
    pub fn nonblocking_prob(&self, types: &[TypeState], admitted: &[u32]) -> f64 {
        assert_eq!(types.len(), admitted.len());
        let cap_units = self.units(self.cfg.capacity);
        // dist[w] = probability the survivors+arrivals demand exactly w
        // units; index cap_units+1 accumulates the overflow mass.
        let mut dist = vec![0.0; cap_units + 2];
        dist[0] = 1.0;
        for (ty, n_adm) in types.iter().zip(admitted) {
            let b_units = self.units(ty.b_min);
            let ps = p_stay(ty.mu, self.cfg.window_t);
            let pm = p_move(ty.mu, self.cfg.window_t, self.cfg.handoff_prob);
            for (count_max, p) in [(*n_adm, ps), (ty.s_neighbor, pm)] {
                if count_max == 0 {
                    continue;
                }
                let pmf = binom_pmf(count_max, p);
                dist = convolve_scaled(&dist, &pmf, b_units, cap_units);
            }
        }
        dist[..=cap_units].iter().sum()
    }

    /// Call-admission decision: may one more connection of
    /// `types[new_idx]` be admitted without violating eqn 6 for the
    /// existing connections at `t + T`?
    pub fn admit_new(&self, types: &[TypeState], new_idx: usize) -> bool {
        let mut admitted: Vec<u32> = types.iter().map(|t| t.n_current).collect();
        admitted[new_idx] += 1;
        self.nonblocking_prob(types, &admitted) >= 1.0 - self.cfg.p_qos
    }

    /// The largest admissible counts `N_i ≥ n_i`, grown round-robin until
    /// eqn 6 would break (deterministic; used to size `b_resv`).
    pub fn max_admissible(&self, types: &[TypeState]) -> Vec<u32> {
        let mut n: Vec<u32> = types.iter().map(|t| t.n_current).collect();
        // Hard cap per type: the capacity in units of its bandwidth.
        let caps: Vec<u32> = types
            .iter()
            .map(|t| (self.cfg.capacity / t.b_min).floor() as u32)
            .collect();
        loop {
            let mut grew = false;
            for i in 0..n.len() {
                if n[i] >= caps[i] {
                    continue;
                }
                n[i] += 1;
                if self.nonblocking_prob(types, &n) >= 1.0 - self.cfg.p_qos {
                    grew = true;
                } else {
                    n[i] -= 1;
                }
            }
            if !grew {
                return n;
            }
        }
    }

    /// Eqn 7: the bandwidth to advance-reserve given the admissible
    /// counts — `max(0, B_c − Σ b_min,i N_i)`.
    pub fn reserved_bandwidth(&self, types: &[TypeState], admissible: &[u32]) -> f64 {
        let used: f64 = types
            .iter()
            .zip(admissible)
            .map(|(t, n)| t.b_min * f64::from(*n))
            .sum();
        (self.cfg.capacity - used).max(0.0)
    }
}

/// Convolve `dist` with `pmf` where each pmf count weighs `b_units` grid
/// cells; mass beyond `cap_units` lands in the overflow bin.
fn convolve_scaled(dist: &[f64], pmf: &[f64], b_units: usize, cap_units: usize) -> Vec<f64> {
    let over = cap_units + 1;
    let mut out = vec![0.0; cap_units + 2];
    for (w, dmass) in dist.iter().enumerate() {
        if *dmass == 0.0 {
            continue;
        }
        if w == over {
            out[over] += dmass;
            continue;
        }
        for (k, pmass) in pmf.iter().enumerate() {
            if *pmass == 0.0 {
                continue;
            }
            let idx = w + k * b_units;
            if idx > cap_units {
                out[over] += dmass * pmass;
            } else {
                out[idx] += dmass * pmass;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stay_and_move_probabilities() {
        // μ = 5, T = 0.2: p_s = e^{−1} ≈ 0.3679.
        assert!((p_stay(5.0, 0.2) - (-1.0f64).exp()).abs() < 1e-12);
        // p_m = (1 − e^{−1})·0.7 ≈ 0.4425.
        assert!((p_move(5.0, 0.2, 0.7) - (1.0 - (-1.0f64).exp()) * 0.7).abs() < 1e-12);
        // T → 0: everyone stays, nobody moves.
        assert!((p_stay(5.0, 1e-12) - 1.0).abs() < 1e-9);
        assert!(p_move(5.0, 1e-12, 0.7) < 1e-9);
    }

    #[test]
    fn binom_pmf_properties() {
        let pmf = binom_pmf(10, 0.3);
        assert_eq!(pmf.len(), 11);
        let sum: f64 = pmf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let mean: f64 = pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        assert!((mean - 3.0).abs() < 1e-9);
        // Degenerate cases.
        assert_eq!(binom_pmf(5, 0.0)[0], 1.0);
        assert_eq!(binom_pmf(5, 1.0)[5], 1.0);
        assert_eq!(binom_pmf(0, 0.4), vec![1.0]);
    }

    fn fig6_state(n1: u32, s1: u32, n2: u32, s2: u32) -> Vec<TypeState> {
        vec![
            TypeState {
                b_min: 1.0,
                mu: 5.0,
                n_current: n1,
                s_neighbor: s1,
            },
            TypeState {
                b_min: 4.0,
                mu: 4.0,
                n_current: n2,
                s_neighbor: s2,
            },
        ]
    }

    #[test]
    fn nonblocking_prob_empty_cells_is_one() {
        let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(0.05, 0.01));
        let p = solver.nonblocking_prob(&fig6_state(0, 0, 0, 0), &[0, 0]);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonblocking_prob_monotone_in_population() {
        let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(0.1, 0.01));
        let mut last = 1.0;
        for n in [5u32, 15, 25, 35, 45] {
            let p = solver.nonblocking_prob(&fig6_state(n, 20, 2, 2), &[n, 2]);
            assert!(p <= last + 1e-12, "not monotone at n={n}: {p} > {last}");
            last = p;
        }
        // Saturated cell: certainly some blocking risk.
        assert!(last < 0.9);
    }

    #[test]
    fn monte_carlo_agreement() {
        // Cross-validate the exact convolution with simulation.
        let cfg = ProbabilisticConfig::fig6(0.1, 0.01);
        let solver = ProbabilisticReservation::new(cfg);
        let types = fig6_state(25, 15, 2, 1);
        let admitted = [25u32, 2];
        let exact = solver.nonblocking_prob(&types, &admitted);
        let mut rng = arm_sim::SimRng::new(99);
        let trials = 200_000;
        let mut ok = 0u32;
        for _ in 0..trials {
            let mut demand = 0.0;
            for (ty, adm) in types.iter().zip(&admitted) {
                let ps = p_stay(ty.mu, cfg.window_t);
                let pm = p_move(ty.mu, cfg.window_t, cfg.handoff_prob);
                let j = rng.binomial(*adm, ps);
                let l = rng.binomial(ty.s_neighbor, pm);
                demand += ty.b_min * f64::from(j + l);
            }
            if demand <= cfg.capacity {
                ok += 1;
            }
        }
        let mc = f64::from(ok) / trials as f64;
        assert!((exact - mc).abs() < 0.005, "exact {exact} vs MC {mc}");
    }

    #[test]
    fn admit_new_blocks_when_target_at_risk() {
        // Small window, tight target, a nearly full cell.
        let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(0.5, 0.001));
        let crowded = fig6_state(36, 36, 1, 1);
        assert!(!solver.admit_new(&crowded, 0), "crowded cell must refuse");
        let empty = fig6_state(0, 0, 0, 0);
        assert!(solver.admit_new(&empty, 0));
        assert!(solver.admit_new(&empty, 1));
    }

    #[test]
    fn window_effects() {
        // As T → 0 a feasible current population certainly fits.
        let types = fig6_state(30, 30, 1, 1);
        let admitted = [30u32, 1];
        let p0 = ProbabilisticReservation::new(ProbabilisticConfig::fig6(1e-9, 0.01))
            .nonblocking_prob(&types, &admitted);
        assert!((p0 - 1.0).abs() < 1e-9, "p0={p0}");
        // With no local connections only handoffs-in matter, and p_m is
        // increasing in T: a longer window means lower P_nb.
        let arrivals_only = fig6_state(0, 70, 0, 1);
        let mut last = 1.0;
        for t in [0.01, 0.05, 0.2, 0.5, 2.0] {
            let p = ProbabilisticReservation::new(ProbabilisticConfig::fig6(t, 0.01))
                .nonblocking_prob(&arrivals_only, &[0, 0]);
            assert!(p <= last + 1e-12, "not decreasing at T={t}");
            last = p;
        }
        assert!(last < 0.9, "long window sees real handoff risk: {last}");
    }

    #[test]
    fn max_admissible_and_reservation() {
        let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(0.05, 0.02));
        let types = fig6_state(10, 10, 1, 1);
        let n = solver.max_admissible(&types);
        // At least the current population is admissible.
        assert!(n[0] >= 10 && n[1] >= 1);
        // Growing any type by one must break the target (maximality),
        // unless the hard capacity cap stopped it first.
        for i in 0..2 {
            let mut grown = n.clone();
            grown[i] += 1;
            let cap = (solver.cfg.capacity / types[i].b_min).floor() as u32;
            if grown[i] <= cap {
                assert!(
                    solver.nonblocking_prob(&types, &grown) < 1.0 - solver.cfg.p_qos,
                    "N not maximal in type {i}"
                );
            }
        }
        let resv = solver.reserved_bandwidth(&types, &n);
        let used: f64 = types
            .iter()
            .zip(&n)
            .map(|(t, k)| t.b_min * f64::from(*k))
            .sum();
        assert!((resv - (40.0 - used).max(0.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a multiple of the quantum")]
    fn non_quantised_bandwidth_rejected() {
        let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(0.1, 0.01));
        let bad = vec![TypeState {
            b_min: 1.5,
            mu: 1.0,
            n_current: 1,
            s_neighbor: 0,
        }];
        solver.nonblocking_prob(&bad, &[1]);
    }
}
