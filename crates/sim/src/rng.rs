//! Seeded randomness and the distributions the paper's models draw from.
//!
//! Everything stochastic in the workspace flows through [`SimRng`]:
//!
//! * **exponential** connection holding times (`1/μ` in §6.3) and the
//!   gaps of Poisson new-connection arrival processes (`λ` in §6.3),
//! * **Bernoulli** handoff-vs-terminate decisions (`h_q`),
//! * **binomial** counts (the probabilistic reservation model, eqns 3–4),
//! * weighted **choice** (next-cell selection from a cell-profile row),
//! * **uniform** jitter for mobility models.
//!
//! [`SimRng::split`] derives an independent child stream from a label, so
//! subsystems (workload, mobility, channel) can be re-ordered or added
//! without perturbing each other's draws — a requirement for meaningful
//! A/B comparisons between reservation algorithms on the *same* workload.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::SimDuration;

/// Deterministic random source for one subsystem of a simulation.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream from a textual label.
    ///
    /// The child seed mixes the parent seed with an FNV-1a hash of the
    /// label, so `split("workload")` and `split("mobility")` never collide
    /// and do not consume draws from the parent.
    pub fn split(&self, label: &str) -> SimRng {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // splitmix64 finalizer to decorrelate nearby seeds.
        let mut z = self.seed ^ h;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Derive an independent child stream from an integer index (e.g. one
    /// stream per portable).
    pub fn split_index(&self, label: &str, index: u64) -> SimRng {
        self.split(label).split(&index.to_string())
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        self.inner.gen_range(lo..=hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponential variate with the given rate (mean `1/rate`).
    ///
    /// Uses inversion: `-ln(1 - U) / rate`, with `1 - U ∈ (0, 1]` so the
    /// logarithm never sees zero.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(
            rate > 0.0,
            "precondition: exponential rate must be positive (callers validate \
             scenario-supplied means before sampling)"
        );
        let u = 1.0 - self.unit(); // in (0, 1]
        -u.ln() / rate
    }

    /// Exponential inter-arrival / holding time as a [`SimDuration`],
    /// given a mean duration.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        assert!(
            !mean.is_zero(),
            "precondition: mean duration must be positive (callers validate \
             scenario-supplied dwell/holding times before sampling)"
        );
        let secs = self.exp(1.0 / mean.as_secs_f64());
        SimDuration::from_secs_f64(secs)
    }

    /// Binomial variate `B(n, p)` by direct simulation.
    ///
    /// `n` in this workspace is a connection count (tens), so the O(n) loop
    /// is both exact and cheap; no approximation is needed.
    pub fn binomial(&mut self, n: u32, p: f64) -> u32 {
        if p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mut k = 0;
        for _ in 0..n {
            if self.unit() < p {
                k += 1;
            }
        }
        k
    }

    /// Standard normal variate (Box–Muller; one value per call).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Pick an index according to non-negative weights. Returns `None` when
    /// every weight is zero (callers fall back to a default policy).
    pub fn weighted_choice(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if x < *w {
                return Some(i);
            }
            x -= *w;
        }
        // Float round-off: return the last positive-weight index.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

// Snapshot support: a stream is its originating seed plus the raw
// xoshiro256++ state words, so a restored stream resumes exactly where
// the checkpoint left it (not at the seed). The inner generator lives
// in the vendored `rand` crate, so the codec is the derived one of a
// wire twin, converted at the edges.
impl serde::Serialize for SimRng {
    fn to_value(&self) -> serde::Value {
        wire::SimRng::from(self).to_value()
    }
    fn write_json(&self, out: &mut serde::JsonWriter) {
        wire::SimRng::from(self).write_json(out);
    }
}

impl serde::Deserialize for SimRng {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        wire::SimRng::from_value(v)?.try_into()
    }
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        wire::SimRng::read_json(r)?.try_into()
    }
}

/// The fields of a [`SimRng`](super::SimRng) as the document spells
/// them, under its name so the derive's error texts carry it.
mod wire {
    #[derive(serde::Serialize, serde::Deserialize)]
    pub(super) struct SimRng {
        pub(super) seed: u64,
        /// The xoshiro256++ state: exactly 4 words.
        pub(super) state: Vec<u64>,
    }

    impl From<&super::SimRng> for SimRng {
        fn from(rng: &super::SimRng) -> Self {
            SimRng {
                seed: rng.seed,
                state: rng.inner.state().to_vec(),
            }
        }
    }
}

impl TryFrom<wire::SimRng> for SimRng {
    type Error = serde::Error;

    fn try_from(w: wire::SimRng) -> Result<Self, serde::Error> {
        let state: [u64; 4] = w
            .state
            .try_into()
            .map_err(|_| serde::Error::custom("SimRng: state must hold exactly 4 words"))?;
        Ok(SimRng {
            inner: SmallRng::from_state(state),
            seed: w.seed,
        })
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let root = SimRng::new(7);
        let mut w1 = root.split("workload");
        let mut w2 = root.split("workload");
        let mut m = root.split("mobility");
        assert_eq!(w1.next_u64(), w2.next_u64(), "same label, same stream");
        // Overwhelmingly unlikely to collide if streams differ.
        assert_ne!(w1.next_u64(), m.next_u64());
        let mut i0 = root.split_index("portable", 0);
        let mut i1 = root.split_index("portable", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn serde_round_trip_resumes_mid_stream() {
        use serde::{Deserialize, Serialize};
        let mut a = SimRng::new(42);
        for _ in 0..13 {
            a.next_u64();
        }
        let v = a.to_value();
        let mut b = SimRng::from_value(&v).expect("round trip");
        assert_eq!(b.seed(), 42);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64(), "restored stream must resume");
        }
        let bad = serde::Value::Object(vec![
            ("seed".to_string(), 1u64.to_value()),
            ("state".to_string(), vec![1u64, 2].to_value()),
        ]);
        assert!(SimRng::from_value(&bad).is_err(), "short state rejected");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(1);
        let n = 200_000;
        let rate = 2.5;
        let mean: f64 = (0..n).map(|_| rng.exp(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn exp_duration_mean() {
        let mut rng = SimRng::new(2);
        let mean = SimDuration::from_secs(10);
        let n = 50_000;
        let avg: f64 = (0..n)
            .map(|_| rng.exp_duration(mean).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((avg - 10.0).abs() < 0.2, "avg={avg}");
    }

    #[test]
    fn binomial_moments() {
        let mut rng = SimRng::new(3);
        let (n_trials, n, p) = (100_000, 20u32, 0.3);
        let mean: f64 = (0..n_trials)
            .map(|_| f64::from(rng.binomial(n, p)))
            .sum::<f64>()
            / n_trials as f64;
        assert!((mean - 6.0).abs() < 0.05, "mean={mean}");
        assert_eq!(rng.binomial(10, 0.0), 0);
        assert_eq!(rng.binomial(10, 1.0), 10);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 100_000.0 - 0.25).abs() < 0.01);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::new(6);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_choice(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0, "zero weight never picked");
        let ratio = f64::from(counts[1]) / f64::from(counts[2]);
        assert!((ratio - 3.0).abs() < 0.2, "ratio={ratio}");
        assert_eq!(rng.weighted_choice(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_choice(&[]), None);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::new(9);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }
}
