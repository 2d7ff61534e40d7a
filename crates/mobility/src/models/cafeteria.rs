//! The cafeteria pattern: a slow time-varying lunch ramp (§6.2.2).
//!
//! Arrival intensity rises linearly to a peak and falls back — the
//! "slow time-varying profile" whose next-slot handoff count the
//! cafeteria reservation algorithm predicts with a least-squares line.

use arm_net::ids::{CellId, PortableId};
use arm_profiles::{CellClass, LoungeKind};
use arm_sim::{SimDuration, SimRng, SimTime};

use crate::environment::IndoorEnvironment;
use crate::trace::MobilityTrace;

use super::markov::Walker;

/// The cafeteria scenario plan: corridor K next to cafeteria F.
#[derive(Clone, Debug)]
pub struct CafeteriaEnv {
    /// The floor plan.
    pub(crate) env: IndoorEnvironment,
    /// The corridor outside.
    pub(crate) k: CellId,
    /// The cafeteria.
    pub f: CellId,
}

impl CafeteriaEnv {
    /// Build the plan.
    pub fn build() -> Self {
        let mut env = IndoorEnvironment::new();
        let k = env.add_cell("K", CellClass::Corridor);
        let f = env.add_cell("F", CellClass::Lounge(LoungeKind::Cafeteria));
        env.connect(k, f);
        CafeteriaEnv { env, k, f }
    }
}

/// Ramp parameters.
#[derive(Clone, Copy, Debug)]
pub struct CafeteriaParams {
    /// When the ramp starts.
    pub open: SimTime,
    /// Time from open to peak intensity.
    pub ramp: SimDuration,
    /// Peak arrival rate (visitors per minute).
    pub peak_per_min: f64,
    /// Mean meal duration.
    pub mean_stay: SimDuration,
    /// Total span (open + ramp up + ramp down fits inside).
    pub span: SimDuration,
}

impl Default for CafeteriaParams {
    fn default() -> Self {
        CafeteriaParams {
            open: SimTime::from_mins(0),
            ramp: SimDuration::from_mins(45),
            peak_per_min: 4.0,
            mean_stay: SimDuration::from_mins(20),
            span: SimDuration::from_mins(120),
        }
    }
}

/// Triangular intensity (per minute) at time `t`.
pub(crate) fn intensity(params: &CafeteriaParams, t: SimTime) -> f64 {
    let dt = t.saturating_since(params.open).as_secs_f64();
    let ramp = params.ramp.as_secs_f64();
    if dt <= 0.0 || dt >= 2.0 * ramp {
        0.0
    } else if dt <= ramp {
        params.peak_per_min * dt / ramp
    } else {
        params.peak_per_min * (2.0 - dt / ramp)
    }
}

/// Generate the lunch trace by thinning a homogeneous Poisson stream at
/// the triangular intensity.
pub fn generate(cenv: &CafeteriaEnv, params: &CafeteriaParams, rng: &mut SimRng) -> MobilityTrace {
    let mut rng = rng.split("cafeteria");
    let mut trace = MobilityTrace::new();
    let mut t = SimTime::ZERO;
    let max_rate_sec = params.peak_per_min / 60.0;
    let mut k = 0u32;
    if max_rate_sec <= 0.0 {
        return trace;
    }
    loop {
        t += rng.exp_duration(SimDuration::from_secs_f64(1.0 / max_rate_sec));
        if t.since(SimTime::ZERO) >= params.span {
            break;
        }
        // Thinning.
        if !rng.chance(intensity(params, t) / params.peak_per_min) {
            continue;
        }
        let p = PortableId(20_000 + k);
        k += 1;
        let mut w = Walker::new(&cenv.env, p, t);
        w.appear(cenv.k)
            .step_to(cenv.f, SimDuration::from_secs(rng.int_range(10, 30)));
        w.dwell(rng.exp_duration(params.mean_stay));
        w.step_to(cenv.k, SimDuration::from_secs(rng.int_range(10, 30)));
        trace = trace.merge(w.into_trace());
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_is_triangular() {
        let p = CafeteriaParams::default();
        assert_eq!(intensity(&p, SimTime::from_mins(0)), 0.0);
        assert!((intensity(&p, SimTime::from_mins(45)) - 4.0).abs() < 1e-9);
        let half = intensity(&p, SimTime::from_mins(22)) / 4.0;
        assert!((half - 22.0 / 45.0).abs() < 1e-9);
        assert_eq!(intensity(&p, SimTime::from_mins(90)), 0.0);
        assert_eq!(intensity(&p, SimTime::from_mins(119)), 0.0);
    }

    #[test]
    fn activity_ramps_smoothly() {
        let cenv = CafeteriaEnv::build();
        let params = CafeteriaParams::default();
        let trace = generate(&cenv, &params, &mut SimRng::new(3));
        assert!(trace.check_consistency().is_ok());
        let arr = trace.arrivals_series(cenv.f, SimDuration::from_mins(10));
        let v = arr.values();
        assert!(!v.is_empty());
        // The peak slot should be near minute 45 (slot 4) and the first
        // slot should be clearly below the peak.
        let peak = arr.peak_slot().expect("some arrivals");
        assert!((2..=6).contains(&peak), "peak slot {peak}");
        let max = v.iter().copied().fold(0.0, f64::max);
        assert!(v[0] < max * 0.7, "ramp starts low: {v:?}");
    }

    #[test]
    fn everyone_who_eats_leaves() {
        let cenv = CafeteriaEnv::build();
        let params = CafeteriaParams {
            span: SimDuration::from_mins(90),
            ..Default::default()
        };
        let trace = generate(&cenv, &params, &mut SimRng::new(4));
        let ins = trace.events().iter().filter(|e| e.to == cenv.f).count();
        let outs = trace
            .events()
            .iter()
            .filter(|e| e.from == Some(cenv.f))
            .count();
        assert_eq!(ins, outs);
        assert!(ins > 20, "a default lunch crowd showed up: {ins}");
    }

    #[test]
    fn zero_rate_produces_empty_trace() {
        let cenv = CafeteriaEnv::build();
        let params = CafeteriaParams {
            peak_per_min: 0.0,
            ..Default::default()
        };
        let trace = generate(&cenv, &params, &mut SimRng::new(4));
        assert!(trace.is_empty());
    }
}
