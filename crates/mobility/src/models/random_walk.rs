//! The default-lounge pattern: memoryless random movement (§6.2.3).
//!
//! A population of portables wanders the environment: exponential dwell
//! in each cell, uniformly random neighbour next. This produces the
//! "random time-varying profile" of the default lounge and doubles as a
//! stress generator for the prediction algorithms (nothing here is
//! predictable beyond the one-step-memory baseline).

use arm_net::ids::{CellId, PortableId};
use arm_sim::{Audited, SimDuration, SimRng, SimTime};

use crate::environment::IndoorEnvironment;
use crate::trace::MobilityTrace;

use super::markov::Walker;

/// Random-walk parameters.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalkParams {
    /// Number of wandering portables.
    pub population: usize,
    /// Mean dwell time per cell.
    pub mean_dwell: SimDuration,
    /// Per-hop travel time.
    pub travel: SimDuration,
    /// Total span to cover.
    pub span: SimDuration,
}

impl Default for RandomWalkParams {
    fn default() -> Self {
        RandomWalkParams {
            population: 20,
            mean_dwell: SimDuration::from_mins(10),
            travel: SimDuration::from_secs(20),
            span: SimDuration::from_mins(120),
        }
    }
}

/// First portable id used by this generator.
pub(crate) const WANDERER_BASE: u32 = 30_000;

/// Generate the wander trace: each portable appears at a random cell at
/// a random offset and walks until the span ends.
pub fn generate(
    env: &IndoorEnvironment,
    params: &RandomWalkParams,
    rng: &mut SimRng,
) -> MobilityTrace {
    let rng = rng.split("random-walk");
    let mut trace = MobilityTrace::new();
    let cells: Vec<CellId> = env.cells().map(|(id, _)| id).collect();
    if cells.is_empty() {
        return trace;
    }
    for i in 0..params.population {
        let p = PortableId(WANDERER_BASE + i as u32);
        let mut prng = rng.split_index("wanderer", i as u64);
        let start =
            SimTime::ZERO + SimDuration::from_secs_f64(prng.unit() * 60.0 * prng.unit() * 10.0);
        let mut w = Walker::new(env, p, start);
        w.appear(cells[prng.index(cells.len())]);
        let end = SimTime::ZERO + params.span;
        while w.now() < end {
            let here = w.position().invariant("appeared");
            let neighbors: Vec<CellId> = env.neighbors(here).collect();
            if neighbors.is_empty() {
                break;
            }
            let next = neighbors[prng.index(neighbors.len())];
            w.dwell(prng.exp_duration(params.mean_dwell));
            if w.now() >= end {
                break;
            }
            w.step_to(next, params.travel);
        }
        trace = trace.merge(w.into_trace());
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{office_wing, Figure4};

    #[test]
    fn wanderers_cover_the_graph() {
        let env = office_wing(4);
        let params = RandomWalkParams {
            population: 10,
            mean_dwell: SimDuration::from_mins(2),
            ..Default::default()
        };
        let trace = generate(&env, &params, &mut SimRng::new(6));
        assert!(trace.check_consistency().is_ok());
        // Every wanderer produced events; movement is nontrivial.
        assert_eq!(trace.portables().len(), 10);
        assert!(trace.len() > 100, "trace too small: {}", trace.len());
        // Visits are spread over many cells.
        let mut visited: Vec<CellId> = trace.events().iter().map(|e| e.to).collect();
        visited.sort_unstable();
        visited.dedup();
        assert!(visited.len() >= env.cell_count() / 2);
    }

    #[test]
    fn events_respect_the_span() {
        let f4 = Figure4::build();
        let params = RandomWalkParams {
            population: 5,
            mean_dwell: SimDuration::from_mins(1),
            span: SimDuration::from_mins(30),
            ..Default::default()
        };
        let trace = generate(&f4.env, &params, &mut SimRng::new(2));
        let end = SimTime::ZERO + params.span + params.travel;
        assert!(trace.events().iter().all(|e| e.time <= end));
    }

    #[test]
    fn deterministic_per_seed() {
        let f4 = Figure4::build();
        let params = RandomWalkParams::default();
        let a = generate(&f4.env, &params, &mut SimRng::new(10));
        let b = generate(&f4.env, &params, &mut SimRng::new(10));
        assert_eq!(a.events(), b.events());
    }
}
