//! The general dwell-and-move walker.
//!
//! Every specific model reduces to: a portable dwells in its current cell
//! for a random time, then moves to a neighbour chosen by some policy.
//! [`Walker`] packages that loop; the policy is a closure over the
//! environment, so office workers, corridor crossers and random wanderers
//! differ only in their `next` function and dwell distribution.

use arm_net::ids::{CellId, PortableId};
use arm_sim::{Audited, SimDuration, SimRng, SimTime};

use crate::environment::IndoorEnvironment;
use crate::trace::{MobilityTrace, MoveEvent};

/// A scripted walker emitting a consistent movement chain for one
/// portable.
pub struct Walker<'a> {
    env: &'a IndoorEnvironment,
    portable: PortableId,
    at: Option<CellId>,
    now: SimTime,
    trace: MobilityTrace,
}

impl<'a> Walker<'a> {
    /// A walker for `portable` starting at virtual time `start`.
    pub fn new(env: &'a IndoorEnvironment, portable: PortableId, start: SimTime) -> Self {
        Walker {
            env,
            portable,
            at: None,
            now: start,
            trace: MobilityTrace::new(),
        }
    }

    /// Where the walker currently is.
    pub fn position(&self) -> Option<CellId> {
        self.at
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Appear at `cell` (first event) or teleport-check move to it.
    pub fn appear(&mut self, cell: CellId) -> &mut Self {
        assert!(self.at.is_none(), "walker already placed");
        self.trace.push(MoveEvent {
            time: self.now,
            portable: self.portable,
            from: None,
            to: cell,
        });
        self.at = Some(cell);
        self
    }

    /// Wait in place.
    pub fn dwell(&mut self, d: SimDuration) -> &mut Self {
        self.now += d;
        self
    }

    /// Jump the clock to an absolute time (must not go backwards).
    pub fn at_time(&mut self, t: SimTime) -> &mut Self {
        assert!(t >= self.now, "walker time went backwards");
        self.now = t;
        self
    }

    /// Move to a neighbouring cell after `travel` time.
    pub fn step_to(&mut self, next: CellId, travel: SimDuration) -> &mut Self {
        let from = self.at.precondition("walker must appear before moving");
        assert!(
            self.env.are_neighbors(from, next),
            "{from:?} and {next:?} are not neighbours"
        );
        self.now += travel;
        self.trace.push(MoveEvent {
            time: self.now,
            portable: self.portable,
            from: Some(from),
            to: next,
        });
        self.at = Some(next);
        self
    }

    /// Walk along an explicit cell path with a travel time per hop.
    pub fn walk_path(&mut self, path: &[CellId], per_hop: SimDuration) -> &mut Self {
        for c in path {
            self.step_to(*c, per_hop);
        }
        self
    }

    /// Take `steps` random-neighbour steps with the given dwell mean and
    /// per-hop travel time.
    pub fn wander(
        &mut self,
        rng: &mut SimRng,
        steps: usize,
        mean_dwell: SimDuration,
        travel: SimDuration,
    ) -> &mut Self {
        for _ in 0..steps {
            let here = self.at.precondition("walker must appear before wandering");
            let neighbors: Vec<CellId> = self.env.neighbors(here).collect();
            if neighbors.is_empty() {
                break;
            }
            let next = neighbors[rng.index(neighbors.len())];
            self.dwell(rng.exp_duration(mean_dwell));
            self.step_to(next, travel);
        }
        self
    }

    /// Finish and return the trace.
    pub fn into_trace(self) -> MobilityTrace {
        self.trace.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Figure4;

    #[test]
    fn scripted_walk_is_consistent() {
        let f4 = Figure4::build();
        let mut w = Walker::new(&f4.env, PortableId(9), SimTime::from_secs(100));
        w.appear(f4.c)
            .dwell(SimDuration::from_secs(30))
            .step_to(f4.d, SimDuration::from_secs(20))
            .walk_path(&[f4.e, f4.b], SimDuration::from_secs(20));
        let t = w.into_trace();
        assert!(t.check_consistency().is_ok());
        assert_eq!(t.len(), 4);
        assert_eq!(t.count_transition(f4.c, f4.d), 1);
        assert_eq!(t.count_transition(f4.e, f4.b), 1);
    }

    #[test]
    #[should_panic(expected = "not neighbours")]
    fn illegal_step_panics() {
        let f4 = Figure4::build();
        let mut w = Walker::new(&f4.env, PortableId(9), SimTime::ZERO);
        w.appear(f4.a).step_to(f4.b, SimDuration::from_secs(10));
    }

    #[test]
    fn wander_stays_on_the_graph() {
        let f4 = Figure4::build();
        let mut rng = SimRng::new(11);
        let mut w = Walker::new(&f4.env, PortableId(9), SimTime::ZERO);
        w.appear(f4.c).wander(
            &mut rng,
            50,
            SimDuration::from_secs(60),
            SimDuration::from_secs(15),
        );
        let t = w.into_trace();
        assert!(t.check_consistency().is_ok());
        assert_eq!(t.len(), 51);
    }

    #[test]
    fn at_time_jumps_forward() {
        let f4 = Figure4::build();
        let mut w = Walker::new(&f4.env, PortableId(9), SimTime::ZERO);
        w.appear(f4.c)
            .at_time(SimTime::from_mins(10))
            .step_to(f4.d, SimDuration::from_secs(10));
        let t = w.into_trace();
        assert_eq!(
            t.events()[1].time,
            SimTime::from_mins(10) + SimDuration::from_secs(10)
        );
    }
}
