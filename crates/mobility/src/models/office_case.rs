//! The §7.1 office-case workweek.
//!
//! The paper tracked, over one workweek, every C→D corridor traversal in
//! the Figure 4 environment and where it led:
//!
//! | population | C→D traversals | → A | → B | → F/G |
//! |---|---|---|---|---|
//! | faculty member | 127 | 94 | 20 | 13 |
//! | three students | 218 | 12 | 173 | 33 |
//! | everyone (incl. above) | 1384 | 127+12+39 | 20+173+17 | rest |
//!
//! (39 handoffs into A and 17 into B came from users other than the five
//! tracked ones.)
//!
//! This generator reproduces those counts **exactly** — destinations are
//! dealt from a shuffled deck rather than sampled independently — so the
//! §7.1 experiment prints the same table the paper does, while arrival
//! times, dwell times and return trips are randomised.

use arm_net::ids::PortableId;
use arm_sim::{SimDuration, SimRng, SimTime};

use crate::environment::Figure4;
use crate::trace::MobilityTrace;

use super::markov::Walker;

/// Where a C→D traversal ends up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Destination {
    OfficeA,
    OfficeB,
    FarCorridor,
}

/// Counts for one population's traversals.
#[derive(Clone, Copy, Debug)]
pub struct FanOut {
    /// Traversals ending in office A.
    pub to_a: usize,
    /// Traversals ending in office B.
    pub to_b: usize,
    /// Traversals continuing to F or G.
    pub to_fg: usize,
}

impl FanOut {
    /// Total traversals.
    pub(crate) fn total(&self) -> usize {
        self.to_a + self.to_b + self.to_fg
    }
}

/// Parameters of the workweek generator; defaults are the paper's counts.
#[derive(Clone, Copy, Debug)]
pub struct OfficeCaseParams {
    /// The faculty member's traversals (paper: 94/20/13 = 127).
    pub faculty: FanOut,
    /// The three students' combined traversals (paper: 12/173/33 = 218).
    pub students: FanOut,
    /// Everyone else's traversals (paper: 1384 total C→D, of which
    /// 39 → A and 17 → B from non-tracked users; the rest walk on).
    pub others: FanOut,
    /// Size of the anonymous crowd.
    pub n_others: usize,
    /// Length of the observed period (paper: one workweek; we model
    /// 5 × 8 working hours).
    pub week: SimDuration,
}

impl Default for OfficeCaseParams {
    fn default() -> Self {
        OfficeCaseParams {
            faculty: FanOut {
                to_a: 94,
                to_b: 20,
                to_fg: 13,
            },
            students: FanOut {
                to_a: 12,
                to_b: 173,
                to_fg: 33,
            },
            others: FanOut {
                to_a: 39,
                to_b: 17,
                to_fg: 1384 - 127 - 218 - 39 - 17,
            },
            n_others: 40,
            week: SimDuration::from_secs(5 * 8 * 3600),
        }
    }
}

/// Generate the workweek trace on the Figure 4 environment.
pub fn generate(f4: &Figure4, params: &OfficeCaseParams, rng: &mut SimRng) -> MobilityTrace {
    let rng = rng.split("office-case");
    let mut trace = MobilityTrace::new();

    // Faculty.
    trace = trace.merge(person_trace(
        f4,
        f4.faculty,
        &deal(&params.faculty, &mut rng.split("faculty-deck")),
        params.week,
        &mut rng.split("faculty"),
    ));
    // Students: split their combined deck round-robin across the three.
    let student_deck = deal(&params.students, &mut rng.split("student-deck"));
    let mut per_student: Vec<Vec<Destination>> = vec![Vec::new(); f4.students.len()];
    for (i, d) in student_deck.into_iter().enumerate() {
        per_student[i % f4.students.len()].push(d);
    }
    for (s, deck) in f4.students.iter().zip(per_student) {
        trace = trace.merge(person_trace(
            f4,
            *s,
            &deck,
            params.week,
            &mut rng.split_index("student", s.0 as u64),
        ));
    }
    // The crowd.
    let other_deck = deal(&params.others, &mut rng.split("other-deck"));
    let mut per_other: Vec<Vec<Destination>> = vec![Vec::new(); params.n_others];
    for (i, d) in other_deck.into_iter().enumerate() {
        per_other[i % params.n_others].push(d);
    }
    for (k, deck) in per_other.into_iter().enumerate() {
        let p = PortableId(100 + k as u32);
        trace = trace.merge(person_trace(
            f4,
            p,
            &deck,
            params.week,
            &mut rng.split_index("other", k as u64),
        ));
    }
    trace
}

/// Deal a shuffled destination deck matching the fan-out exactly.
fn deal(f: &FanOut, rng: &mut SimRng) -> Vec<Destination> {
    let mut deck = Vec::with_capacity(f.total());
    deck.extend(std::iter::repeat(Destination::OfficeA).take(f.to_a));
    deck.extend(std::iter::repeat(Destination::OfficeB).take(f.to_b));
    deck.extend(std::iter::repeat(Destination::FarCorridor).take(f.to_fg));
    rng.shuffle(&mut deck);
    deck
}

/// One person's week: `deck.len()` journeys, each a C→D traversal ending
/// at the dealt destination, followed by a return to C.
fn person_trace(
    f4: &Figure4,
    portable: PortableId,
    deck: &[Destination],
    week: SimDuration,
    rng: &mut SimRng,
) -> MobilityTrace {
    if deck.is_empty() {
        return MobilityTrace::new();
    }
    let slot = week / deck.len() as u64;
    let mut w = Walker::new(&f4.env, portable, SimTime::ZERO);
    w.appear(f4.c);
    let hop = |rng: &mut SimRng| SimDuration::from_secs(rng.int_range(15, 45));
    for (i, dest) in deck.iter().enumerate() {
        // Journey start: jittered within its slot; the walker clock may
        // already be past the nominal start, in which case we go at once.
        let nominal = SimTime::ZERO + slot * i as u64 + slot / 4;
        if nominal > w.now() {
            w.at_time(nominal);
        }
        let t = hop(rng);
        w.step_to(f4.d, t);
        // A short office visit or a walk down the corridor, then return.
        let visit = SimDuration::from_secs(rng.int_range(120, 420));
        match dest {
            Destination::OfficeA => {
                w.step_to(f4.a, hop(rng))
                    .dwell(visit)
                    .step_to(f4.d, hop(rng));
            }
            Destination::OfficeB => {
                w.step_to(f4.e, hop(rng))
                    .step_to(f4.b, hop(rng))
                    .dwell(visit)
                    .step_to(f4.e, hop(rng))
                    .step_to(f4.d, hop(rng));
            }
            Destination::FarCorridor => {
                w.step_to(f4.e, hop(rng)).step_to(f4.f, hop(rng));
                if rng.chance(0.5) {
                    w.step_to(f4.g, hop(rng))
                        .dwell(visit)
                        .step_to(f4.f, hop(rng));
                } else {
                    w.dwell(visit);
                }
                w.step_to(f4.e, hop(rng)).step_to(f4.d, hop(rng));
            }
        }
        w.step_to(f4.c, hop(rng));
    }
    w.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_counts_exactly() {
        let f4 = Figure4::build();
        let params = OfficeCaseParams::default();
        let mut rng = SimRng::new(42);
        let trace = generate(&f4, &params, &mut rng);
        assert!(trace.check_consistency().is_ok());

        // Faculty: 127 C→D, fan-out 94 / 20 / 13.
        assert_eq!(trace.count_transition_of(f4.faculty, f4.c, f4.d), 127);
        assert_eq!(trace.count_transition_of(f4.faculty, f4.d, f4.a), 94);
        assert_eq!(trace.count_transition_of(f4.faculty, f4.e, f4.b), 20);

        // Students combined: 218 C→D, 12 → A, 173 → B.
        let s_cd: usize = f4
            .students
            .iter()
            .map(|s| trace.count_transition_of(*s, f4.c, f4.d))
            .sum();
        let s_a: usize = f4
            .students
            .iter()
            .map(|s| trace.count_transition_of(*s, f4.d, f4.a))
            .sum();
        let s_b: usize = f4
            .students
            .iter()
            .map(|s| trace.count_transition_of(*s, f4.e, f4.b))
            .sum();
        assert_eq!(s_cd, 218);
        assert_eq!(s_a, 12);
        assert_eq!(s_b, 173);

        // Whole population: 1384 C→D; 39 into A and 17 into B from the
        // crowd.
        assert_eq!(trace.count_transition(f4.c, f4.d), 1384);
        let crowd_a = trace.count_transition(f4.d, f4.a) - 94 - 12;
        let crowd_b = trace.count_transition(f4.e, f4.b) - 20 - 173;
        assert_eq!(crowd_a, 39);
        assert_eq!(crowd_b, 17);
    }

    #[test]
    fn deterministic_given_seed() {
        let f4 = Figure4::build();
        let params = OfficeCaseParams::default();
        let t1 = generate(&f4, &params, &mut SimRng::new(7));
        let t2 = generate(&f4, &params, &mut SimRng::new(7));
        assert_eq!(t1.events(), t2.events());
        let t3 = generate(&f4, &params, &mut SimRng::new(8));
        assert_ne!(t1.events(), t3.events());
    }

    #[test]
    fn scaled_down_params_work() {
        let f4 = Figure4::build();
        let params = OfficeCaseParams {
            faculty: FanOut {
                to_a: 5,
                to_b: 1,
                to_fg: 1,
            },
            students: FanOut {
                to_a: 1,
                to_b: 9,
                to_fg: 2,
            },
            others: FanOut {
                to_a: 2,
                to_b: 1,
                to_fg: 20,
            },
            n_others: 5,
            week: SimDuration::from_secs(8 * 3600),
        };
        let trace = generate(&f4, &params, &mut SimRng::new(1));
        assert!(trace.check_consistency().is_ok());
        assert_eq!(trace.count_transition(f4.c, f4.d), 7 + 12 + 23);
    }
}
