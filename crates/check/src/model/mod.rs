//! Bounded model checking of the paper's two control protocols.
//!
//! The distributed maxmin ADVERTISE/UPDATE protocol (§5.3.1, Theorem 1)
//! and the Table 2 round-trip admission test are re-stated here as
//! explicit `enum`-typed transition systems ([`maxmin`], [`admission`])
//! and exhaustively explored over *all interleavings* on small
//! topologies (≤3 links, ≤4 connections, bounded control-plane loss).
//! Dynamic tests sample schedules; the checker enumerates them, so a
//! race that a chaos seed would need luck to hit is found (or proven
//! absent) at PR time. Failures come back as minimal counterexample
//! traces ([`Counterexample`]), replayable by reading the step labels.
//!
//! [`engine`] walks the production maxmin engine the same way: every op
//! sequence on small topologies against a from-scratch solve.
//!
//! The models carry *mutant hooks* ([`maxmin::MaxminMutant`],
//! [`admission::AdmissionMutant`], [`engine::EngineMutant`]): known-bad
//! variants of the handlers that the checker must catch. They exist to
//! test the checker itself — a verifier that cannot fail its seeded
//! mutants proves nothing.

pub mod admission;
pub mod engine;
pub mod maxmin;
pub mod sweep;

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use serde::Serialize;

/// A fast non-cryptographic hasher (FxHash-style multiply-rotate) for
/// the visited set. Protocol states are trusted input; SipHash's DoS
/// resistance would only cost time on these `Vec`-heavy keys.
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// An explicit-state transition system the checker can explore.
///
/// Implementations fold deterministic protocol steps (phase advances,
/// FIFO activations) into action application, so `successors` yields
/// only genuine nondeterminism: event interleavings and fault choices.
pub trait TransitionSystem {
    /// Explicit state; `Hash + Eq` keys the visited set (`Ord` keeps
    /// successor generation order-insensitive for deterministic runs).
    type State: Clone + Ord + Hash + fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Every enabled action as `(label, successor)`. An empty vector
    /// means the state is quiescent.
    fn successors(&self, s: &Self::State) -> Vec<(String, Self::State)>;

    /// Safety property checked on every reached state.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// Property checked on quiescent states only (convergence /
    /// conservation at fixed point).
    fn on_quiescent(&self, s: &Self::State) -> Result<(), String>;
}

/// Exploration statistics for a verified run.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Stats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (including ones into already-visited states).
    pub transitions: usize,
    /// Quiescent (deadlock-free terminal) states reached.
    pub quiescent: usize,
    /// Longest action sequence explored.
    pub depth: usize,
}

/// A minimal (BFS-shortest) trace to a property violation.
#[derive(Clone, Debug, Serialize)]
#[must_use]
pub struct Counterexample {
    /// Which model produced it.
    pub model: String,
    /// The violated property.
    pub property: String,
    /// Action labels from the initial state to the bad state.
    pub steps: Vec<String>,
    /// Debug dump of the violating state.
    pub state: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample [{}]: {}", self.model, self.property)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>3}. {s}", i + 1)?;
        }
        write!(f, "  => {}", self.state)
    }
}

/// Breadth-first exhaustive exploration with a state budget.
pub struct Checker {
    /// Abort (as a violation) beyond this many distinct states — the
    /// *bounded* in bounded model checking, and the livelock detector.
    pub max_states: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            max_states: 2_000_000,
        }
    }
}

impl Checker {
    /// Explore `sys` exhaustively. Returns statistics if every reached
    /// state satisfies the invariant and every quiescent state the
    /// convergence property; otherwise the shortest counterexample.
    pub fn run<T: TransitionSystem>(&self, name: &str, sys: &T) -> Result<Stats, Counterexample> {
        let mut stats = Stats::default();
        // Parallel arrays: state + (parent index, action label).
        let mut arena: Vec<(T::State, usize, String)> = Vec::new();
        let mut index: HashMap<T::State, usize, BuildHasherDefault<FxHasher>> = HashMap::default();
        let mut depth_of: Vec<usize> = Vec::new();

        let init = sys.initial();
        arena.push((init.clone(), usize::MAX, String::new()));
        index.insert(init, 0);
        depth_of.push(0);

        let trace = |arena: &Vec<(T::State, usize, String)>, mut at: usize| -> Vec<String> {
            let mut steps = Vec::new();
            while at != 0 {
                let (_, parent, label) = &arena[at];
                steps.push(label.clone());
                at = *parent;
            }
            steps.reverse();
            steps
        };

        let mut cursor = 0usize;
        while cursor < arena.len() {
            let state = arena[cursor].0.clone();
            let d = depth_of[cursor];
            stats.states += 1;
            stats.depth = stats.depth.max(d);
            if let Err(property) = sys.invariant(&state) {
                return Err(Counterexample {
                    model: name.to_string(),
                    property,
                    steps: trace(&arena, cursor),
                    state: format!("{state:?}"),
                });
            }
            let succs = sys.successors(&state);
            if succs.is_empty() {
                stats.quiescent += 1;
                if let Err(property) = sys.on_quiescent(&state) {
                    return Err(Counterexample {
                        model: name.to_string(),
                        property,
                        steps: trace(&arena, cursor),
                        state: format!("{state:?}"),
                    });
                }
            }
            for (label, next) in succs {
                stats.transitions += 1;
                if !index.contains_key(&next) {
                    if arena.len() >= self.max_states {
                        return Err(Counterexample {
                            model: name.to_string(),
                            property: format!(
                                "state-space budget of {} exceeded — livelock \
                                 or unbounded protocol divergence",
                                self.max_states
                            ),
                            steps: trace(&arena, cursor),
                            state: format!("{state:?}"),
                        });
                    }
                    index.insert(next.clone(), arena.len());
                    arena.push((next, cursor, label));
                    depth_of.push(d + 1);
                }
            }
            cursor += 1;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy counter system: increments up to `top`, invariant `< bad`.
    struct Count {
        top: u32,
        bad: u32,
    }

    impl TransitionSystem for Count {
        type State = u32;
        fn initial(&self) -> u32 {
            0
        }
        fn successors(&self, s: &u32) -> Vec<(String, u32)> {
            if *s < self.top {
                vec![(format!("inc->{}", s + 1), s + 1)]
            } else {
                Vec::new()
            }
        }
        fn invariant(&self, s: &u32) -> Result<(), String> {
            if *s >= self.bad {
                Err(format!("counter reached {s}"))
            } else {
                Ok(())
            }
        }
        fn on_quiescent(&self, s: &u32) -> Result<(), String> {
            if *s == self.top {
                Ok(())
            } else {
                Err("stopped early".to_string())
            }
        }
    }

    #[test]
    fn verifies_safe_system() {
        let stats = Checker::default()
            .run("count", &Count { top: 5, bad: 100 })
            .expect("safe");
        assert_eq!(stats.states, 6);
        assert_eq!(stats.quiescent, 1);
        assert_eq!(stats.depth, 5);
    }

    #[test]
    fn shortest_trace_to_violation() {
        let cx = Checker::default()
            .run("count", &Count { top: 10, bad: 3 })
            .expect_err("must violate");
        assert_eq!(cx.steps, vec!["inc->1", "inc->2", "inc->3"]);
        assert!(cx.property.contains("counter reached 3"));
    }

    #[test]
    fn state_budget_reports_divergence() {
        let cx = Checker { max_states: 4 }
            .run(
                "count",
                &Count {
                    top: 1000,
                    bad: 2000,
                },
            )
            .expect_err("budget");
        assert!(cx.property.contains("budget"), "{}", cx.property);
    }
}
