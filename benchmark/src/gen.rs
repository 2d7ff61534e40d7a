//! The input generator: everything the program under test receives is
//! made here, before timing, from the seed alone.
//!
//! Every generated line carries the outcome the generator expects of
//! it — that is the correctness oracle of the stream workloads. Valid
//! scenario events must be accepted; injected hostile lines must be
//! rejected with one specific `IngestError::reason` slug.

use std::collections::BTreeSet;

use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_mobility::environment::{office_wing, IndoorEnvironment};
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_net::ids::{CellId, PortableId};
use arm_server::drill::events_from_scenario;
use arm_server::{ServerConfig, ServerEvent};
use arm_sim::{FaultSchedule, SimDuration, SimRng, SimTime};

/// What the generator expects the server to do with a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Accepted and applied.
    Accept,
    /// Rejected with this `IngestError::reason` slug.
    Reject(&'static str),
}

/// One input line and its expected outcome.
#[derive(Clone, Debug)]
pub struct Line {
    /// The bytes offered to the server (no trailing newline).
    pub text: String,
    /// The oracle's verdict.
    pub expect: Expect,
}

/// The kinds of hostile line the injector makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hostile {
    /// A valid line cut short: not JSON.
    Malformed,
    /// A timestamp before the server's high-water mark.
    OutOfOrder,
    /// An `Appear` in a cell the topology does not have.
    UnknownCell,
    /// An `Appear` of a portable that is already present.
    DuplicateAppear,
    /// A `Request` with `b_max < b_min`.
    InvertedRequest,
}

impl Hostile {
    /// Every kind, in the order the injector cycles through them.
    pub const ALL: [Hostile; 5] = [
        Hostile::Malformed,
        Hostile::OutOfOrder,
        Hostile::UnknownCell,
        Hostile::DuplicateAppear,
        Hostile::InvertedRequest,
    ];

    /// The rejection slug this kind must draw.
    pub fn slug(self) -> &'static str {
        match self {
            Hostile::Malformed => "malformed",
            Hostile::OutOfOrder => "out-of-order",
            Hostile::UnknownCell => "unknown-entity",
            Hostile::DuplicateAppear | Hostile::InvertedRequest => "invalid-parameter",
        }
    }
}

/// A cell id no generated topology reaches.
const NO_SUCH_CELL: CellId = CellId(60_000);
/// A portable id no generator uses.
const STRANGER: PortableId = PortableId(4_000_000_000);

fn jsonl(ev: &ServerEvent) -> String {
    ev.to_jsonl().expect("server events serialise")
}

/// Encode `events` as lines and, before each, with probability `share`,
/// insert one hostile line. Kinds cycle through [`Hostile::ALL`]; a
/// kind whose precondition does not hold yet (no time has passed, no
/// portable is present) falls back to [`Hostile::Malformed`].
pub fn inject_hostile(events: &[ServerEvent], share: f64, rng: &mut SimRng) -> Vec<Line> {
    let mut out = Vec::with_capacity(events.len() + (events.len() as f64 * share * 2.0) as usize);
    let mut present: BTreeSet<PortableId> = BTreeSet::new();
    let mut last_t = SimTime::ZERO;
    let mut next_kind = 0usize;
    for ev in events {
        let text = jsonl(ev);
        if rng.chance(share) {
            let kind = Hostile::ALL[next_kind % Hostile::ALL.len()];
            next_kind += 1;
            let someone = (!present.is_empty()).then(|| {
                *present
                    .iter()
                    .nth(rng.index(present.len()))
                    .expect("in range")
            });
            let hostile = match (kind, someone) {
                (Hostile::OutOfOrder, _) if last_t > SimTime::ZERO => {
                    Some(jsonl(&ServerEvent::Depart {
                        t: SimTime::from_ticks(last_t.ticks() - 1),
                        portable: STRANGER,
                    }))
                }
                (Hostile::UnknownCell, _) => Some(jsonl(&ServerEvent::Appear {
                    t: last_t,
                    portable: STRANGER,
                    cell: NO_SUCH_CELL,
                })),
                (Hostile::DuplicateAppear, Some(p)) => Some(jsonl(&ServerEvent::Appear {
                    t: last_t,
                    portable: p,
                    cell: CellId(0),
                })),
                (Hostile::InvertedRequest, Some(p)) => Some(jsonl(&ServerEvent::Request {
                    t: last_t,
                    portable: p,
                    b_min_kbps: 64.0,
                    b_max_kbps: 16.0,
                })),
                _ => None,
            };
            out.push(match hostile {
                Some(text) => Line {
                    text,
                    expect: Expect::Reject(kind.slug()),
                },
                None => Line {
                    // Any proper prefix of a JSON object is unbalanced.
                    text: text[..1 + rng.index(text.len() - 1)].to_string(),
                    expect: Expect::Reject(Hostile::Malformed.slug()),
                },
            });
        }
        match ev {
            ServerEvent::Appear { portable, .. } => {
                present.insert(*portable);
            }
            ServerEvent::Depart { portable, .. } => {
                present.remove(portable);
            }
            _ => {}
        }
        last_t = ev.time();
        out.push(Line {
            text,
            expect: Expect::Accept,
        });
    }
    out
}

/// Share of `office_week` lines that are hostile.
pub const HOSTILE_SHARE: f64 = 0.01;

/// `office_week`: the §7.1 workweek on Figure 4 exactly as shipped,
/// with a `hostile_share` of hostile lines mixed in.
pub fn office_week(seed: u64, hostile_share: f64) -> (ServerConfig, Vec<Line>) {
    let cfg = ServerConfig::office(seed);
    let events = events_from_scenario(&cfg.scenario, &FaultSchedule::empty())
        .expect("the shipped office scenario is valid");
    let mut rng = SimRng::new(seed).split("bench-hostile");
    let lines = inject_hostile(&events, hostile_share, &mut rng);
    (cfg, lines)
}

/// Offices in the `wing_rush` wing (2·n + 3 cells).
pub const WING_OFFICES: usize = 30;
/// Portables wandering it.
pub const WING_POPULATION: usize = 240;
/// Simulated minutes of wandering: long enough that blocking, dropping
/// and claim consumption all occur on every seed, short enough that a
/// 20 s run repeats the pass a dozen times.
pub const WING_SPAN_MINS: u64 = 40;

/// `wing_rush`: a crowded wing under the paper strategy, cells tight
/// enough (400 kbps) that admission blocks, handoffs drop and advance
/// claims are consumed. Journal on, periodic checkpoints off.
pub fn wing_rush(seed: u64) -> (ServerConfig, Vec<Line>) {
    let mut cfg = ServerConfig::office(seed);
    cfg.scenario = Scenario {
        name: "bench-wing-rush".into(),
        environment: EnvSpec::OfficeWing {
            offices: WING_OFFICES,
        },
        mobility: MobilitySpec::RandomWalk {
            population: WING_POPULATION,
            mean_dwell_secs: 120,
            span_mins: WING_SPAN_MINS,
        },
        workload: WorkloadSpec::Paper71,
        strategy: Strategy::Paper,
        cell_throughput_kbps: 400.0,
        ..cfg.scenario
    };
    cfg.checkpoint_every = 0;
    let events = events_from_scenario(&cfg.scenario, &FaultSchedule::empty())
        .expect("the wing scenario is valid");
    let lines = events
        .iter()
        .map(|ev| Line {
            text: jsonl(ev),
            expect: Expect::Accept,
        })
        .collect();
    (cfg, lines)
}

/// Offices in the `adapt_rush` wing (23 cells).
pub const ADAPT_OFFICES: usize = 10;
/// Portables, each holding one adaptive connection.
pub const ADAPT_POPULATION: usize = 1000;
/// A channel change follows every this-many trace events.
pub const ADAPT_FADE_EVERY: usize = 4;
/// Simulated minutes: everyone has appeared after ten, the rest is
/// steady state.
pub const ADAPT_SPAN_MINS: u64 = 30;

/// One call into the manager.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ManagerOp {
    /// `portable_appears` then `request_connection` (adaptive range).
    Appear {
        /// Event time.
        t: SimTime,
        /// Dense portable index (0-based).
        who: usize,
        /// Where.
        cell: CellId,
    },
    /// `portable_moved`.
    Move {
        /// Event time.
        t: SimTime,
        /// Dense portable index.
        who: usize,
        /// Destination.
        to: CellId,
    },
    /// `terminate` of the portable's connection.
    Depart {
        /// Event time.
        t: SimTime,
        /// Dense portable index.
        who: usize,
    },
    /// `channel_change`: a fade, or the recovery from one.
    Channel {
        /// Event time.
        t: SimTime,
        /// The cell whose medium changes.
        cell: CellId,
        /// Effective capacity fraction.
        fraction: f64,
    },
}

/// The `adapt_rush` input: the environment to build the manager over
/// and the calls to make.
pub struct AdaptInput {
    /// The wing.
    pub env: IndoorEnvironment,
    /// The portable behind each dense index.
    pub portables: Vec<PortableId>,
    /// The calls, in time order.
    pub ops: Vec<ManagerOp>,
}

/// `adapt_rush`: a thousand wanderers, each with an adaptive
/// connection, and a fade or recovery on a random cell after every
/// fourth movement — so that every event changes some link's excess
/// and starts an adaptation round.
pub fn adapt_rush(seed: u64) -> AdaptInput {
    let env = office_wing(ADAPT_OFFICES);
    let params = RandomWalkParams {
        population: ADAPT_POPULATION,
        mean_dwell: SimDuration::from_secs(120),
        span: SimDuration::from_mins(ADAPT_SPAN_MINS),
        ..Default::default()
    };
    let mut rng = SimRng::new(seed);
    let trace = random_walk::generate(&env, &params, &mut rng);
    let portables = trace.portables();
    let who = |p: PortableId| portables.binary_search(&p).expect("listed");
    let mut last = vec![SimTime::ZERO; portables.len()];
    for ev in trace.events() {
        last[who(ev.portable)] = ev.time;
    }
    let cells = env.cell_count();
    let mut faded = vec![false; cells];
    let mut fade_rng = SimRng::new(seed).split("bench-fades");
    let mut ops = Vec::with_capacity(trace.len() * 3 / 2);
    for (i, ev) in trace.events().iter().enumerate() {
        let w = who(ev.portable);
        ops.push(match ev.from {
            None => ManagerOp::Appear {
                t: ev.time,
                who: w,
                cell: ev.to,
            },
            Some(_) => ManagerOp::Move {
                t: ev.time,
                who: w,
                to: ev.to,
            },
        });
        if last[w] == ev.time {
            ops.push(ManagerOp::Depart { t: ev.time, who: w });
        }
        if (i + 1) % ADAPT_FADE_EVERY == 0 {
            let c = fade_rng.index(cells);
            faded[c] = !faded[c];
            ops.push(ManagerOp::Channel {
                t: ev.time,
                cell: CellId::from_index(c),
                fraction: if faded[c] {
                    fade_rng.uniform(0.4, 0.8)
                } else {
                    1.0
                },
            });
        }
    }
    AdaptInput {
        env,
        portables,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_server::ingest::parse_event;

    fn toy_events() -> Vec<ServerEvent> {
        let mut evs = Vec::new();
        for i in 0..400u32 {
            let t = SimTime::from_secs(10 + u64::from(i));
            evs.push(match i % 4 {
                0 => ServerEvent::Appear {
                    t,
                    portable: PortableId(i),
                    cell: CellId(1),
                },
                1 | 2 => ServerEvent::Move {
                    t,
                    portable: PortableId(i - i % 4),
                    to: CellId(2),
                },
                _ => ServerEvent::Depart {
                    t,
                    portable: PortableId(i - 3),
                },
            });
        }
        evs
    }

    #[test]
    fn injector_keeps_every_valid_line_in_order() {
        let evs = toy_events();
        let mut rng = SimRng::new(7);
        let lines = inject_hostile(&evs, 0.2, &mut rng);
        let valid: Vec<&Line> = lines
            .iter()
            .filter(|l| l.expect == Expect::Accept)
            .collect();
        assert_eq!(valid.len(), evs.len());
        for (l, ev) in valid.iter().zip(&evs) {
            assert_eq!(&parse_event(&l.text).expect("valid line parses"), ev);
        }
        let hostile = lines.len() - evs.len();
        assert!((40..=130).contains(&hostile), "about a fifth: {hostile}");
    }

    #[test]
    fn injector_covers_every_kind_and_is_seeded() {
        let evs = toy_events();
        let lines = inject_hostile(&evs, 0.2, &mut SimRng::new(7));
        for kind in Hostile::ALL {
            assert!(
                lines
                    .iter()
                    .any(|l| l.expect == Expect::Reject(kind.slug())),
                "{kind:?} missing"
            );
        }
        let again = inject_hostile(&evs, 0.2, &mut SimRng::new(7));
        let texts = |ls: &[Line]| ls.iter().map(|l| l.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&lines), texts(&again), "same seed, same lines");
        let other = inject_hostile(&evs, 0.2, &mut SimRng::new(8));
        assert_ne!(texts(&lines), texts(&other), "another seed, other lines");
    }

    #[test]
    fn malformed_lines_do_not_parse_and_typed_ones_do() {
        let evs = toy_events();
        let lines = inject_hostile(&evs, 0.3, &mut SimRng::new(11));
        for l in &lines {
            match l.expect {
                Expect::Reject("malformed") => {
                    assert!(parse_event(&l.text).is_err(), "{}", l.text);
                }
                _ => assert!(parse_event(&l.text).is_ok(), "{}", l.text),
            }
        }
    }

    #[test]
    fn share_zero_injects_nothing() {
        let evs = toy_events();
        let lines = inject_hostile(&evs, 0.0, &mut SimRng::new(1));
        assert_eq!(lines.len(), evs.len());
    }

    #[test]
    fn adapt_rush_fades_after_every_fourth_movement() {
        let input = adapt_rush(3);
        let moves = input
            .ops
            .iter()
            .filter(|o| matches!(o, ManagerOp::Appear { .. } | ManagerOp::Move { .. }))
            .count();
        let fades = input
            .ops
            .iter()
            .filter(|o| matches!(o, ManagerOp::Channel { .. }))
            .count();
        assert_eq!(fades, moves / ADAPT_FADE_EVERY);
        let departs = input
            .ops
            .iter()
            .filter(|o| matches!(o, ManagerOp::Depart { .. }))
            .count();
        assert_eq!(departs, ADAPT_POPULATION);
        assert!(input
            .ops
            .windows(2)
            .all(|w| time_of(&w[0]) <= time_of(&w[1])));
    }

    fn time_of(op: &ManagerOp) -> SimTime {
        match op {
            ManagerOp::Appear { t, .. }
            | ManagerOp::Move { t, .. }
            | ManagerOp::Depart { t, .. }
            | ManagerOp::Channel { t, .. } => *t,
        }
    }
}
