//! Declarative scenarios: a JSON-serialisable description of an
//! environment, a mobility pattern, a workload, and a manager
//! configuration, plus [`build_manager`], which turns one into a
//! validated manager and its mobility trace.
//!
//! This is the downstream-user entry point: describe an experiment in a
//! file, run it with `cargo run -p arm-bench --bin run_scenario -- my.json`,
//! get the paper's metrics back. Every example and experiment in this
//! repository can be expressed as a [`Scenario`]; `arm_server::drill`
//! replays one through the server's event loop. Figure 5
//! (`arm_bench::fig5`) is the meeting scenario under
//! [`WorkloadSpec::None`], its connections requested by `Request` events
//! of its own.

use serde::{Deserialize, Serialize};

use arm_mobility::environment::{office_wing, Figure4, IndoorEnvironment};
use arm_mobility::models::meeting::{self, MeetingEnv, MeetingParams};
use arm_mobility::models::office_case::{self, OfficeCaseParams};
use arm_mobility::models::random_walk::{self, RandomWalkParams};
use arm_mobility::MobilityTrace;
use arm_sim::{SimDuration, SimRng};

use crate::error::ControlError;
use crate::manager::{ManagerConfig, ResourceManager};
use crate::strategy::Strategy;

/// Which floor plan to build.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub enum EnvSpec {
    /// The paper's Figure 4 plan (offices A/B, corridors C–G).
    Figure4,
    /// A parametric office wing with `offices` offices plus a meeting
    /// room, cafeteria and default lounge.
    OfficeWing {
        /// Number of offices (and corridor segments).
        offices: usize,
    },
    /// The Figure 5 meeting scenario plan (corridor W–X–Y, classroom M).
    Meeting,
}

/// Which mobility generator to run.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub enum MobilitySpec {
    /// Memoryless wandering.
    RandomWalk {
        /// Wanderer count.
        population: usize,
        /// Mean per-cell dwell, seconds.
        mean_dwell_secs: u64,
        /// Simulated span, minutes.
        span_mins: u64,
    },
    /// The §7.1 workweek on Figure 4 (requires `EnvSpec::Figure4`).
    OfficeCase,
    /// The Figure 5 meeting (requires `EnvSpec::Meeting`).
    Meeting {
        /// Attendance.
        attendees: usize,
    },
}

/// Which per-user workload to attach.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub enum WorkloadSpec {
    /// The §7.1 mix: 16 kbps (75%) / 64 kbps (25%), one per user.
    Paper71,
    /// One fixed-rate connection per user.
    Fixed {
        /// Rate in kbps.
        kbps: f64,
    },
    /// No connections from the scenario (mobility/prediction only, or a
    /// stream that carries its own `Request` events).
    None,
}

/// A complete experiment description.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// Report label.
    pub name: String,
    /// Floor plan.
    pub environment: EnvSpec,
    /// Movement pattern.
    pub mobility: MobilitySpec,
    /// Per-user connections.
    pub workload: WorkloadSpec,
    /// Advance-reservation strategy under test.
    pub strategy: Strategy,
    /// Shared-medium capacity per cell (kbps).
    pub cell_throughput_kbps: f64,
    /// Wired backbone capacity (kbps).
    pub backbone_kbps: f64,
    /// Wireless per-hop packet error probability.
    pub wireless_error: f64,
    /// Static/mobile threshold `T_th` (seconds).
    pub t_th_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Scenario {
    /// A ready-to-edit sample (the Figure 5 lecture; `arm_bench::fig5`
    /// builds every Figure 5 run on it).
    pub fn sample() -> Self {
        Scenario {
            name: "lecture-of-35".into(),
            environment: EnvSpec::Meeting,
            mobility: MobilitySpec::Meeting { attendees: 35 },
            workload: WorkloadSpec::Paper71,
            strategy: Strategy::Paper,
            cell_throughput_kbps: 1600.0,
            backbone_kbps: 100_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed: 42,
        }
    }
}

/// Build the manager (with its environment, network, and calendar) and
/// the mobility trace a scenario describes.
///
/// `arm-server` builds every server this way and then feeds it events
/// from elsewhere — the returned trace is the scenario's *suggested*
/// workload and may be ignored or converted to a server event stream
/// (`arm_server::drill::events_from_scenario`).
pub fn build_manager(sc: &Scenario) -> Result<(ResourceManager, MobilityTrace), ControlError> {
    let (env, trace) = build_env_and_trace(sc)?;
    let net = env.build_network(sc.cell_throughput_kbps, sc.wireless_error, sc.backbone_kbps);
    let cfg = ManagerConfig {
        strategy: sc.strategy,
        t_th: SimDuration::from_secs(sc.t_th_secs),
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(env, net, cfg);
    // Meeting scenarios get the booking calendar.
    if let (EnvSpec::Meeting, MobilitySpec::Meeting { attendees }) = (&sc.environment, &sc.mobility)
    {
        let params = MeetingParams {
            attendees: *attendees,
            ..Default::default()
        };
        let mut cal = arm_reservation::meeting::BookingCalendar::new();
        cal.book(arm_reservation::meeting::Meeting {
            t_start: params.t_start,
            t_end: params.t_start + params.duration,
            expected: *attendees as u32,
        });
        // The classroom is cell "M".
        let menv = MeetingEnv::build();
        mgr.set_calendar(menv.m, cal);
    }
    Ok((mgr, trace))
}

fn build_env_and_trace(sc: &Scenario) -> Result<(IndoorEnvironment, MobilityTrace), ControlError> {
    validate(sc)?;
    let mut rng = SimRng::new(sc.seed);
    match (&sc.environment, &sc.mobility) {
        (EnvSpec::Figure4, MobilitySpec::OfficeCase) => {
            let f4 = Figure4::build();
            let trace = office_case::generate(&f4, &OfficeCaseParams::default(), &mut rng);
            Ok((f4.env, trace))
        }
        (EnvSpec::Meeting, MobilitySpec::Meeting { attendees }) => {
            let menv = MeetingEnv::build();
            let params = MeetingParams {
                attendees: *attendees,
                ..Default::default()
            };
            let trace = meeting::generate(&menv, &params, &mut rng);
            Ok((menv.env, trace))
        }
        (
            env_spec,
            MobilitySpec::RandomWalk {
                population,
                mean_dwell_secs,
                span_mins,
            },
        ) => {
            let env = match env_spec {
                EnvSpec::Figure4 => Figure4::build().env,
                EnvSpec::OfficeWing { offices } => office_wing(*offices),
                EnvSpec::Meeting => MeetingEnv::build().env,
            };
            let params = RandomWalkParams {
                population: *population,
                mean_dwell: SimDuration::from_secs(*mean_dwell_secs),
                span: SimDuration::from_mins(*span_mins),
                ..Default::default()
            };
            let trace = random_walk::generate(&env, &params, &mut rng);
            Ok((env, trace))
        }
        (e, m) => Err(ControlError::IncompatibleScenario {
            environment: format!("{e:?}"),
            combined_with: format!("{m:?}"),
        }),
    }
}

/// Reject parameter values that would otherwise trip asserts deep in the
/// samplers (a zero mean dwell reaches `SimRng::exp_duration`'s positive
/// precondition) or build a nonsensical network. Scenarios arrive from
/// JSON files, so these are recoverable errors, not panics.
fn validate(sc: &Scenario) -> Result<(), ControlError> {
    let bad = |what, value| Err(ControlError::BadParameter { what, value });
    let positive = [
        ("cell_throughput_kbps", sc.cell_throughput_kbps),
        ("backbone_kbps", sc.backbone_kbps),
    ];
    for (what, value) in positive {
        // Not `value <= 0.0` alone: a NaN capacity is rejected too.
        if !(value.is_finite() && value > 0.0) {
            return bad(what, value);
        }
    }
    if !(0.0..1.0).contains(&sc.wireless_error) {
        return bad("wireless_error", sc.wireless_error);
    }
    if let MobilitySpec::RandomWalk {
        mean_dwell_secs: 0, ..
    } = sc.mobility
    {
        return bad("mean_dwell_secs", 0.0);
    }
    if let WorkloadSpec::Fixed { kbps } = sc.workload {
        // Defense in depth: the exact request this workload will issue
        // must pass flowspec validation too (NaN/negative/inverted
        // bounds would otherwise surface as panics deep in the rate
        // allocator).
        let qos = arm_net::flowspec::QosRequest::fixed(kbps);
        if !(kbps.is_finite() && kbps > 0.0) || qos.validate().is_err() {
            return bad("workload kbps", kbps);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_round_trips_through_json() {
        let sc = Scenario::sample();
        let json = serde_json::to_string_pretty(&sc).expect("serialises");
        let back: Scenario = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.name, sc.name);
        assert_eq!(back.environment, sc.environment);
        assert_eq!(back.mobility, sc.mobility);
        assert_eq!(back.strategy, sc.strategy);
    }

    #[test]
    fn random_walk_scenario_runs_on_every_env() {
        for env in [
            EnvSpec::Figure4,
            EnvSpec::OfficeWing { offices: 3 },
            EnvSpec::Meeting,
        ] {
            let sc = Scenario {
                name: "walk".into(),
                environment: env,
                mobility: MobilitySpec::RandomWalk {
                    population: 15,
                    mean_dwell_secs: 120,
                    span_mins: 20,
                },
                workload: WorkloadSpec::Fixed { kbps: 64.0 },
                strategy: Strategy::Aggregate,
                cell_throughput_kbps: 800.0,
                backbone_kbps: 100_000.0,
                wireless_error: 0.0,
                t_th_secs: 300,
                seed: 5,
            };
            let (_, trace) = build_manager(&sc).expect("valid scenario");
            assert!(trace.events().iter().any(|e| e.from.is_some()), "moves");
        }
    }

    #[test]
    fn incompatible_combo_is_a_typed_error() {
        let sc = Scenario {
            environment: EnvSpec::Figure4,
            mobility: MobilitySpec::Meeting { attendees: 10 },
            ..Scenario::sample()
        };
        let err = build_manager(&sc)
            .map(|_| ())
            .expect_err("scenario-input mismatch must be recoverable");
        assert!(matches!(err, ControlError::IncompatibleScenario { .. }));
    }

    #[test]
    fn out_of_range_parameters_are_typed_errors() {
        let zero_dwell = Scenario {
            mobility: MobilitySpec::RandomWalk {
                population: 5,
                mean_dwell_secs: 0,
                span_mins: 10,
            },
            ..Scenario::sample()
        };
        let nan_capacity = Scenario {
            cell_throughput_kbps: f64::NAN,
            ..Scenario::sample()
        };
        let certain_loss = Scenario {
            wireless_error: 1.0,
            ..Scenario::sample()
        };
        let free_workload = Scenario {
            workload: WorkloadSpec::Fixed { kbps: 0.0 },
            ..Scenario::sample()
        };
        let nan_workload = Scenario {
            workload: WorkloadSpec::Fixed { kbps: f64::NAN },
            ..Scenario::sample()
        };
        let negative_workload = Scenario {
            workload: WorkloadSpec::Fixed { kbps: -16.0 },
            ..Scenario::sample()
        };
        for sc in [
            zero_dwell,
            nan_capacity,
            certain_loss,
            free_workload,
            nan_workload,
            negative_workload,
        ] {
            let err = build_manager(&sc)
                .map(|_| ())
                .expect_err("out-of-range parameter must be recoverable");
            assert!(matches!(err, ControlError::BadParameter { .. }), "{err}");
        }
    }
}
