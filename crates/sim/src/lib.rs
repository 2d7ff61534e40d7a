// Repo policy (DESIGN.md §8.1), enforced by clippy in non-test code:
// no panics, no unordered containers or wall clock (`clippy.toml`), and
// no bare `#[allow]`. An audited panic goes through `arm_sim::Audited`;
// any other exception is `#[expect(lint, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_types,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

//! # arm-sim — deterministic discrete-event simulation kernel
//!
//! The substrate every other crate in this workspace runs on. Lu &
//! Bharghavan's SIGCOMM '96 paper is a pure-simulation paper: all of its
//! algorithms (admission control, maxmin rate adaptation, profile-based
//! advance reservation) are evaluated by discrete-event simulation. This
//! crate provides that machinery:
//!
//! * [`SimTime`] / [`SimDuration`] — integer virtual time (microsecond
//!   ticks) so runs are exactly reproducible and never drift,
//! * [`EventQueue`] — a calendar queue with stable FIFO ordering among
//!   same-timestamp events and O(log n) cancellation,
//! * [`Engine`] / [`Model`](engine::Model) — a synchronous event loop in the smoltcp
//!   spirit (no async runtime; the network being simulated is virtual),
//! * [`SimRng`] — a seeded, splittable random source plus the distributions
//!   the paper's workload model needs (exponential holding times, Poisson
//!   arrivals, Bernoulli handoff decisions, binomial counts),
//! * [`stats`] — counters, time-weighted averages, histograms and series
//!   collectors used to produce every figure in the evaluation.
//!
//! ## Determinism contract
//!
//! Given the same seed and the same sequence of API calls, a simulation
//! built on this crate produces bit-identical results on every platform.
//! The kernel guarantees this by using integer time, a stable tie-break
//! sequence number in the event queue, and a counter-based RNG splitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audited;
pub mod engine;
mod event;
mod faults;
mod queue;
mod rng;
pub mod stats;
pub mod time;

pub use audited::Audited;
pub use engine::{Engine, StopCondition};
pub use event::EventId;
pub use faults::{FaultEvent, FaultKind, FaultSchedule, FaultScheduleParams};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
