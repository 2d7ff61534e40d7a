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

//! # arm-mobility — environments, movement, and workload
//!
//! The paper validated its algorithms against hand-tracked user mobility
//! in the UIUC ECE building (Spring 1996) — measurements we cannot rerun.
//! Per the reproduction's substitution rule, this crate provides
//! *synthetic generators calibrated to the paper's published aggregate
//! numbers*: the §7.1 office-case fan-out counts, the Figure 5
//! meeting-room arrival/departure spikes with corridor walk-by traffic,
//! and the Figure 6 two-cell workload parameters. The algorithms under
//! test consume only handoff event streams and connection request
//! streams, so generators matching the published marginals exercise the
//! same code paths as the original traces.
//!
//! * [`environment`] — cell maps: the Figure 4 floor plan (offices A and
//!   B, corridors C–G) and a parametric office building,
//! * [`trace`] — movement traces (time-ordered cell transitions),
//! * [`models`] — the per-class generators: office workers (§7.1),
//!   meetings (Fig. 5), cafeteria lunch ramps, random-walk defaults, and
//!   a general Markov walker,
//! * [`workload`] — connection request generators: the §7.1 16/64 kbps
//!   mix and the Figure 6 two-type Poisson/exponential model,
//! * [`channel`] — the time-varying wireless channel (Gilbert–Elliott
//!   fades) whose capacity swings drive the §5.3 adaptation machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod environment;
pub mod models;
pub mod trace;
pub mod workload;

pub use environment::IndoorEnvironment;
pub use trace::MobilityTrace;
pub use workload::WorkloadMix;
