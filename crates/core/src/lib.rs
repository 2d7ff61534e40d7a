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

//! # arm-core — the integrated resource manager
//!
//! Composes every piece of the paper's Figure 1 into one system:
//! admission control and conflict resolution (`arm-qos`), the
//! static/mobile test and QoS adaptation policy, profile maintenance and
//! three-level next-cell prediction (`arm-profiles`), per-class advance
//! reservation with consumable claims (`arm-reservation`), and the
//! dynamically adjustable pool `B_dyn` — all driven by mobility traces
//! and connection workloads (`arm-mobility`) on the discrete-event kernel
//! (`arm-sim`).
//!
//! * `manager` — [`ResourceManager`]: the per-event control plane
//!   (connection requests, handoffs, terminations, slot ticks),
//! * [`strategy`] — which advance-reservation scheme runs: the paper's
//!   profile-based algorithm or one of the §7 baselines,
//! * `multicast` — §4's wired-backbone multicast pre-setup toward a
//!   mobile's neighbouring cells (failures non-fatal, per the paper),
//! * `metrics` — `P_b`, `P_d`, utilisation, per-slot activity,
//! * [`driver`] — end-to-end experiment drivers for §7.1 (office
//!   prediction), Figure 5 (meeting room), and Figure 6 (probabilistic
//!   default algorithm),
//! * [`scenario`] — declarative scenarios and the manager they build.
//!   Replaying one, with or without a seeded `arm_sim::FaultSchedule`,
//!   is `arm_server::drill`'s job: the server's event loop is the one
//!   replayer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod claim_plan;
pub mod driver;
mod error;
mod manager;
mod metrics;
mod multicast;
pub mod scenario;
pub mod snapshot;
pub mod strategy;

pub use claim_plan::RefreshStats;
pub use error::ControlError;
pub use manager::{ManagerConfig, ResourceManager, MAX_EVENT_GAP, SLOT};
pub use metrics::Metrics;
pub use scenario::Scenario;
pub use snapshot::{ManagerSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
pub use strategy::Strategy;
