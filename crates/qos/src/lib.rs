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

//! # arm-qos — admission control, maxmin adaptation, conflict resolution
//!
//! The algorithmic core of §5 of the paper:
//!
//! * [`admission`] — the round-trip admission test of Table 2. The forward
//!   pass tests bandwidth, delay, jitter, buffer, and packet loss at every
//!   node for two scheduling disciplines (work-conserving **WFQ** and
//!   non-work-conserving **RCSP**); the destination compares end-to-end
//!   requirements against availability; the reverse pass relaxes the
//!   over-reserved delay budget uniformly and firms up the reservation.
//! * [`maxmin`] — the maxmin optimality criterion of §5.2: bottleneck
//!   definitions, a centralized water-filling reference solver, the
//!   advertised-rate computation `μ_l` with its two-pass restricted-set
//!   refinement, and the distributed event-driven ADVERTISE/UPDATE
//!   protocol of §5.3.1 (both the flooding base version and the
//!   `M(l)`-restricted refinement), with the Theorem 1 convergence
//!   property verified in tests.
//! * [`adaptation`] — the adaptation trigger (eqn 2), the δ threshold,
//!   the static-portable-only policy, and the `B_dyn` pool adjustment.
//! * [`conflict`] — resolution of resource conflicts (§5.2): squeezing
//!   ongoing connections within their pre-negotiated bounds to admit new
//!   connections, then redistributing excess maxmin-fairly.
//! * [`schedulers`] — packet-level simulators of the two disciplines the
//!   admission test is instantiated for (work-conserving WFQ against its
//!   GPS fluid reference, and non-work-conserving RCSP with rate-jitter
//!   regulators), used to validate Table 2's delay bounds empirically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptation;
pub mod admission;
pub mod conflict;
pub mod maxmin;
pub mod schedulers;

pub use admission::{Rejection, TestKind};
