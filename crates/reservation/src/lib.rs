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

//! # arm-reservation — advance resource reservation (§6)
//!
//! "Advanced resource reservation is based \[on\] two factors: (a)
//! prediction of the next cell of a mobile user, and (b) aggregate
//! handoff activity of cells." Prediction lives in `arm-profiles`; this
//! crate supplies the per-class reservation *policies*:
//!
//! * [`dispatch`] — the §6.4 summary algorithm: route each mobile
//!   portable's reservation decision through the three-level prediction
//!   and the current cell's class,
//! * [`meeting`] — the booking-calendar meeting-room algorithm
//!   (§6.2.1): arrival-count-driven reservation in the room from
//!   `T_s − Δ_s`, departure-driven reservation in the neighbours from
//!   `T_a − Δ_a`, with the 5/15-minute release timers,
//! * [`cafeteria`] — the least-squares linear predictor over the last
//!   three slots (§6.2.2),
//! * [`default_cell`] — the one-step-memory predictor (§6.2.3),
//! * [`probabilistic`] — the binomial look-ahead algorithm (§6.3, eqns
//!   3–7): keep the handoff-drop probability below `P_QOS` over the
//!   window `[t, t+T]`.
//!
//! The §7 comparison strategies (brute-force, aggregate, static
//! fraction) are not here: they are `arm_core::Strategy` arms of the
//! manager's claim refresh, which writes their claims straight onto the
//! link ledgers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cafeteria;
pub mod default_cell;
pub mod dispatch;
pub mod meeting;
pub mod probabilistic;

pub use dispatch::{decide, ReservationDecision};
pub use meeting::{BookingCalendar, Meeting, MeetingRoomPolicy};
pub use probabilistic::{ProbabilisticConfig, ProbabilisticReservation};
