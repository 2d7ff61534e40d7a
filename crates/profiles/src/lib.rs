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

//! # arm-profiles — profiles, profile servers, and next-cell prediction
//!
//! §3.4 of the paper: every cell and portable carries a *profile*; each
//! geographic *zone* runs a *profile server* that aggregates handoff
//! history and answers next-cell queries. Cells are classified by
//! location-dependent behaviour — **office**, **corridor**, **lounge**
//! (meeting room / cafeteria / default) — and the advance-reservation
//! algorithm of `arm-reservation` dispatches on this class.
//!
//! * `class` — the cell taxonomy (Table 1's rows),
//! * `history` — bounded handoff history buffers (`N_pP` / `N_pC`),
//! * `portable` — portable profiles: ⟨previous cell, current cell⟩ →
//!   next-predicted-cell triplets,
//! * `cell` — cell profiles: neighbours, office occupants `ω(c)`,
//!   aggregate per-previous-cell handoff probabilities
//!   ⟨i, ∀j ∈ η(c): {j, p_j}⟩,
//! * `server` — the per-zone profile server: records every handoff,
//!   keeps both profile kinds fresh, serves predictions,
//! * [`prediction`] — the three-level prediction of §6 (portable profile
//!   → cell profile → none ⇒ caller falls back to the default advance
//!   reservation algorithm),
//! * [`classify`] — the learning process of §6.4: categorise an unknown
//!   cell from the shape of its observed handoff activity,
//! * `zones` — multi-zone universes with cross-zone profile hand-over
//!   ("passes on the cached portable-profile to the next cell").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod class;
pub mod classify;
mod history;
mod portable;
pub mod prediction;
mod server;
mod zones;

pub use cell::CellProfile;
pub use class::{CellClass, LoungeKind};
pub use history::{HandoffEvent, HandoffHistory};
pub use portable::PortableProfile;
pub use server::ProfileServer;
pub use zones::ZonedProfiles;
