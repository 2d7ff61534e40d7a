// Audited: every expect in this crate is an `invariant:`/`precondition:`
// panic (see the arm-check `no-panic` lint).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Slotted advance-reservation calendar (DESIGN.md §11).
//!
//! A time-indexed store of *link* bookings, where *"can this transfer
//! get bandwidth b on link l in slot T+Δ?"* is a first-class query:
//!
//! * [`SlottedSchedule`] — a schema-versioned, serde-snapshottable
//!   store keyed by `(slot, link)` holding typed [`Reservation`]
//!   records with a [`ReservationState`] lifecycle
//!   (`Requested → Confirmed → Active → Released/Expired`);
//! * [`TopologyPathCache`] — every cell's precomputed uplink path,
//!   built from `arm_net::topology`, with per-slot bottleneck analysis
//!   to find the maximum assignable capacity along any path;
//! * **co-allocated multi-link advance reservations**
//!   ([`SlottedSchedule::co_allocate`]): an all-or-nothing group of
//!   link reservations admitted atomically across a path for a slot
//!   range (the workflow/bulk-transfer workload of the related VRM
//!   literature).
//!
//! The store's callers are the manager's `book_bulk_transfer` (which
//! owns the one molding loop: stretch the duration over the whole path
//! until the volume fits), `book_co_allocation` and `cancel_booking`;
//! active bookings reach the link ledgers as `ResvClaim::Calendar`
//! claims at each slot roll. The paper's §4/§6 per-cell algorithms do
//! **not** go through this store — the manager's claim refresh writes
//! their `Conn`/`Cell`/`DynPool` claims straight onto the links.
//!
//! ## Determinism contract
//!
//! Per-slot booked totals are **folded on demand** over the live
//! reservations in `ReservationId` order
//! ([`SlottedSchedule::booked`]) rather than cached incrementally.
//! f64 addition is order-dependent and subtraction is not an exact
//! inverse, so an incrementally-maintained total could drift from what
//! a freshly restored snapshot recomputes — and the crash-recovery
//! drill demands restore + replay be *byte-identical* to never having
//! crashed. Folding in id order makes the query a pure function of the
//! store contents, at a cost of O(reservations ever taken) per query —
//! acceptable for explicit bookings, and the reason nothing per-event
//! is routed through here.

pub mod path_cache;
pub mod schedule;

pub use path_cache::TopologyPathCache;
pub use schedule::{
    CalendarError, CoAllocOutcome, GroupId, Reservation, ReservationId, ReservationState,
    ResvOrigin, RollReport, ScheduleError, SlotIndex, SlottedSchedule, CAL_SCHEMA_VERSION,
};
