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

//! # arm-net — the network substrate
//!
//! The paper's system model (§3.1): a cellular architecture with a wired
//! backbone and a wireless cellular component. Base stations hang off
//! backbone switches and serve *cells*; neighbouring cells overlap so a
//! portable can hand off between them. All wireless traffic is uplink or
//! downlink between a portable and its base station.
//!
//! This crate supplies the data plane the algorithm crates operate on:
//!
//! * [`ids`] — strongly typed identifiers (`NodeId`, `LinkId`, `CellId`,
//!   `ConnId`, `PortableId`, `ZoneId`),
//! * [`flowspec`] — `(σ, ρ)` traffic envelopes and QoS-bound requests
//!   (`[b_min, b_max]`, delay, jitter, loss — §5.1),
//! * [`topology`] — the node/link graph and its builders,
//! * [`routing`] — Dijkstra paths over the backbone and multicast fan-out
//!   to neighbour cells (§4's multicast pre-setup),
//! * [`link`] — per-link reservation ledgers: capacity `C_l`, the advance
//!   reservation pool `b_resv,l`, per-connection allocations, and the
//!   excess-bandwidth accounting (`b'_av,l`) that drives the maxmin
//!   machinery of §5.2,
//! * `connection` — connection lifecycle records.
//!
//! Everything is a plain, deterministic data structure — the event loop
//! lives in `arm-sim`, and algorithms live in `arm-qos` and friends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod connection;
pub mod flowspec;
pub mod ids;
pub mod link;
mod network;
pub mod routing;
pub mod topology;

pub use arena::DenseInterner;
pub use connection::Connection;
pub use ids::PortableId;
pub use link::LinkState;
pub use network::Network;
pub use routing::Route;
