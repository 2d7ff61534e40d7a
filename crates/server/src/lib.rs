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

//! # arm-server — the long-running resource-manager server
//!
//! The batch runners (`arm-bench`) build a manager, replay a finite
//! trace, and exit. This crate keeps a [`ResourceManager`] alive
//! *indefinitely*: scenario events arrive as JSONL (stdin or a TCP
//! socket, see the `run_server` binary), observability streams out
//! continuously, and the three robustness properties a long-lived
//! process needs are built in:
//!
//! * **Snapshot/restore** — [`Server::snapshot`] captures the complete
//!   state (manager ledgers, solver, workload RNG, sim clock, replay
//!   counters) as a schema-versioned JSON artifact, validated and
//!   written in one pass; [`Server::restore`] rebuilds a bit-identical server
//!   from it. Periodic checkpoints + an event journal make crashes
//!   recoverable by *restore + replay*.
//! * **Replays and crash-recovery drills** — [`drill`] is the one way a
//!   scenario and a fault schedule are replayed (`run_scenario`, the
//!   chaos soak and the benchmark all feed this event loop). Its drill
//!   kills a server mid-run, restores from its checkpoint, replays the
//!   journaled suffix, and proves the final report **byte-identical**
//!   to the uninterrupted run — including under active fault schedules.
//! * **Graceful degradation** — ingestion rejects bad lines with typed
//!   errors ([`ingest`]) instead of dying; the input queue is bounded
//!   with watermark backpressure ([`backlog`]); transient side-effect
//!   failures retry under a capped backoff ([`RetryPolicy`]); and while the
//!   queue is pressured or a profile server is down, admissions are
//!   squeezed to their guaranteed floor instead of queueing or
//!   blocking.
//!
//! [`ResourceManager`]: arm_core::ResourceManager

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backlog;
pub mod drill;
mod event;
pub mod ingest;
mod retry;
mod server;

pub use backlog::{Backlog, PopOutcome};
pub use event::ServerEvent;
pub use ingest::IngestError;
pub use retry::RetryPolicy;
pub use server::{
    LineOutcome, Server, ServerConfig, ServerSnapshot, SERVER_SNAPSHOT_SCHEMA_VERSION,
};
