//! # arm-benchmark — one event through the whole system, measured
//!
//! The repo's end-to-end benchmark. It drives `arm-server` and
//! `arm-core` from outside, through public functions only, over four
//! workloads that each make a different layer dominate, checks every
//! outcome against what the input generator expects, and reports
//! end-to-end metrics (`bench`) or a per-layer ledger (`bench-traced`).
//! `benchmark/README.md` has the why; `BENCHMARK.json` at the repo root
//! has the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod gen;
pub mod mirror;
pub mod probe;
pub mod run;
pub mod stats;
pub mod workload;
