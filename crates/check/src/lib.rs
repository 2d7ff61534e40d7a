//! `arm-check`: the workspace's static verification layer.
//!
//! Four prongs, driven by `cargo xtask check`:
//!
//! 1. **Domain lints** ([`lints`]) — a token-stream walker (the
//!    workspace vendors no `syn`, so [`lexer`] provides a purpose-built
//!    Rust lexer) over every library crate, enforcing the invariants
//!    that generic tooling cannot know: `total_cmp` on rate-typed
//!    floats, no unsanctioned panics in protocol code, the `b_min`
//!    floor at allocation clamps, ordered containers and no wall clock
//!    in simulation state.
//! 2. **Bounded model checking** ([`model`]) — the distributed maxmin
//!    and round-trip admission protocols and the production maxmin
//!    engine as explicit transition systems, exhaustively explored over
//!    all interleavings (op sequences, for the engine) on small
//!    topologies, with minimal counterexample traces on failure.
//! 3. **Schema-drift fingerprints** ([`fingerprint`]) — every
//!    schema-versioned serialized surface structurally fingerprinted
//!    against `crates/check/fingerprints/`; a layout change without a
//!    `*_SCHEMA_VERSION` bump (plus a re-bless) fails the gate.
//! 4. **CI gates** — miri, sanitizers, `cargo-deny`, clippy: wired in
//!    `.github/workflows/ci.yml`, not here.
//!
//! See `DESIGN.md` §8 for the rule catalogue and how to add a rule,
//! and §13 for the verification passes added on top.

pub mod fingerprint;
pub mod lexer;
pub mod lints;
pub mod model;
