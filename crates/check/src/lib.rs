//! `arm-check`: the workspace's static verification layer.
//!
//! Four prongs, driven by `cargo xtask check`:
//!
//! 1. **Domain lints** — clippy carries most of the policy (no panics
//!    outside `arm_sim::Audited`, ordered containers, no wall clock, no
//!    bare `#[allow]`) through a policy line in each target crate's
//!    `lib.rs` and the root `clippy.toml`; [`lints`] is a text scan for
//!    the three rules clippy cannot express: `total_cmp` on rate-typed
//!    floats, the `b_min` floor at allocation clamps, and `#[must_use]`
//!    verdict types.
//! 2. **Bounded model checking** ([`model`]) — the distributed maxmin
//!    and round-trip admission protocols and the production maxmin
//!    engine as explicit transition systems, exhaustively explored over
//!    all interleavings (op sequences, for the engine) on small
//!    topologies, with minimal counterexample traces on failure.
//! 3. **Schema-drift fingerprints** ([`fingerprint`]) — every
//!    schema-versioned serialized surface structurally fingerprinted
//!    against `crates/check/fingerprints/`; a layout change without a
//!    `*_SCHEMA_VERSION` bump (plus a re-bless) fails the gate.
//! 4. **CI gates** — miri, sanitizers, `cargo-deny`: wired in
//!    `.github/workflows/ci.yml`, not here.
//!
//! See `DESIGN.md` §8 for the lint policy and how to add a rule, and
//! §13 for the verification passes added on top.

pub mod fingerprint;
pub mod lints;
pub mod model;
