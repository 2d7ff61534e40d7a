//! The repo must pass its own domain lint scan.
//!
//! The scan covers the three rules clippy cannot express (`total-cmp`,
//! `clamp-floor`, `must-use-outcome`); clippy carries the rest
//! (`tests/policy.rs`). This test keeps the tree at zero findings so a
//! failure always points at the offending diff, never at pre-existing
//! noise.

use std::path::Path;

use arm_check::lints::run_lints;

#[test]
fn workspace_is_lint_clean() {
    // crates/check/ -> crates/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels below the workspace root");
    let findings = run_lints(root).expect("lint walk succeeds");
    assert!(
        findings.is_empty(),
        "domain lint findings in the tree:\n{}",
        findings.join("\n")
    );
}
