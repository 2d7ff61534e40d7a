//! The verifier must fail its seeded mutants.
//!
//! A checker that cannot catch a known-bad variant proves nothing, so
//! each verification pass carries one canonical mutant here — a bug of
//! the exact class the pass exists to rule out — and the test demands a
//! counterexample with a replayable trace (or, for the fingerprint
//! pass, a drift finding naming the moved field). The per-model test
//! modules hold further mutants; this suite is the cross-pass contract
//! `cargo xtask check` relies on.

use arm_check::fingerprint::{self, compare};
use arm_check::model::engine::{coupler_instance, EngineMutant};
use arm_check::model::Checker;
use serde::Value;

/// Engine pass: a `set_link_excess` that stores the new capacity but
/// forgets its dirty mark must surface as stale resident state at the
/// next resolve — the exactness checks against a from-scratch fill.
#[test]
fn engine_pass_catches_a_forgotten_dirty_mark() {
    let sys = coupler_instance().with_mutant(EngineMutant::ForgetDirtyMark);
    let cx = Checker::default()
        .run("engine/mutant-forget-dirty", &sys)
        .expect_err("the forgotten-dirty-mark mutant must be caught");
    assert!(
        cx.property.contains("from a from-scratch"),
        "{}",
        cx.property
    );
    assert!(
        cx.steps.iter().any(|s| s.contains("add-link")),
        "trace must include the capacity change: {:?}",
        cx.steps
    );
    assert_eq!(
        cx.steps.last().map(String::as_str),
        Some("resolve"),
        "the stale state shows at a resolve: {:?}",
        cx.steps
    );
}

/// Fingerprint pass: silently swapping two snapshot fields (a struct
/// reorder with no schema version bump) must read as layout drift.
#[test]
fn fingerprint_pass_catches_a_reordered_field() {
    let mut case = fingerprint::cases()
        .into_iter()
        .find(|c| c.name == "manager_snapshot")
        .expect("manager snapshot case exists");
    let stored = case.render();
    let Value::Object(ref mut entries) = case.value else {
        panic!("snapshot serializes as an object");
    };
    assert!(entries.len() >= 2, "need two fields to swap");
    entries.swap(0, 1);
    let f = compare(&case, &stored).expect("reordered fields must be drift");
    assert!(
        f.message.contains("drifted without a"),
        "finding must demand a version bump: {}",
        f.message
    );
}

/// And the dual: an unchanged tree re-checks to zero findings, so the
/// gate only ever points at real drift.
#[test]
fn fingerprint_pass_is_a_no_op_on_an_unchanged_tree() {
    for case in fingerprint::cases() {
        assert_eq!(compare(&case, &case.render()), None, "{}", case.name);
    }
}
