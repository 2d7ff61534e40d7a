//! Audited panics.
//!
//! Library code does not panic (`clippy::{unwrap_used, expect_used}`
//! are denied outside tests). The exceptions are documented contracts: an
//! *invariant* the code itself maintains, or a *precondition* the caller
//! must meet. [`Audited`] names which one a site relies on, so the audit
//! lives in the method name rather than in an `expect` message:
//!
//! ```
//! use arm_sim::Audited;
//!
//! let slots = [4u32, 7];
//! let first = slots.first().invariant("the table is never empty");
//! assert_eq!(*first, 4);
//! ```
//!
//! A failure panics with exactly the text `expect` printed:
//! `"invariant: why"`, and for a `Result`, `"invariant: why: {err:?}"`.

use std::fmt;

/// `.invariant(why)` / `.precondition(why)` on `Option` and `Result`:
/// the value, or a panic whose message starts with the contract's kind.
pub trait Audited<T> {
    /// The value; its absence breaks an invariant this code maintains.
    fn invariant(self, why: &str) -> T;
    /// The value; its absence means the caller broke a precondition.
    fn precondition(self, why: &str) -> T;
}

impl<T> Audited<T> for Option<T> {
    #[inline]
    #[track_caller]
    fn invariant(self, why: &str) -> T {
        match self {
            Some(v) => v,
            None => failed("invariant", why),
        }
    }

    #[inline]
    #[track_caller]
    fn precondition(self, why: &str) -> T {
        match self {
            Some(v) => v,
            None => failed("precondition", why),
        }
    }
}

impl<T, E: fmt::Debug> Audited<T> for Result<T, E> {
    #[inline]
    #[track_caller]
    fn invariant(self, why: &str) -> T {
        match self {
            Ok(v) => v,
            Err(e) => failed_with("invariant", why, &e),
        }
    }

    #[inline]
    #[track_caller]
    fn precondition(self, why: &str) -> T {
        match self {
            Ok(v) => v,
            Err(e) => failed_with("precondition", why, &e),
        }
    }
}

#[cold]
#[inline(never)]
#[track_caller]
#[expect(clippy::panic, reason = "the one place an audited contract fails")]
fn failed(kind: &str, why: &str) -> ! {
    panic!("{kind}: {why}")
}

#[cold]
#[inline(never)]
#[track_caller]
#[expect(clippy::panic, reason = "the one place an audited contract fails")]
fn failed_with(kind: &str, why: &str, err: &dyn fmt::Debug) -> ! {
    panic!("{kind}: {why}: {err:?}")
}

#[cfg(test)]
mod tests {
    use std::hint::black_box;
    use std::panic::{catch_unwind, UnwindSafe};

    use super::Audited;

    /// The panic message `f` raises.
    fn message(f: impl FnOnce() -> u8 + UnwindSafe) -> String {
        let payload = catch_unwind(f).unwrap_err();
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().unwrap()).to_string(),
        }
    }

    fn none() -> Option<u8> {
        black_box(None)
    }

    fn err<E>(e: E) -> Result<u8, E> {
        black_box(Err(e))
    }

    #[test]
    fn the_four_panic_texts_are_the_ones_expect_printed() {
        let cases = [
            (
                message(|| none().invariant("the slot is live")),
                message(|| none().expect("invariant: the slot is live")),
                "invariant: the slot is live",
            ),
            (
                message(|| none().precondition("the id is registered")),
                message(|| none().expect("precondition: the id is registered")),
                "precondition: the id is registered",
            ),
            (
                message(|| err("off by 3").invariant("the ledger balances")),
                message(|| err("off by 3").expect("invariant: the ledger balances")),
                "invariant: the ledger balances: \"off by 3\"",
            ),
            (
                message(|| err(17).precondition("the cell exists")),
                message(|| err(17).expect("precondition: the cell exists")),
                "precondition: the cell exists: 17",
            ),
        ];
        for (ours, theirs, text) in cases {
            assert_eq!(ours, text);
            assert_eq!(theirs, text);
        }
    }

    #[test]
    fn present_values_pass_through() {
        assert_eq!(black_box(Some(3)).invariant("x"), 3);
        assert_eq!(black_box(Ok::<_, ()>(4)).precondition("y"), 4);
    }
}
