//! The individual lint rules.
//!
//! Each rule is a function over a [`FileCtx`]; `run_all` is the entry
//! point. To add a rule: write the `fn`, call it from `run_all`, name it
//! in `RULES`, document it in `DESIGN.md` §8, and seed a known-bad
//! source snippet in `lints::tests` proving the rule fires.

use super::{FileCtx, Finding};
use crate::lexer::{SpannedTok, Tok};

/// Every rule slug, for `--list` style output and allow validation.
pub const RULES: &[&str] = &[
    "no-panic",
    "total-cmp",
    "clamp-floor",
    "must-use-outcome",
    "unordered-iter",
    "wall-clock",
    "bad-allow",
];

/// Files sanctioned to read the wall clock: the phase-timer layer,
/// whose whole purpose is measuring wall time (its measurements feed
/// reports, never simulation state).
const WALL_CLOCK_WHITELIST: &[&str] = &["crates/obs/src/timers.rs", "crates/obs/src/lib.rs"];

/// Identifier fragments that classify a receiver as allocation/rate
/// typed for the `clamp-floor` rule.
const RATE_WORDS: &[&str] = &[
    "rate",
    "alloc",
    "grant",
    "b_current",
    "b_granted",
    "kbps",
    "bandwidth",
];

/// Run every rule on one analyzed file.
pub fn run_all(ctx: &FileCtx, out: &mut Vec<Finding>) {
    no_panic(ctx, out);
    total_cmp(ctx, out);
    clamp_floor(ctx, out);
    must_use_outcome(ctx, out);
    unordered_iter(ctx, out);
    wall_clock(ctx, out);
    bad_allow(ctx, out);
}

fn ident_at(code: &[SpannedTok], i: usize) -> Option<&str> {
    match code.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn str_at(code: &[SpannedTok], i: usize) -> Option<&str> {
    match code.get(i).map(|t| &t.tok) {
        Some(Tok::Str(s)) => Some(s),
        _ => None,
    }
}

fn sanctioned(msg: &str) -> bool {
    msg.starts_with("invariant:") || msg.starts_with("precondition:")
}

/// `no-panic`: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` in non-test library code, except panics documenting
/// an `invariant:`/`precondition:` (PR 1's audited convention).
fn no_panic(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let line = code[i].line;
        match ident_at(code, i) {
            Some(m @ ("unwrap" | "expect"))
                if i > 0
                    && code[i - 1].is_punct('.')
                    && code.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                if m == "expect" && str_at(code, i + 2).is_some_and(sanctioned) {
                    continue;
                }
                ctx.push(
                    out,
                    "no-panic",
                    line,
                    format!(
                        ".{m}() in library code — return a typed error \
                         (ControlError/BadParameter), or document the panic \
                         as `invariant:`/`precondition:` in the expect message"
                    ),
                );
            }
            Some(m @ ("panic" | "unreachable" | "todo" | "unimplemented"))
                if code.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                if matches!(m, "panic" | "unreachable")
                    && str_at(code, i + 3).is_some_and(sanctioned)
                {
                    continue;
                }
                ctx.push(
                    out,
                    "no-panic",
                    line,
                    format!(
                        "{m}! in library code — return a typed error, or start \
                         the message with `invariant:`/`precondition:`"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// `total-cmp`: rate-typed `f64` ordering must use `total_cmp` (PR 2's
/// NaN-ordering sweep, kept from regressing). Any `.partial_cmp(` or
/// `::partial_cmp(` call in non-test code is flagged; `fn partial_cmp`
/// *definitions* (PartialOrd impls) are not.
fn total_cmp(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        if ident_at(code, i) == Some("partial_cmp")
            && i > 0
            && (code[i - 1].is_punct('.') || code[i - 1].is_punct(':'))
        {
            ctx.push(
                out,
                "total-cmp",
                code[i].line,
                "partial_cmp on f64 is NaN-unsound — use total_cmp \
                 (or sort on an integer key)"
                    .to_string(),
            );
        }
    }
}

/// `clamp-floor`: allocation-typed values must be floored at `b_min`
/// (or an explicit named floor), never at a bare zero/negative literal,
/// and rate expressions fed to `set_conn_rate` must carry their floor
/// visibly.
fn clamp_floor(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        let line = code[i].line;
        // Prong 1: `<rate-ish>.clamp(0.0, …)` / `.clamp(-x, …)`.
        if ident_at(code, i) == Some("clamp")
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let first_arg_zero = match code.get(i + 2).map(|t| &t.tok) {
                Some(Tok::Num(n)) => n.starts_with('0'),
                Some(Tok::Punct('-')) => true,
                _ => false,
            };
            if first_arg_zero && receiver_is_rate(code, i - 1) {
                ctx.push(
                    out,
                    "clamp-floor",
                    line,
                    "rate-typed clamp with a zero/negative floor — allocation \
                     boundaries must floor at b_min"
                        .to_string(),
                );
            }
        }
        // Prong 2: `set_conn_rate(conn, <expr>)` where `<expr>` is a
        // compound expression with no visible floor. A lone identifier
        // is accepted as a pre-clamped binding.
        if ident_at(code, i) == Some("set_conn_rate")
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
            // A `fn set_conn_rate(...)` definition is not a call site.
            && !(i > 0 && code[i - 1].is_ident("fn"))
        {
            if let Some(arg) = second_arg(code, i + 1) {
                let compound = arg.len() > 1;
                let floored = arg.iter().any(|t| {
                    matches!(&t.tok, Tok::Ident(s)
                        if s == "b_min" || s == "max" || s == "clamp" || s == "floor")
                });
                if compound && !floored {
                    ctx.push(
                        out,
                        "clamp-floor",
                        line,
                        "set_conn_rate with a compound rate expression and no \
                         visible b_min floor — clamp the rate (e.g. \
                         `.max(b_min)`) or bind it to a named, pre-clamped \
                         local first"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// Does the expression ending just before the `.` at `dot` read like an
/// allocation/rate value? Checks the receiver identifier, or for a
/// parenthesised receiver, every identifier inside it.
fn receiver_is_rate(code: &[SpannedTok], dot: usize) -> bool {
    let is_rate = |s: &str| {
        let ls = s.to_ascii_lowercase();
        RATE_WORDS.iter().any(|w| ls.contains(w))
    };
    if dot == 0 {
        return false;
    }
    match &code[dot - 1].tok {
        Tok::Ident(s) => is_rate(s),
        Tok::Punct(')') => {
            // Scan back to the matching `(` and look at the idents inside.
            let mut depth = 0i32;
            let mut j = dot - 1;
            loop {
                match code[j].tok {
                    Tok::Punct(')') => depth += 1,
                    Tok::Punct('(') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            code[j..dot]
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if is_rate(s)))
        }
        _ => false,
    }
}

/// The token slice of the second top-level argument of the call whose
/// `(` is at `open`.
fn second_arg(code: &[SpannedTok], open: usize) -> Option<&[SpannedTok]> {
    let mut depth = 0i32;
    let mut j = open;
    let mut comma_at: Option<usize> = None;
    while j < code.len() {
        match code[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return comma_at.map(|c| &code[c + 1..j]);
                }
            }
            Tok::Punct(',') if depth == 1 && comma_at.is_none() => comma_at = Some(j),
            _ => {}
        }
        j += 1;
    }
    None
}

/// `must-use-outcome`: public result-like types (`…Outcome`,
/// `…Rejection`) must be `#[must_use]` so admission verdicts are never
/// silently dropped.
fn must_use_outcome(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for t in &ctx.types {
        if (t.name.ends_with("Outcome") || t.name.ends_with("Rejection")) && !t.must_use {
            ctx.push(
                out,
                "must-use-outcome",
                t.line,
                format!("pub type `{}` is a verdict — mark it #[must_use]", t.name),
            );
        }
    }
}

/// `unordered-iter`: no `HashMap`/`HashSet` in non-test library code.
/// Their iteration order varies per process (SipHash seeding), so any
/// use in a state-affecting or serialized path silently breaks the
/// workspace's determinism contract (replays, snapshots, fingerprints).
/// `BTreeMap`/`BTreeSet` iterate in key order; a genuinely
/// membership-only hot path can justify itself with
/// `// arm-check: allow(unordered-iter) — …`.
fn unordered_iter(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        if let Some(m @ ("HashMap" | "HashSet")) = ident_at(code, i) {
            ctx.push(
                out,
                "unordered-iter",
                code[i].line,
                format!(
                    "{m} in library code — iteration order is seed-dependent \
                     and can leak into state or serialized output; use \
                     BTree{} (or justify a membership-only use with \
                     `// arm-check: allow(unordered-iter) — …`)",
                    &m[4..]
                ),
            );
        }
    }
}

/// `wall-clock`: no `Instant`/`SystemTime` outside the phase-timer
/// layer. Simulation logic must advance on `SimTime` only; a wall-clock
/// read anywhere else makes runs time-dependent and unreproducible.
fn wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if WALL_CLOCK_WHITELIST.contains(&ctx.rel.as_str()) {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.test_mask[i] {
            continue;
        }
        if let Some(m @ ("Instant" | "SystemTime")) = ident_at(code, i) {
            ctx.push(
                out,
                "wall-clock",
                code[i].line,
                format!(
                    "wall-clock type `{m}` outside the phase-timer layer — \
                     simulation logic must use SimTime (measure wall time \
                     only via arm_obs::PhaseTimers)"
                ),
            );
        }
    }
}

/// `bad-allow`: every `arm-check: allow(...)` must name a real rule and
/// carry a justification after the closing parenthesis.
fn bad_allow(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for a in ctx.allows() {
        if !RULES.contains(&a.0.as_str()) {
            out.push(Finding {
                rule: "bad-allow",
                file: ctx.rel.clone(),
                line: a.1,
                message: format!("allow names unknown rule `{}`", a.0),
            });
        } else if !a.2 {
            out.push(Finding {
                rule: "bad-allow",
                file: ctx.rel.clone(),
                line: a.1,
                message: "allow directive without a justification — add a \
                          reason after the closing parenthesis"
                    .to_string(),
            });
        }
    }
}
