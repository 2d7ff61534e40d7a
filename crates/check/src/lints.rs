//! The domain lint scan: the three repo rules clippy cannot express.
//!
//! Most of the repo's policy is clippy configuration (DESIGN.md §8.1):
//! the policy line at the top of each [`TARGET_CRATES`] `lib.rs` denies
//! panics, bare `#[allow]`s and the types `clippy.toml` disallows
//! (unordered containers, the wall clock) in non-test code. What is
//! left is domain knowledge no clippy lint carries, in the three rules of
//! `RULES`: `total-cmp`, `clamp-floor` and `must-use-outcome`.
//!
//! The scan reads each source file as text with comments and string and
//! char literals blanked out. It has no token stream and no test mask:
//! test code keeps the same three rules.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The library crates the domain policy covers, clippy's and this
/// scan's alike: every crate of shipped logic (`bench`, `check` and
/// `xtask` are tooling). `tests/policy.rs` pins the clippy policy line
/// in each one's `lib.rs`.
pub const TARGET_CRATES: &[&str] = &[
    "qos",
    "net",
    "core",
    "reservation",
    "profiles",
    "mobility",
    "sim",
    "obs",
    "server",
];

/// Each rule with the fix its findings ask for.
const RULES: [(&str, &str); 3] = [
    (
        "total-cmp",
        "order f64 with total_cmp, not a partial_cmp call",
    ),
    (
        "clamp-floor",
        "floor rates at b_min: no zero/negative clamp floor, no unfloored set_conn_rate expression",
    ),
    (
        "must-use-outcome",
        "mark a pub `*Outcome`/`*Rejection` verdict type #[must_use]",
    ),
];

/// Identifier fragments that mark a receiver as a rate or allocation
/// for the `clamp-floor` rule.
const RATE_WORDS: &[&str] = &[
    "rate",
    "alloc",
    "grant",
    "b_current",
    "b_granted",
    "kbps",
    "bandwidth",
];

/// Scan every `.rs` file under the target crates' `src/` in `root`
/// (the workspace directory): one `file:line: [rule] fix` line per
/// finding, sorted by file and line.
pub fn run_lints(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for krate in TARGET_CRATES {
        collect_rs(&root.join("crates").join(krate).join("src"), &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).display().to_string();
        for (line, rule) in scan(&fs::read_to_string(&f)?) {
            let fix = RULES.iter().find(|r| r.0 == rule).map_or("", |r| r.1);
            findings.push(format!("{rel}:{line}: [{rule}] {fix}"));
        }
    }
    Ok(findings)
}

/// Append every `.rs` file under `dir`, recursively, to `out`.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The `(line, rule)` findings in one file's text, in line order.
fn scan(text: &str) -> Vec<(usize, &'static str)> {
    let code = &blank(text);
    let b = code.as_bytes();
    let mut hits = Vec::new();
    // total-cmp: a `partial_cmp` call, not a definition.
    for at in words(code, "partial_cmp") {
        if matches!(before(code, at), Some((_, b'.' | b':'))) {
            hits.push((at, "total-cmp"));
        }
    }
    // clamp-floor, first prong: `<rate-ish>.clamp(0…, …)` or `.clamp(-…, …)`.
    for at in words(code, "clamp") {
        let (Some((dot, b'.')), Some((open, b'('))) =
            (before(code, at), after(code, at + "clamp".len()))
        else {
            continue;
        };
        if matches!(after(code, open + 1), Some((_, b'0' | b'-'))) && rate_receiver(&code[..dot]) {
            hits.push((at, "clamp-floor"));
        }
    }
    // Second prong: a `set_conn_rate` call whose rate argument is
    // compound with no visible floor. A lone binding is pre-clamped.
    for at in words(code, "set_conn_rate") {
        let Some((open, b'(')) = after(code, at + "set_conn_rate".len()) else {
            continue;
        };
        let Some(arg) = second_arg(code, open) else {
            continue;
        };
        let arg = arg.trim();
        let lone = arg.bytes().all(is_ident) || arg.parse::<f64>().is_ok();
        let floored = idents(arg).any(|s| matches!(s, "b_min" | "max" | "clamp" | "floor"));
        if !lone && !floored && !code[..at].trim_end().ends_with("fn") {
            hits.push((at, "clamp-floor"));
        }
    }
    // must-use-outcome: `pub struct|enum|union *Outcome|*Rejection`
    // with no `#[must_use]` among its attributes.
    for kw in ["struct", "enum", "union"] {
        for at in words(code, kw) {
            let Some((name, _)) = after(code, at + kw.len()) else {
                continue;
            };
            let name = &code[name..][..b[name..].iter().take_while(|&&c| is_ident(c)).count()];
            let mut item = code[..at].trim_end();
            if item.ends_with(')') {
                item = item[..opener(item, item.len() - 1, b'(').unwrap_or(0)].trim_end();
            }
            let verdict = name.ends_with("Outcome") || name.ends_with("Rejection");
            if verdict && last_ident(item) == Some("pub") && !must_use(&item[..item.len() - 3]) {
                hits.push((at, "must-use-outcome"));
            }
        }
    }
    hits.sort_unstable();
    hits.into_iter()
        .map(|(at, rule)| (1 + b[..at].iter().filter(|&&c| c == b'\n').count(), rule))
        .collect()
}

/// `text` with every comment and every string and char literal replaced
/// by spaces. Newlines stay, so offsets and line numbers are the
/// source's.
fn blank(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let end = match (b[i], b.get(i + 1).copied(), b.get(i + 2).copied()) {
            (b'/', Some(b'/'), _) => text[i..].find('\n').map_or(b.len(), |n| i + n),
            (b'/', Some(b'*'), _) => block_comment_end(b, i),
            (b'"', _, _) => string_end(b, i),
            // A char literal (`'x'`, `'\n'`, `'\u{..}'`), not a lifetime.
            (b'\'', Some(b'\\'), _) | (b'\'', _, Some(b'\'')) => {
                let from = i + if b[i + 1] == b'\\' { 3 } else { 2 };
                (from..b.len())
                    .find(|&j| b[j] == b'\'')
                    .map_or(b.len(), |j| j + 1)
            }
            _ => {
                i += 1;
                continue;
            }
        };
        for c in out[i..end].iter_mut().filter(|c| **c != b'\n') {
            *c = b' ';
        }
        i = end;
    }
    // Whole literals and comments were blanked, so no multi-byte
    // character was cut and the conversion is lossless.
    String::from_utf8_lossy(&out).into_owned()
}

/// One past the `*/` closing the (nesting) block comment at `open`.
fn block_comment_end(b: &[u8], open: usize) -> usize {
    let (mut depth, mut j) = (0, open);
    while j < b.len() {
        if b[j..].starts_with(b"/*") {
            depth += 1;
        } else if b[j..].starts_with(b"*/") {
            depth -= 1;
        } else {
            j += 1;
            continue;
        }
        j += 2;
        if depth == 0 {
            return j;
        }
    }
    b.len()
}

/// One past the end of the string literal whose opening `"` is at
/// `open`: raw (`r#"…"#`) if an `r` and hashes lead up to it, escaped
/// otherwise.
fn string_end(b: &[u8], open: usize) -> usize {
    let hashes = b[..open].iter().rev().take_while(|&&c| c == b'#').count();
    let r = open - hashes;
    let prefix_start = |k: usize| r < k || !is_ident(b[r - k]);
    let raw =
        r > 0 && b[r - 1] == b'r' && (prefix_start(2) || (b[r - 2] == b'b' && prefix_start(3)));
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            b'\\' if !raw => j += 1,
            b'"' if !raw || b[j + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes => {
                return j + 1 + if raw { hashes } else { 0 };
            }
            _ => {}
        }
        j += 1;
    }
    b.len()
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Offsets of `word` in `code` where it stands as a whole identifier.
fn words<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let b = code.as_bytes();
    code.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            let end = at + word.len();
            (at == 0 || !is_ident(b[at - 1])) && (end == b.len() || !is_ident(b[end]))
        })
}

/// The last non-whitespace byte before `at`, with its offset.
fn before(code: &str, at: usize) -> Option<(usize, u8)> {
    let t = code[..at].trim_end();
    t.bytes().last().map(|c| (t.len() - 1, c))
}

/// The first non-whitespace byte at or after `at`, with its offset.
fn after(code: &str, at: usize) -> Option<(usize, u8)> {
    let t = code[at..].trim_start();
    t.bytes().next().map(|c| (code.len() - t.len(), c))
}

/// The identifiers in `code`, in order.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| s.bytes().next().is_some_and(|c| !c.is_ascii_digit()))
}

/// The offset of the `open` bracket matching the closing one at `close`.
fn opener(code: &str, close: usize, open: u8) -> Option<usize> {
    let b = code.as_bytes();
    let mut depth = 0usize;
    (0..=close).rev().find(|&j| {
        if b[j] == b[close] {
            depth += 1;
        } else if b[j] == open {
            depth -= 1;
        }
        depth == 0
    })
}

/// Does the receiver `recv` (the code before a `.`) read like an
/// allocation or rate? Its last identifier decides; for a parenthesised
/// receiver, any identifier inside the parentheses.
fn rate_receiver(recv: &str) -> bool {
    let is_rate = |s: &str| {
        RATE_WORDS
            .iter()
            .any(|w| s.to_ascii_lowercase().contains(w))
    };
    let recv = recv.trim_end();
    if recv.ends_with(')') {
        opener(recv, recv.len() - 1, b'(').is_some_and(|o| idents(&recv[o..]).any(is_rate))
    } else {
        last_ident(recv).is_some_and(is_rate)
    }
}

/// The identifier `code` ends with, if any.
fn last_ident(code: &str) -> Option<&str> {
    let start = code
        .trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_')
        .len();
    Some(&code[start..]).filter(|s| !s.is_empty())
}

/// The text of the second top-level argument of the call whose `(` is
/// at `open`.
fn second_arg(code: &str, open: usize) -> Option<&str> {
    let mut depth = 0;
    let mut comma = None;
    for (j, c) in code.bytes().enumerate().skip(open) {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return comma.map(|c| &code[c + 1..j]);
                }
            }
            b',' if depth == 1 && comma.is_none() => comma = Some(j),
            _ => {}
        }
    }
    None
}

/// Is `#[must_use]` among the outer attributes that `code` ends with?
fn must_use(code: &str) -> bool {
    let mut code = code.trim_end();
    while code.ends_with(']') {
        let Some(open) = opener(code, code.len() - 1, b'[') else {
            break;
        };
        if idents(&code[open..]).any(|s| s == "must_use") {
            return true;
        }
        code = code[..open]
            .trim_end()
            .strip_suffix('#')
            .unwrap_or("")
            .trim_end();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<&'static str> {
        scan(src).into_iter().map(|(_, rule)| rule).collect()
    }

    #[test]
    fn partial_cmp_call_flagged_definition_not() {
        let f = rules("fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(f, ["total-cmp"]);
        let path = rules("fn s(v: &mut [f64]) { v.sort_by(PartialOrd::partial_cmp); }");
        assert_eq!(path, ["total-cmp"]);
        let def = r#"
            impl PartialOrd for K {
                fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                    Some(self.cmp(other))
                }
            }
        "#;
        assert!(rules(def).is_empty(), "{:?}", rules(def));
    }

    #[test]
    fn naked_rate_clamp_flagged_floored_not() {
        let f = rules("pub fn f(rate: f64, hi: f64) -> f64 { rate.clamp(0.0, hi) }");
        assert_eq!(f, ["clamp-floor"]);
        let neg = rules("pub fn f(g: &G) -> f64 { (g.grant * 2.0).clamp(-1.0, 9.0) }");
        assert_eq!(neg, ["clamp-floor"]);
        let ok = "pub fn f(rate: f64, b_min: f64, hi: f64) -> f64 { rate.clamp(b_min, hi) }";
        assert!(rules(ok).is_empty());
        // Non-rate receivers (probabilities etc.) are out of scope.
        let prob = "pub fn f(loss: f64) -> f64 { loss.clamp(0.0, 0.999) }";
        assert!(rules(prob).is_empty());
    }

    #[test]
    fn set_conn_rate_expression_needs_floor() {
        let f = rules("fn f(net: &mut N) { net.set_conn_rate(id, x * 0.5).ok(); }");
        assert_eq!(f, ["clamp-floor"]);
        let ok = "fn f(net: &mut N) { net.set_conn_rate(id, grant.max(b_min)).ok(); }";
        assert!(rules(ok).is_empty());
        // A lone identifier is a trusted pre-clamped binding.
        let lone = "fn f(net: &mut N) { net.set_conn_rate(id, target).ok(); }";
        assert!(rules(lone).is_empty());
        // The definition is not a call site.
        let def = "pub fn set_conn_rate(&mut self, id: ConnId, rate: f64) -> R { todo() }";
        assert!(rules(def).is_empty());
    }

    #[test]
    fn pub_outcome_type_needs_must_use() {
        let f = rules("pub struct FooOutcome { pub x: f64 }");
        assert_eq!(f, ["must-use-outcome"]);
        let vis = rules("#[derive(Debug)]\npub(crate) enum BarRejection { A }");
        assert_eq!(vis, ["must-use-outcome"]);
        let ok = "#[must_use]\npub struct FooOutcome { pub x: f64 }";
        assert!(rules(ok).is_empty());
        let stacked =
            "/// Doc.\n#[must_use = \"a verdict\"]\n#[derive(Debug)]\npub enum FooRejection { A }";
        assert!(rules(stacked).is_empty(), "{:?}", rules(stacked));
        // Only verdict-named types are policed.
        assert!(rules("pub struct Foo { pub x: f64 }").is_empty());
    }

    #[test]
    fn comments_and_literals_are_not_code() {
        let src = r##"
            // a.partial_cmp(b) in a comment
            /* rate.clamp(0.0, 1.0) /* nested */ set_conn_rate(id, x * 2.0) */
            pub fn f() -> (&'static str, &'static str, [char; 3]) {
                ("pub struct XOutcome", r#"a.partial_cmp(b) "quoted""#, ['"', '\\', '\''])
            }
            pub fn g() -> &'static str { "a.partial_cmp(b)" }
        "##;
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn findings_carry_their_line() {
        let src = "fn a() {}\n\n/* x\n y */ fn s() { a.partial_cmp(b); }\n";
        assert_eq!(scan(src), [(4, "total-cmp")]);
    }
}
