//! The domain lint pass.
//!
//! Machine-checked repo policy: the recurring footgun classes PRs 1–2
//! fixed by hand (NaN-unsafe orderings, panics in library code, rate
//! clamps that lose the `b_min` floor) are enforced here at `cargo xtask
//! check` time. Rules run over the token stream of every library source
//! file in the [`TARGET_CRATES`], with `#[cfg(test)]` regions masked
//! out.
//!
//! Escapes are explicit and audited: an `expect`/`panic!` whose message
//! starts with `invariant:` or `precondition:` is sanctioned (PR 1's
//! panic-audit convention), and any rule can be suppressed for one line
//! with a justified comment:
//!
//! ```text
//! // arm-check: allow(no-panic) — poisoned mutex means a prior panic
//! ```
//!
//! A suppression without a justification text is itself a finding.

mod rules;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::lexer::{self, SpannedTok, Tok};

/// The library crates the lint pass covers. Only `bench` is out: the
/// bench harness is not shipped logic. The simulator kernel (`sim`) was
/// originally excluded as owning its own panic discipline (audited in
/// PR 1); that audit is now encoded in `invariant:`/`precondition:`
/// expect prefixes and inline allows, so the lint pass pins it too.
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

/// One lint violation.
#[derive(Clone, Debug, Serialize, PartialEq, Eq)]
pub struct Finding {
    /// Rule slug, one of `rules::RULES`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `// arm-check: allow(rule) — reason` directive.
#[derive(Clone, Debug)]
struct Allow {
    line: u32,
    rule: String,
    has_reason: bool,
}

/// A `pub struct`/`pub enum` item (for the `must-use-outcome` rule).
#[derive(Clone, Debug)]
pub(crate) struct TypeInfo {
    pub name: String,
    pub line: u32,
    pub must_use: bool,
}

/// Everything the rules need to know about one source file.
pub(crate) struct FileCtx {
    /// Workspace-relative path string.
    pub rel: String,
    /// Comment-free token stream.
    pub code: Vec<SpannedTok>,
    /// Per-token mask: true inside `#[cfg(test)]` / `#[test]` items.
    pub test_mask: Vec<bool>,
    pub types: Vec<TypeInfo>,
    allows: Vec<Allow>,
}

impl FileCtx {
    /// Is a finding of `rule` at `line` suppressed by a justified allow
    /// directive on the same or the immediately preceding line?
    fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.has_reason && (a.line == line || a.line + 1 == line))
    }

    /// Iterate allow directives as `(rule, line, has_reason)`.
    pub(crate) fn allows(&self) -> impl Iterator<Item = (String, u32, bool)> + '_ {
        self.allows
            .iter()
            .map(|a| (a.rule.clone(), a.line, a.has_reason))
    }

    /// Emit `finding` into `out` unless suppressed.
    pub fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        if !self.allowed(rule, line) {
            out.push(Finding {
                rule,
                file: self.rel.clone(),
                line,
                message,
            });
        }
    }
}

/// Run every lint rule over the target crates under `root` (the
/// workspace directory). Findings come back sorted by file and line.
pub fn run_lints(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for krate in TARGET_CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            if is_test_file(&rel) {
                continue;
            }
            let text = fs::read_to_string(&f)?;
            let ctx = analyze(&rel, &text);
            rules::run_all(&ctx, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Files compiled only under `cfg(test)` (included via `#[cfg(test)]
/// mod …;` in their parent): the scanner cannot see the parent's gate,
/// so they are skipped by name convention.
fn is_test_file(rel: &str) -> bool {
    let name = rel.rsplit('/').next().unwrap_or(rel);
    name == "tests.rs" || name.ends_with("_tests.rs")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
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

/// Lex and pre-analyze one file: strip comments into allow directives,
/// compute the `cfg(test)` mask, and catalogue items.
pub(crate) fn analyze(rel: &str, text: &str) -> FileCtx {
    let all = lexer::lex(text);
    let mut code = Vec::with_capacity(all.len());
    let mut allows = Vec::new();
    for t in all {
        if let Tok::Comment(c) = &t.tok {
            if let Some(a) = parse_allow(c, t.line) {
                allows.push(a);
            }
        } else {
            code.push(t);
        }
    }
    let test_mask = test_mask(&code);
    let types = scan_types(&code);
    FileCtx {
        rel: rel.to_string(),
        code,
        test_mask,
        types,
        allows,
    }
}

fn parse_allow(comment: &str, line: u32) -> Option<Allow> {
    let at = comment.find("arm-check: allow(")?;
    let rest = &comment[at + "arm-check: allow(".len()..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '—', '-', ':', '–'])
        .trim();
    Some(Allow {
        line,
        rule,
        has_reason: !reason.is_empty(),
    })
}

/// Mark every token belonging to a `#[cfg(test)]`- or `#[test]`-gated
/// item (attributes included, through the item's closing brace or
/// semicolon).
fn test_mask(code: &[SpannedTok]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (idents, attr_end) = attr_idents(code, i + 1);
            let is_test = (idents.iter().any(|s| s == "cfg") && idents.iter().any(|s| s == "test"))
                || idents == ["test"];
            if is_test {
                // Skip any further attributes, then the item itself.
                let mut j = attr_end;
                while j < code.len()
                    && code[j].is_punct('#')
                    && code.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = attr_idents(code, j + 1).1;
                }
                let end = item_end(code, j);
                for m in mask.iter_mut().take(end).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Collect the identifiers of an attribute whose `[` is at `open`;
/// returns (idents, index past the closing `]`).
fn attr_idents(code: &[SpannedTok], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    while j < code.len() {
        match &code[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (idents, j + 1);
                }
            }
            Tok::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    (idents, code.len())
}

/// Index one past the end of the item starting at `i`: the first
/// top-level `;`, or the matching brace of the first top-level `{`.
fn item_end(code: &[SpannedTok], i: usize) -> usize {
    let mut paren = 0i32;
    let mut brack = 0i32;
    let mut j = i;
    while j < code.len() {
        match code[j].tok {
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct('[') => brack += 1,
            Tok::Punct(']') => brack -= 1,
            Tok::Punct(';') if paren == 0 && brack == 0 => return j + 1,
            Tok::Punct('{') if paren == 0 && brack == 0 => {
                return match_brace(code, j) + 1;
            }
            _ => {}
        }
        j += 1;
    }
    code.len()
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(code: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < code.len() {
        match code[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

/// Linear item scanner: catalogues pub types, skipping over fn items
/// and descending into `mod`/`impl`/`trait` bodies.
fn scan_types(code: &[SpannedTok]) -> Vec<TypeInfo> {
    let mut types = Vec::new();
    let mut pending_attr_idents: Vec<String> = Vec::new();
    let mut saw_pub = false;
    let mut i = 0usize;
    while i < code.len() {
        match &code[i].tok {
            Tok::Punct('#') if code.get(i + 1).is_some_and(|t| t.is_punct('[')) => {
                let (idents, end) = attr_idents(code, i + 1);
                pending_attr_idents.extend(idents);
                i = end;
            }
            Tok::Ident(s) if s == "pub" => {
                saw_pub = true;
                i += 1;
                // Skip a `(crate)`-style visibility qualifier.
                if code.get(i).is_some_and(|t| t.is_punct('(')) {
                    let mut depth = 0i32;
                    while i < code.len() {
                        match code[i].tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            Tok::Ident(s) if s == "fn" => {
                pending_attr_idents.clear();
                saw_pub = false;
                i = item_end(code, i);
            }
            Tok::Ident(s) if s == "struct" || s == "enum" || s == "union" => {
                let name = match code.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(n)) => n.clone(),
                    _ => String::new(),
                };
                if saw_pub {
                    types.push(TypeInfo {
                        name,
                        line: code[i].line,
                        must_use: pending_attr_idents.iter().any(|a| a == "must_use"),
                    });
                }
                pending_attr_idents.clear();
                saw_pub = false;
                i = item_end(code, i);
            }
            Tok::Ident(s) if s == "impl" || s == "mod" || s == "trait" => {
                // Descend into the body: advance just past its `{`.
                pending_attr_idents.clear();
                saw_pub = false;
                let mut j = i + 1;
                let mut paren = 0i32;
                while j < code.len() {
                    match code[j].tok {
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        Tok::Punct(';') if paren == 0 => break,
                        Tok::Punct('{') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
            }
            Tok::Punct(';') | Tok::Punct('}') | Tok::Punct('{') => {
                pending_attr_idents.clear();
                saw_pub = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    types
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let ctx = analyze("crates/qos/src/x.rs", src);
        let mut out = Vec::new();
        rules::run_all(&ctx, &mut out);
        out
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = r#"
            pub fn lib_code(x: f64) -> f64 { x.max(0.0) }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let v: Option<u32> = None; v.unwrap(); }
            }
        "#;
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged() {
        let f = findings("pub fn f(v: Option<u32>) -> u32 { v.unwrap() }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic");
    }

    #[test]
    fn invariant_expect_is_sanctioned() {
        let src = r#"pub fn f(v: Option<u32>) -> u32 {
            v.expect("invariant: caller registered the id")
        }"#;
        assert!(findings(src).is_empty());
        let src = r#"pub fn f(v: Option<u32>) -> u32 { v.expect("oops") }"#;
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn justified_allow_suppresses_unjustified_does_not() {
        let ok = r#"pub fn f(v: Option<u32>) -> u32 {
            // arm-check: allow(no-panic) — poisoned lock implies prior panic
            v.unwrap()
        }"#;
        assert!(findings(ok).is_empty());
        let bad = r#"pub fn f(v: Option<u32>) -> u32 {
            // arm-check: allow(no-panic)
            v.unwrap()
        }"#;
        let f = findings(bad);
        assert!(f.iter().any(|x| x.rule == "no-panic"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "bad-allow"), "{f:?}");
    }

    #[test]
    fn partial_cmp_call_flagged_definition_not() {
        let f = findings("fn s(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert!(f.iter().any(|x| x.rule == "total-cmp"), "{f:?}");
        let def = r#"
            impl PartialOrd for K {
                fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                    Some(self.cmp(other))
                }
            }
        "#;
        assert!(findings(def).is_empty(), "{:?}", findings(def));
    }

    #[test]
    fn naked_rate_clamp_flagged_floored_not() {
        let f = findings("pub fn f(rate: f64, hi: f64) -> f64 { rate.clamp(0.0, hi) }");
        assert!(f.iter().any(|x| x.rule == "clamp-floor"), "{f:?}");
        let ok = "pub fn f(rate: f64, b_min: f64, hi: f64) -> f64 { rate.clamp(b_min, hi) }";
        assert!(findings(ok).is_empty());
        // Non-rate receivers (probabilities etc.) are out of scope.
        let prob = "pub fn f(loss: f64) -> f64 { loss.clamp(0.0, 0.999) }";
        assert!(findings(prob).is_empty());
    }

    #[test]
    fn set_conn_rate_expression_needs_floor() {
        let f = findings("fn f(net: &mut N) { net.set_conn_rate(id, x * 0.5).ok(); }");
        assert!(f.iter().any(|x| x.rule == "clamp-floor"), "{f:?}");
        let ok = "fn f(net: &mut N) { net.set_conn_rate(id, grant.max(b_min)).ok(); }";
        assert!(findings(ok).is_empty());
        // A lone identifier is a trusted pre-clamped binding.
        let lone = "fn f(net: &mut N) { net.set_conn_rate(id, target).ok(); }";
        assert!(findings(lone).is_empty());
    }

    #[test]
    fn pub_outcome_type_needs_must_use() {
        let f = findings("pub struct FooOutcome { pub x: f64 }");
        assert!(f.iter().any(|x| x.rule == "must-use-outcome"), "{f:?}");
        let ok = "#[must_use]\npub struct FooOutcome { pub x: f64 }";
        assert!(findings(ok).is_empty());
    }

    #[test]
    fn unordered_containers_flagged_in_lib_code_only() {
        let f = findings("use std::collections::HashMap;\npub struct S { m: HashMap<u32, f64> }");
        assert!(f.iter().all(|x| x.rule == "unordered-iter"), "{f:?}");
        assert_eq!(f.len(), 2, "{f:?}");
        let test_only = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let s = std::collections::HashSet::new(); s.len(); }
            }
        "#;
        assert!(findings(test_only).is_empty(), "{:?}", findings(test_only));
        let allowed = r#"
            pub struct S {
                // arm-check: allow(unordered-iter) — membership-only tombstones
                seen: HashSet<u64>,
            }
        "#;
        assert!(findings(allowed).is_empty(), "{:?}", findings(allowed));
    }

    #[test]
    fn wall_clock_flagged_outside_timer_layer() {
        let src = "use std::time::Instant;\npub fn f() { let t = Instant::now(); t.elapsed(); }";
        let f = findings(src);
        assert!(f.iter().any(|x| x.rule == "wall-clock"), "{f:?}");
        // The phase-timer layer is the sanctioned owner of the wall clock.
        let ctx = analyze("crates/obs/src/timers.rs", src);
        let mut out = Vec::new();
        rules::run_all(&ctx, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // SystemTime is equally banned.
        let st = findings("pub fn f() -> std::time::SystemTime { std::time::SystemTime::now() }");
        assert!(st.iter().any(|x| x.rule == "wall-clock"), "{st:?}");
    }
}
