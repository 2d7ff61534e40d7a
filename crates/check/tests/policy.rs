//! The clippy half of the domain policy (DESIGN.md §8.1).
//!
//! Clippy carries the panic, determinism and allow rules through one
//! policy line in each target crate's `lib.rs` and the root
//! `clippy.toml`. These tests pin both ends: every crate the scan
//! covers carries the line, and the line with `clippy.toml` rejects
//! each seeded bad snippet in a throwaway crate while passing the
//! sanctioned forms.

use std::fs;
use std::path::Path;
use std::process::Command;

use arm_check::lints::TARGET_CRATES;
use serde::Value;

/// The crate-level policy line. It is `cfg_attr(not(test), …)`, so test
/// code may unwrap, panic and use any container.
const POLICY: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, \
clippy::disallowed_types, clippy::allow_attributes, clippy::allow_attributes_without_reason))]";

fn root() -> &'static Path {
    // crates/check/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels below the workspace root")
}

#[test]
fn every_target_crate_carries_the_policy_line() {
    for krate in TARGET_CRATES {
        let lib = root().join("crates").join(krate).join("src/lib.rs");
        let text = fs::read_to_string(&lib).expect("a target crate has a lib.rs");
        assert!(
            squeeze(&text).contains(&squeeze(POLICY)),
            "{} lacks the clippy policy line:\n{POLICY}",
            lib.display()
        );
    }
}

/// `text` without whitespace: rustfmt spreads the attribute over lines.
fn squeeze(text: &str) -> String {
    text.split_whitespace().collect()
}

/// Each seeded snippet, with the clippy lints it must trip. Every
/// snippet sits on its own line of the probe crate's `lib.rs`.
const FLAGGED: &[(&str, &[&str])] = &[
    (
        "pub fn a(v: Option<u32>) -> u32 { v.unwrap() }",
        &["unwrap_used"],
    ),
    (
        "pub fn b(v: Option<u32>) -> u32 { v.expect(\"oops\") }",
        &["expect_used"],
    ),
    ("pub fn c() { panic!(\"oops\") }", &["panic"]),
    ("pub fn d() { unreachable!() }", &["unreachable"]),
    ("pub fn e() { todo!() }", &["todo"]),
    ("pub fn f() { unimplemented!() }", &["unimplemented"]),
    (
        "#[allow(dead_code)] fn g() {}",
        &["allow_attributes", "allow_attributes_without_reason"],
    ),
    (
        "#[allow(dead_code, reason = \"x\")] fn h() {}",
        &["allow_attributes"],
    ),
    (
        "#[expect(dead_code)] fn i() {}",
        &["allow_attributes_without_reason"],
    ),
    (
        "pub fn j() -> usize { std::collections::HashMap::<u32, u32>::new().len() }",
        &["disallowed_types"],
    ),
    (
        "pub fn k() -> usize { std::collections::HashSet::<u32>::new().len() }",
        &["disallowed_types"],
    ),
    (
        "pub fn l() -> std::time::Instant { std::time::Instant::now() }",
        &["disallowed_types"],
    ),
    (
        "pub fn m() -> std::time::SystemTime { std::time::SystemTime::now() }",
        &["disallowed_types"],
    ),
];

/// The forms the policy sanctions: none may draw a diagnostic.
const SANCTIONED: &str = r#"
pub fn audited(v: Option<u32>) -> u32 {
    #[expect(clippy::panic, reason = "invariant: callers pass Some")]
    let Some(x) = v else { panic!("invariant: callers pass Some") };
    x
}

pub fn ordered() -> usize {
    std::collections::BTreeMap::<u32, u32>::new().len()
}

pub mod timers {
    #![expect(clippy::disallowed_types, reason = "the one wall-clock reader")]
    pub fn now() -> std::time::Instant {
        std::time::Instant::now()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(std::hint::black_box(Some(1)).unwrap(), 1);
        let _ = std::collections::HashSet::<u32>::new();
    }
}
"#;

#[test]
fn clippy_rejects_every_seeded_snippet_and_passes_the_sanctioned_forms() {
    let dir = std::env::temp_dir().join(format!("arm-check-policy-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("src")).expect("temp dir is writable");
    let manifest = "[package]\nname = \"policy-probe\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
                    rust-version = \"1.81\"\n\n[workspace]\n\n[lints.clippy]\n\
                    disallowed_types = \"allow\"\n";
    fs::write(dir.join("Cargo.toml"), manifest).expect("manifest written");
    fs::copy(root().join("clippy.toml"), dir.join("clippy.toml")).expect("clippy.toml copied");
    // Line 1 is the policy; the seeded snippets follow, one per line.
    let mut lib = format!("{POLICY}\n");
    let first = 2;
    for (snippet, _) in FLAGGED {
        lib.push_str(snippet);
        lib.push('\n');
    }
    lib.push_str(SANCTIONED);
    fs::write(dir.join("src/lib.rs"), lib).expect("lib.rs written");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--all-targets",
            "--message-format",
            "json",
        ])
        .output()
        .expect("cargo clippy runs");
    let found = diagnostics(&String::from_utf8_lossy(&out.stdout));
    let _ = fs::remove_dir_all(&dir);

    let expected: Vec<(u64, String)> = FLAGGED
        .iter()
        .zip(first..)
        .flat_map(|((_, lints), line)| lints.iter().map(move |l| (line, format!("clippy::{l}"))))
        .collect();
    assert_eq!(
        found,
        expected,
        "clippy's findings in the probe crate differ from the seeded ones\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.status.success(), "clippy must fail the probe crate");
}

/// `(line, lint)` of every diagnostic in cargo's JSON messages, sorted
/// and without repeats (the lib and its test build both report).
fn diagnostics(json: &str) -> Vec<(u64, String)> {
    let mut found: Vec<(u64, String)> = json
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter_map(|msg| {
            let msg = msg.get("message")?;
            let code = msg.get("code")?.get("code")?.as_str()?.to_string();
            let spans = msg.get("spans")?.as_array()?;
            let primary = spans
                .iter()
                .find(|s| s.get("is_primary") == Some(&Value::Bool(true)))?;
            Some((primary.get("line_start")?.as_u64()?, code))
        })
        .collect();
    found.sort();
    found.dedup();
    found
}
