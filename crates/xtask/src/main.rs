//! Workspace task runner. `cargo xtask check` is the pre-PR gate: it
//! runs clippy with the workspace's domain policy (`-D warnings`), the
//! domain lint scan over every library crate, the schema-drift
//! fingerprint comparison, and the bounded model-checking sweeps
//! (maxmin/admission protocols, production maxmin engine), and fails
//! with actionable diagnostics (clippy and lint findings as
//! `file:line` lines, schema drift as re-bless instructions, model
//! failures as minimal counterexample traces).
//!
//! Subcommands:
//!
//! * `check` — clippy + lint scan + fingerprints + model sweeps;
//! * `lint`  — clippy + lint scan + fingerprints (run while editing;
//!   CI's `lint` job);
//! * `model` — the model-checking sweeps only (CI's `check` job);
//! * `results` — regenerate the reference outputs under `results/`
//!   (every `expt_*.txt` from the `arm-bench` binary of that name, and
//!   `sample_scenario.json`); with `--check`, write nothing into the
//!   checkout and fail on any byte that differs from the committed
//!   file (what CI runs);
//! * `loc` — non-test lines per crate and in total: lines under
//!   `crates/*/src`, leaving out `#[cfg(test)]` modules and the files
//!   they load, blank lines and `//` lines (the count ROADMAP quotes;
//!   CI's `lint` job prints it).
//!
//! `--trace-dir <dir>` writes any counterexample as JSON into `dir`
//! (CI uploads these as artifacts on failure). After an intentional
//! schema change (with its version bump), `--bless-fingerprints`
//! regenerates `crates/check/fingerprints/` instead of comparing.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use arm_check::fingerprint::{bless_fingerprints, check_fingerprints};
use arm_check::lints::{collect_rs, run_lints};
use arm_check::model::engine::sweep_engine;
use arm_check::model::sweep::{sweep_all, SweepReport};
use arm_check::model::Counterexample;

/// Per-pass wall-clock budget: each proof must stay cheap enough to
/// gate every PR.
const SWEEP_BUDGET_MS: u64 = 60_000;

fn workspace_root() -> PathBuf {
    // xtask always runs from within the workspace via the cargo alias;
    // the manifest dir is crates/xtask.
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .ancestors()
        .nth(2)
        .expect("invariant: crates/xtask sits two levels below the root")
        .to_path_buf()
}

fn cargo() -> std::ffi::OsString {
    std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into())
}

/// Clippy carries most of the domain policy: the policy line in each
/// target crate's `lib.rs` plus `clippy.toml` (DESIGN.md §8.1).
fn run_clippy_pass(root: &Path) -> Result<(), ExitCode> {
    println!("==> clippy (domain policy, -D warnings)");
    let args = [
        "clippy",
        "--workspace",
        "--all-targets",
        "--",
        "-D",
        "warnings",
    ];
    match Command::new(cargo()).current_dir(root).args(args).status() {
        Ok(s) if s.success() => {
            println!("    clean");
            Ok(())
        }
        outcome => {
            eprintln!("error: cargo clippy failed: {outcome:?}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Clippy, then the scan for the rules clippy cannot express, then the
/// schema fingerprints.
fn run_lint_passes(root: &Path, bless: bool) -> Result<(), ExitCode> {
    run_clippy_pass(root)?;
    run_lint_pass(root)?;
    run_fingerprint_pass(root, bless)
}

fn run_lint_pass(root: &Path) -> Result<(), ExitCode> {
    println!("==> domain lint scan ({})", root.display());
    match run_lints(root) {
        Ok(findings) if findings.is_empty() => {
            println!("    clean");
            Ok(())
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("error: {} domain lint finding(s)", findings.len());
            Err(ExitCode::FAILURE)
        }
        Err(e) => {
            eprintln!("error: lint walk failed: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn run_fingerprint_pass(root: &Path, bless: bool) -> Result<(), ExitCode> {
    if bless {
        println!("==> schema fingerprints (blessing)");
        return match bless_fingerprints(root) {
            Ok(changed) if changed.is_empty() => {
                println!("    already current");
                Ok(())
            }
            Ok(changed) => {
                for c in &changed {
                    println!("    blessed {c}");
                }
                println!("    commit the updated fingerprints with the schema change");
                Ok(())
            }
            Err(e) => {
                eprintln!("error: blessing fingerprints failed: {e}");
                Err(ExitCode::FAILURE)
            }
        };
    }
    println!("==> schema fingerprints");
    match check_fingerprints(root) {
        Ok(findings) if findings.is_empty() => {
            println!("    current");
            Ok(())
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("error: {} schema drift finding(s)", findings.len());
            Err(ExitCode::FAILURE)
        }
        Err(e) => {
            eprintln!("error: fingerprint check failed: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn write_trace(trace_dir: Option<&Path>, cx: &Counterexample) {
    let Some(dir) = trace_dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create trace dir {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!(
        "counterexample-{}.json",
        cx.model.replace(['/', ' '], "_")
    ));
    match serde_json::to_string(cx) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("    trace written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize counterexample: {e}"),
    }
}

/// Report one sweep's outcome against the shared budget.
fn settle_sweep(
    pass: &str,
    outcome: Result<SweepReport, Box<Counterexample>>,
    trace_dir: Option<&Path>,
) -> Result<(), ExitCode> {
    match outcome {
        Ok(r) => {
            println!(
                "    verified: {} runs, {} states, {} transitions in {} ms",
                r.runs, r.states, r.transitions, r.elapsed_ms
            );
            if r.elapsed_ms > SWEEP_BUDGET_MS {
                eprintln!(
                    "error: {pass} sweep exceeded its {SWEEP_BUDGET_MS} ms \
                     budget ({} ms)",
                    r.elapsed_ms
                );
                return Err(ExitCode::FAILURE);
            }
            Ok(())
        }
        Err(cx) => {
            eprintln!("{cx}");
            write_trace(trace_dir, &cx);
            eprintln!("error: {pass} model checking found a violation");
            Err(ExitCode::FAILURE)
        }
    }
}

fn run_model_pass(trace_dir: Option<&Path>) -> Result<(), ExitCode> {
    println!("==> bounded model check: maxmin/admission protocols");
    settle_sweep("protocol", sweep_all(), trace_dir)?;
    println!("==> bounded model check: maxmin engine");
    settle_sweep("engine", sweep_engine(), trace_dir)
}

/// Run one `arm-bench` binary from `root` and return its stdout.
fn bench_stdout(root: &Path, bin: &str, args: &[&str]) -> Result<Vec<u8>, String> {
    let out = Command::new(cargo())
        .current_dir(root)
        .args([
            "run",
            "--quiet",
            "--release",
            "-p",
            "arm-bench",
            "--bin",
            bin,
            "--",
        ])
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if out.status.success() {
        Ok(out.stdout)
    } else {
        Err(format!(
            "{bin} exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ))
    }
}

/// Regenerate every reference output named by a committed file under
/// `results/`. With `check`, the fresh bytes are compared against the
/// committed ones and nothing in the checkout is written.
fn regenerate_results(root: &Path, check: bool) -> Result<(), String> {
    let results = root.join("results");
    let mut names: Vec<String> = std::fs::read_dir(&results)
        .map_err(|e| format!("cannot list {}: {e}", results.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|n| n == "sample_scenario.json" || (n.starts_with("expt_") && n.ends_with(".txt")))
        .collect();
    names.sort();
    let mut stale = 0usize;
    for name in &names {
        let fresh = match name.strip_suffix(".txt") {
            Some(bin) => bench_stdout(root, bin, &[]),
            None => bench_stdout(root, "run_scenario", &["--emit-sample"]),
        }?;
        let path = results.join(name);
        if !check {
            std::fs::write(&path, &fresh)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("    wrote results/{name}");
        } else if std::fs::read(&path).ok().as_deref() == Some(fresh.as_slice()) {
            println!("    results/{name}: identical");
        } else {
            println!("results/{name}: differs from a fresh run");
            stale += 1;
        }
    }
    if stale > 0 {
        return Err(format!(
            "{stale} reference output(s) differ; a behaviour change must ship \
             with `cargo xtask results` and an EXPERIMENTS.md note"
        ));
    }
    Ok(())
}

fn run_results_pass(root: &Path, check: bool) -> Result<(), ExitCode> {
    let mode = if check { "checking" } else { "regenerating" };
    println!("==> results/ ({mode})");
    regenerate_results(root, check).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// The non-test lines of one source file, and the files its
/// `#[cfg(test)] mod name;` items load (by `#[path]` or by name). An
/// inline `#[cfg(test)] mod name { … }` is left out whole, attribute
/// included.
fn count_file(path: &Path, text: &str) -> (usize, Vec<PathBuf>) {
    let dir = path.parent().unwrap_or(Path::new("."));
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let own_dir = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let (mut count, mut tests, mut k) = (0, Vec::new(), 0);
    while k < lines.len() {
        if lines[k] == "#[cfg(test)]" {
            // The item the attribute is on, past its other attributes.
            let mut item = k + 1;
            let mut path_attr = None;
            while item < lines.len() && lines[item].starts_with("#[") {
                if let Some(p) = lines[item].strip_prefix("#[path = \"") {
                    path_attr = p.strip_suffix("\"]").map(|p| dir.join(p));
                }
                item += 1;
            }
            let decl = lines.get(item).copied().unwrap_or("");
            let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
            // The declaration's own lines count; the file it loads
            // does not.
            if let Some(name) = decl.strip_prefix("mod ").and_then(|d| d.strip_suffix(';')) {
                tests.push(path_attr.unwrap_or_else(|| own_dir.join(format!("{name}.rs"))));
            } else if decl.starts_with("mod ") && decl.ends_with('{') {
                let mut depth = 0;
                k = item;
                while k < lines.len() {
                    depth += lines[k].matches('{').count();
                    depth -= lines[k].matches('}').count().min(depth);
                    k += 1;
                    if depth == 0 {
                        break;
                    }
                }
                continue;
            }
        }
        if !lines[k].is_empty() && !lines[k].starts_with("//") {
            count += 1;
        }
        k += 1;
    }
    (count, tests)
}

/// Print each crate's non-test line count and the total.
fn run_loc(root: &Path) -> Result<(), ExitCode> {
    let fail = |e: std::io::Error| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    };
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .and_then(|d| d.map(|e| e.map(|e| e.path())).collect())
        .map_err(fail)?;
    crates.sort();
    let mut total = 0;
    for krate in crates.iter().filter(|c| c.join("src").is_dir()) {
        let manifest = std::fs::read_to_string(krate.join("Cargo.toml")).map_err(fail)?;
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|n| n.strip_suffix('"'))
            .unwrap_or("?");
        let mut files = Vec::new();
        collect_rs(&krate.join("src"), &mut files).map_err(fail)?;
        let (mut lines, mut counted, mut test_files) = (0, Vec::new(), Vec::new());
        for f in &files {
            let text = std::fs::read_to_string(f).map_err(fail)?;
            let (n, tests) = count_file(f, &text);
            counted.push(n);
            test_files.extend(tests);
        }
        for (f, n) in files.iter().zip(counted) {
            if !test_files.contains(f) {
                lines += n;
            }
        }
        println!("{name:<20} {lines:>7}");
        total += lines;
    }
    println!("{:<20} {total:>7}", "total");
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "check".to_string());
    let mut trace_dir = None;
    let mut bless = false;
    let mut check_results = false;
    let mut rest = Vec::new();
    while let Some(a) = args.next() {
        if a == "--trace-dir" {
            match args.next() {
                Some(d) => trace_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("error: --trace-dir needs a path");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--bless-fingerprints" {
            bless = true;
        } else if a == "--check" && cmd == "results" {
            check_results = true;
        } else {
            rest.push(a);
        }
    }
    if !rest.is_empty() {
        eprintln!("error: unexpected arguments: {rest:?}");
        return ExitCode::FAILURE;
    }
    if bless && (cmd == "model" || cmd == "results") {
        eprintln!("error: --bless-fingerprints applies to `check`/`lint` only");
        return ExitCode::FAILURE;
    }

    let root = workspace_root();
    let td = trace_dir.as_deref();
    let result = match cmd.as_str() {
        "check" => run_lint_passes(&root, bless).and_then(|()| run_model_pass(td)),
        "lint" => run_lint_passes(&root, bless),
        "model" => run_model_pass(td),
        "results" => run_results_pass(&root, check_results),
        "loc" => run_loc(&root),
        "help" | "--help" | "-h" => {
            println!(
                "usage: cargo xtask [check|lint|model] [--trace-dir DIR] \
                 [--bless-fingerprints]\n       cargo xtask results [--check]\n       \
                 cargo xtask loc"
            );
            Ok(())
        }
        other => {
            eprintln!("error: unknown subcommand `{other}` (try `cargo xtask help`)");
            Err(ExitCode::FAILURE)
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
