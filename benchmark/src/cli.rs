//! Command line of `bench` and `bench-traced`.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--bless]
//! bench [--seed N] [--seconds S] [--reps R] [--quick] [--bless] [--out FILE]
//! bench compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! With `--workload` it is one run of one workload in this process (the
//! form the driver calls): metrics by name and unit, then one JSON
//! object on the last line. Without, it is the whole suite: every
//! workload `--reps` times in a process of its own (seed N+i), then
//! once traced, reduced to medians and quartiles.

use std::fs;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

use crate::compare;
use crate::run::{self, Metric, Options, Outcome};
use crate::stats;
use crate::workload::{AdaptRush, Counts, CrashRecover, OfficeWeek, WingRush};

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["office_week", "wing_rush", "adapt_rush", "crash_recover"];

/// The seed `expected.json` pins, and the default of `--seed`.
pub const DEFAULT_SEED: u64 = 42;

/// The counts pinned at [`DEFAULT_SEED`], compiled in so that a copied
/// executable still has them.
const EXPECTED: &str = include_str!("../expected.json");

fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    bless: bool,
    reps: usize,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--bless] [--reps R] [--out FILE]\n       \
         bench compare A.json B.json [--bounds BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: None,
        quick: false,
        bless: false,
        reps: 5,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--reps" => out.reps = value()?.parse().map_err(|_| "--reps must be an integer")?,
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--quick" => out.quick = true,
            "--bless" => out.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if out.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(out)
}

/// The directory the executable sits in (`<target>/release`).
fn exe_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf))
}

/// Entry point of both binaries. `alloc_count` is the allocation
/// counter of `bench-traced`; `bench` has none.
pub fn main_with(alloc_count: Option<fn() -> u64>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return usage();
        }
    };
    let traced = alloc_count.is_some();
    if args.trace.is_some_and(|t| t != traced) {
        eprintln!(
            "bench: --trace {} is the other binary ({}); benchmark/run.sh picks it",
            u8::from(!traced),
            if traced { "bench" } else { "bench-traced" }
        );
        return ExitCode::from(2);
    }
    let result = match &args.workload {
        Some(name) => one(name, &args, alloc_count),
        None => suite(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(name: &str, opt: &Options, work: &Path, bin_dir: &Path) -> io::Result<Outcome> {
    match name {
        "office_week" => run::run(
            &mut OfficeWeek {
                work: work.to_path_buf(),
                run_server: bin_dir.join("run_server"),
            },
            opt,
        ),
        "wing_rush" => run::run(
            &mut WingRush {
                work: work.to_path_buf(),
            },
            opt,
        ),
        "adapt_rush" => run::run(&mut AdaptRush, opt),
        "crash_recover" => run::run(&mut CrashRecover, opt),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {other} (want one of {})",
                WORKLOADS.join(", ")
            ),
        )),
    }
}

/// One run of one workload. `Ok(false)` when an output was wrong.
fn one(name: &str, args: &Args, alloc_count: Option<fn() -> u64>) -> io::Result<bool> {
    let bin_dir = exe_dir()?;
    let work = bin_dir.join(format!("bench-work-{name}-{}", std::process::id()));
    let opt = Options {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        alloc_count,
    };
    let result = dispatch(name, &opt, &work, &bin_dir);
    let _ = fs::remove_dir_all(&work);
    let mut outcome = result?;

    if args.bless {
        bless(name, args.seed, &outcome.counts)?;
        println!(
            "blessed {name} at seed {} in {}",
            args.seed,
            expected_path().display()
        );
    } else {
        check_expected(name, args.seed, &mut outcome);
    }
    if let Some(rec) = &outcome.recorder {
        let path = bin_dir
            .parent()
            .unwrap_or(&bin_dir)
            .join(format!("trace-{name}.jsonl"));
        rec.flush_jsonl(&mut BufWriter::new(fs::File::create(&path)?))?;
        println!("{} spans -> {}", rec.spans().len(), path.display());
    }

    println!(
        "workload {name} seed {} seconds {} ({})",
        args.seed,
        args.seconds,
        if alloc_count.is_some() {
            "traced"
        } else {
            "untraced"
        }
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("WRONG: {p}");
    }
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, &outcome));
    Ok(correct)
}

fn result_line(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// A finite number with all its digits; `0` for anything JSON cannot
/// carry (the run is then reported incorrect).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Look `key` up in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Hold pass 0's counts against `expected.json` when the seed is the
/// pinned one.
fn check_expected(name: &str, seed: u64, outcome: &mut Outcome) {
    let Ok(expected) = serde_json::from_str::<Value>(EXPECTED) else {
        outcome.failed += 1;
        outcome.problems.push("expected.json does not parse".into());
        return;
    };
    if field(&expected, "seed").and_then(Value::as_u64) != Some(seed) {
        return;
    }
    let Some(pinned) = field(&expected, "workloads").and_then(|w| field(w, name)) else {
        outcome
            .notes
            .push(format!("note: expected.json pins nothing for {name}"));
        return;
    };
    for (key, got) in &outcome.counts {
        outcome.attempted += 1;
        let want = field(pinned, key).and_then(Value::as_u64);
        if want != Some(*got) {
            outcome.failed += 1;
            outcome.problems.push(format!(
                "{name}.{key}: expected.json pins {want:?}, this run counted {got}"
            ));
        }
    }
}

/// Rewrite this workload's entry of `expected.json`.
fn bless(name: &str, seed: u64, counts: &Counts) -> io::Result<()> {
    let path = expected_path();
    let old = fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok());
    let same_seed = old
        .as_ref()
        .is_some_and(|o| field(o, "seed").and_then(Value::as_u64) == Some(seed));
    let mut text = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{\n");
    let mut entries = Vec::new();
    for w in WORKLOADS {
        let body = if w == name {
            counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        } else if let Some(kept) = old
            .as_ref()
            .filter(|_| same_seed)
            .and_then(|o| field(o, "workloads"))
            .and_then(|ws| field(ws, w))
            .and_then(Value::as_object)
        {
            kept.iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| format!("\"{k}\": {n}")))
                .collect::<Vec<_>>()
                .join(", ")
        } else {
            continue;
        };
        entries.push(format!("    \"{w}\": {{{body}}}"));
    }
    text.push_str(&entries.join(",\n"));
    text.push_str("\n  }\n}\n");
    fs::write(path, text)
}

/// The last line of a child's standard output, parsed.
fn child_result(exe: &Path, args: &[String]) -> io::Result<(bool, Vec<Metric>, String)> {
    let out = Command::new(exe).args(args).output()?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = text.lines().last().unwrap_or_default();
    let parsed: Value = serde_json::from_str(last).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} {} printed no result ({e}): {}",
                exe.display(),
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            ),
        )
    })?;
    let correct =
        matches!(field(&parsed, "correct"), Some(Value::Bool(true))) && out.status.success();
    let metrics = field(&parsed, "metrics")
        .and_then(Value::as_object)
        .map(|ms| {
            ms.iter()
                .map(|(name, m)| Metric {
                    name: name.clone(),
                    value: field(m, "value")
                        .and_then(Value::as_f64)
                        .unwrap_or(f64::NAN),
                    unit: unit_of(name),
                })
                .collect()
        })
        .unwrap_or_default();
    Ok((correct, metrics, text))
}

fn unit_of(name: &str) -> &'static str {
    run::END_TO_END
        .iter()
        .chain(run::PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Every workload, each run in a process of its own.
fn suite(args: &Args) -> io::Result<bool> {
    let bin_dir = exe_dir()?;
    let bench = bin_dir.join("bench");
    let traced = bin_dir.join("bench-traced");
    let mut all_correct = true;
    let mut report = format!(
        "{{\"seed\":{},\"seconds\":{},\"reps\":{},\"workloads\":{{",
        args.seed,
        json_num(args.seconds),
        args.reps
    );
    for (wi, name) in WORKLOADS.iter().enumerate() {
        let base = |seed: u64, quick: bool| {
            let mut v = vec![
                "--workload".to_string(),
                (*name).to_string(),
                "--seed".to_string(),
                seed.to_string(),
                "--seconds".to_string(),
                args.seconds.to_string(),
            ];
            if quick {
                v.push("--quick".into());
            }
            v
        };
        if args.bless {
            let mut a = base(args.seed, true);
            a.push("--bless".to_string());
            let (_, _, text) = child_result(&bench, &a)?;
            print!("{text}");
            continue;
        }
        let reps = if args.quick { 1 } else { args.reps };
        let mut correct = true;
        let mut samples: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
        for rep in 0..reps {
            let (ok, metrics, text) =
                child_result(&bench, &base(args.seed + rep as u64, args.quick))?;
            if !ok {
                print!("{text}");
            }
            correct &= ok;
            for m in metrics {
                match samples.iter_mut().find(|(n, _, _)| *n == m.name) {
                    Some((_, _, vs)) => vs.push(m.value),
                    None => samples.push((m.name, m.unit, vec![m.value])),
                }
            }
        }
        println!(
            "== {name}: end to end, {reps} runs (seeds {}..) ==",
            args.seed
        );
        println!(
            "{:<16} {:>14} {:>14} {:>14} {:>8}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        let mut e2e = Vec::new();
        for (metric, unit, values) in &samples {
            let median = stats::median(values).unwrap_or(f64::NAN);
            let (q1, _, q3) = stats::quartiles(values).unwrap_or((median, median, median));
            println!(
                "{metric:<16} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%  {unit}  (n={})",
                100.0 * stats::spread(values).unwrap_or(0.0),
                values.len()
            );
            e2e.push(format!(
                "\"{metric}\":{{\"unit\":\"{unit}\",\"median\":{},\"q1\":{},\"q3\":{},\"values\":[{}]}}",
                json_num(median),
                json_num(q1),
                json_num(q3),
                values.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(",")
            ));
        }
        let mut layers = Vec::new();
        if traced.exists() {
            let (ok, metrics, text) = child_result(&traced, &base(args.seed, args.quick))?;
            correct &= ok;
            // The child's own table is the per-layer report.
            let body: Vec<&str> = text.lines().collect();
            println!("== {name}: per layer (traced run, seed {}) ==", args.seed);
            for line in &body[..body.len().saturating_sub(1)] {
                println!("{line}");
            }
            for m in metrics {
                layers.push(format!(
                    "\"{}\":{{\"unit\":\"{}\",\"value\":{}}}",
                    m.name,
                    m.unit,
                    json_num(m.value)
                ));
            }
        } else {
            println!(
                "(no {} next to bench: per-layer run skipped)",
                traced.display()
            );
        }
        println!("{name}: {}", if correct { "correct" } else { "WRONG" });
        all_correct &= correct;
        report.push_str(&format!(
            "{}\"{name}\":{{\"correct\":{correct},\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
            if wi == 0 { "" } else { "," },
            e2e.join(","),
            layers.join(",")
        ));
    }
    report.push_str("}}\n");
    if let (Some(path), false) = (&args.out, args.bless) {
        fs::write(path, report)?;
        println!("report -> {}", path.display());
    }
    Ok(all_correct)
}
