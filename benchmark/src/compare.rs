//! `bench compare A.json B.json`: hold two suite reports against the
//! bounds of `BENCHMARK.json`, one row per workload × metric.
//!
//! End-to-end metrics: B's median may be worse than A's by at most the
//! metric's bound. Where either side's run-to-run spread (quartile
//! distance over median) is wider than the bound the row is
//! `unresolved`, not `ok` — unless every run of B reads better than
//! every run of A. Per-layer metrics that are counts of the program's
//! own work must agree exactly.

use std::fs;
use std::process::ExitCode;

use serde::Value;

use crate::cli::field;
use crate::stats;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether higher or lower is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of A's median.
    pub bound: f64,
}

/// The verdict of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spread narrower than the bound.
    Ok,
    /// Every run of B is better than every run of A.
    Better,
    /// Worse than the bound allows.
    Worse,
    /// The spread is wider than the bound: nothing can be said.
    Unresolved,
}

/// By how much B is worse than A, as a share of A (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Judge one end-to-end metric from the runs of both sides.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, Verdict) {
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let worse_by = worsening(med(a), med(b), bound.higher_is_better);
    let all_better = a.iter().all(|x| {
        b.iter()
            .all(|y| if bound.higher_is_better { y > x } else { y < x })
    });
    // One run a side has no spread to judge by.
    let wide = [a, b]
        .iter()
        .any(|v| !stats::spread(v).is_some_and(|s| s <= bound.bound));
    let verdict = if all_better && a.len() > 1 && b.len() > 1 {
        Verdict::Better
    } else if wide {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// A per-layer metric that counts the program's own work, and so must
/// repeat exactly from run to run.
pub fn is_exact(name: &str) -> bool {
    const SUFFIXES: [&str; 5] = [".count", ".spans", ".bytes", ".rounds", ".bytes_per_event"];
    const NAMES: [&str; 8] = [
        "blocked_share",
        "dropped_share",
        "error_share",
        "accepted",
        "rejected",
        "handoff_attempts",
        "requests",
        "reservation.claims_consumed",
    ];
    name.starts_with("alloc.")
        || SUFFIXES.iter().any(|s| name.ends_with(s))
        || NAMES.contains(&name)
}

/// The end-to-end bounds of a `BENCHMARK.json`.
pub fn bounds_of(benchmark_json: &Value) -> Vec<Bound> {
    field(benchmark_json, "end_to_end")
        .and_then(Value::as_array)
        .map(|ms| {
            ms.iter()
                .filter_map(|m| {
                    Some(Bound {
                        name: field(m, "name")?.as_str()?.to_string(),
                        higher_is_better: field(m, "better")?.as_str()? == "higher",
                        bound: field(m, "bound")?.as_f64()?,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

fn values_of(report: &Value, workload: &str, metric: &str) -> Vec<f64> {
    field(report, "workloads")
        .and_then(|w| field(w, workload))
        .and_then(|w| field(w, "end_to_end"))
        .and_then(|e| field(e, metric))
        .and_then(|m| field(m, "values"))
        .and_then(Value::as_array)
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// `bench compare A.json B.json [--bounds BENCHMARK.json]`.
pub fn main(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            match it.next() {
                Some(p) => bounds_path = p.clone(),
                None => {
                    eprintln!("bench compare: --bounds needs a value");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        eprintln!("usage: bench compare A.json B.json [--bounds BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let (a, b, benchmark) = match (load(a_path), load(b_path), load(&bounds_path)) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench compare: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let bounds = bounds_of(&benchmark);
    let workloads: Vec<String> = field(&a, "workloads")
        .and_then(Value::as_object)
        .map(|ws| ws.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();

    let mut bad = 0;
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in &workloads {
        for bound in &bounds {
            let (va, vb) = (values_of(&a, w, &bound.name), values_of(&b, w, &bound.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<14} {:<34} missing on one side", bound.name);
                bad += 1;
                continue;
            }
            let (worse_by, verdict) = judge(&va, &vb, bound);
            if verdict == Verdict::Worse {
                bad += 1;
            }
            println!(
                "{w:<14} {:<34} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                bound.name,
                stats::median(&va).unwrap_or(f64::NAN),
                stats::median(&vb).unwrap_or(f64::NAN),
                100.0 * worse_by,
                100.0 * bound.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "ok (every run better)",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let layer = |r: &Value| -> Vec<(String, f64)> {
            field(r, "workloads")
                .and_then(|ws| field(ws, w))
                .and_then(|x| field(x, "per_layer"))
                .and_then(Value::as_object)
                .map(|ms| {
                    ms.iter()
                        .filter_map(|(k, m)| Some((k.clone(), field(m, "value")?.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let lb = layer(&b);
        for (name, x) in layer(&a).into_iter().filter(|(n, _)| is_exact(n)) {
            let y = lb.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            let same = y == Some(x);
            if !same {
                bad += 1;
            }
            println!(
                "{w:<14} {name:<34} {x:>14.4} {:>14.4} {:>9} {:>7}  {}",
                y.unwrap_or(f64::NAN),
                "",
                "exact",
                if same { "ok" } else { "DIFFERS" }
            );
        }
    }
    if bad > 0 {
        println!("{bad} rows worse than their bound, differing or missing");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_p50_us".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening(100.0, 110.0, false), 0.1);
        assert_eq!(worsening(100.0, 110.0, true), -0.1);
        assert_eq!(worsening(100.0, 90.0, true), 0.1);
        assert_eq!(worsening(0.0, 0.0, true), 0.0);
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.7];
        assert_eq!(judge(&a, &same, &lower(0.1)).1, Verdict::Ok);
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&a, &slow, &lower(0.1)).1, Verdict::Worse);
        let fast = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&a, &fast, &lower(0.1)).1, Verdict::Better);
        // Spread wider than the bound and overlapping: nothing to say.
        let noisy = [70.0, 130.0, 100.0, 85.0, 115.0];
        assert_eq!(judge(&a, &noisy, &lower(0.1)).1, Verdict::Unresolved);
        // A single run a side says nothing either way.
        assert_eq!(
            judge(&[100.0], &[150.0], &lower(0.1)).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&[100.0], &[50.0], &lower(0.1)).1, Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_are_the_counts() {
        assert!(is_exact("server.checkpoint.count"));
        assert!(is_exact("qos.maxmin.spans"));
        assert!(is_exact("alloc.apply.per_event"));
        assert!(is_exact("blocked_share"));
        assert!(!is_exact("server.apply.ns_per_event"));
        assert!(!is_exact("traced.passes"));
        assert!(!is_exact("trace.overhead_share"));
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let v: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("json");
        assert_eq!(
            bounds_of(&v),
            vec![Bound {
                name: "ops_per_s".into(),
                higher_is_better: true,
                bound: 0.1
            }]
        );
    }
}
