//! The pass schedule and the reduction of passes to metrics.
//!
//! An untraced run (`bench`) repeats plain passes until the run time is
//! spent and reduces them to the end-to-end metrics. A traced run
//! (`bench-traced`) starts with one *count pass* (spans recorded,
//! observer off: the source of every number that must repeat exactly)
//! and then alternates traced passes (spans recorded, `Obs::recording`
//! on) with plain passes over the same inputs, so the tracing overhead
//! is measured inside the run.

use std::io;
use std::time::Instant;

use crate::probe::{Ledger, NoProbe, Recorder};
use crate::stats;
use crate::workload::{Counts, Pass, Phases, Workload};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The name in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// The unit in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("server.parse.ns_per_event", "ns"),
    ("server.backlog.ns_per_event", "ns"),
    ("server.reject.ns_per_line", "ns"),
    ("server.reject.count", "count"),
    ("server.apply.ns_per_event", "ns"),
    ("core.appear.ns_per_event", "ns"),
    ("core.appear.count", "count"),
    ("core.move.ns_per_event", "ns"),
    ("core.move.count", "count"),
    ("core.depart.ns_per_event", "ns"),
    ("core.depart.count", "count"),
    ("core.channel_change.ns_per_event", "ns"),
    ("core.channel_change.count", "count"),
    ("core.slot_tick.ns_per_tick", "ns"),
    ("core.slot_tick.count", "count"),
    ("server.journal.ns_per_event", "ns"),
    ("server.journal.bytes_per_event", "B"),
    ("server.checkpoint.count", "count"),
    ("server.checkpoint.bytes", "B"),
    ("server.snapshot.capture_ms", "ms"),
    ("server.snapshot.encode_ms", "ms"),
    ("server.checkpoint.write_ms", "ms"),
    ("server.checkpoint.ns_per_event", "ns"),
    ("server.restore.decode_ms", "ms"),
    ("server.restore.rebuild_ms", "ms"),
    ("server.replay.ns_per_event", "ns"),
    ("server.pipe.events_per_s", "1/s"),
    ("core.claim_refresh.spans", "count"),
    ("core.claim_refresh.ns_per_span", "ns"),
    ("core.claim_refresh.busy_s", "s"),
    ("core.claim_refresh.share", "%"),
    ("core.handoff.spans", "count"),
    ("core.handoff.ns_per_span", "ns"),
    ("core.handoff.busy_s", "s"),
    ("qos.admission.spans", "count"),
    ("qos.admission.ns_per_span", "ns"),
    ("qos.admission.busy_s", "s"),
    ("qos.maxmin.spans", "count"),
    ("qos.maxmin.ns_per_span", "ns"),
    ("qos.maxmin.busy_s", "s"),
    ("qos.maxmin.share", "%"),
    ("qos.maxmin.rounds", "count"),
    ("profiles.prediction_update.spans", "count"),
    ("profiles.prediction_update.ns_per_span", "ns"),
    ("reservation.claims_consumed", "count"),
    ("server.persistence.share", "%"),
    ("alloc.parse.per_event", "count"),
    ("alloc.apply.per_event", "count"),
    ("alloc.journal.per_event", "count"),
    ("alloc.checkpoint.per_checkpoint", "count"),
    ("alloc.restore.per_recovery", "count"),
    ("trace.overhead_share", "%"),
    ("ledger.residual_share", "%"),
    ("blocked_share", "%"),
    ("dropped_share", "%"),
    ("error_share", "%"),
    ("traced.ops_per_s", "1/s"),
    ("traced.passes", "count"),
    ("accepted", "count"),
    ("rejected", "count"),
    ("handoff_attempts", "count"),
    ("requests", "count"),
];

/// How to run.
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measure for this long.
    pub seconds: f64,
    /// Smoke mode: one pass (one traced pair), whatever the clock says.
    pub quick: bool,
    /// The process's allocation counter: present in `bench-traced`,
    /// which makes the run a traced one.
    pub alloc_count: Option<fn() -> u64>,
}

/// What a run produced.
pub struct Outcome {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// The first few mismatches.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Decision counts of one pass.
    pub counts: Counts,
    /// The spans of a traced run.
    pub recorder: Option<Recorder>,
    /// Human-readable extras (the ledger table of a traced run).
    pub notes: Vec<String>,
}

/// Passes folded together.
#[derive(Default)]
struct Totals {
    passes: u64,
    ops: u64,
    wall_ns: u64,
    /// The fastest service time seen for each operation of the input.
    best_ns: Vec<u32>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    phases: Phases,
}

impl Totals {
    fn absorb(&mut self, pass: Pass) {
        self.passes += 1;
        self.ops += pass.ops;
        self.wall_ns += pass.wall_ns;
        if self.best_ns.is_empty() {
            self.best_ns.clone_from(&pass.lat_ns);
        } else {
            for (best, now) in self.best_ns.iter_mut().zip(&pass.lat_ns) {
                *best = (*best).min(*now);
            }
        }
        self.note(&pass);
        for (name, (spans, busy)) in pass.phases {
            let e = self.phases.entry(name).or_default();
            e.0 += spans;
            e.1 += busy;
        }
    }

    /// Take over a pass's checks only.
    fn note(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for p in &pass.problems {
            if self.problems.len() < 16 {
                self.problems.push(p.clone());
            }
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Every pass must repeat the first one's report.
fn check_repeat(first: &mut Option<String>, pass: &mut Pass) {
    match first {
        None => *first = Some(pass.fingerprint.clone()),
        Some(first) => {
            pass.attempted += 1;
            if *first != pass.fingerprint {
                pass.failed += 1;
                pass.problems
                    .push("a pass did not repeat the first pass's report".to_string());
            }
        }
    }
}

/// Peak resident set size of this process, megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's clock: measuring time, and the set-ups repeated inside it.
///
/// The first set-up makes the input. The others (same seed, result
/// dropped) are spaced evenly over the run, between passes, and their
/// time does not count as measuring time. Like an operation, set-up
/// counts at the fastest time seen: this machine's speed drifts over
/// seconds, and over a 20 s run the fastest of fifteen 50 ms set-ups
/// repeats within 3 % where their median moves by 30 %.
struct Clock {
    setups: Vec<f64>,
    started: Instant,
    /// Seconds of set-up since `started`.
    in_setup: f64,
}

impl Clock {
    /// Make the input (the first set-up) and start measuring.
    fn start<W: Workload>(w: &mut W, seed: u64) -> io::Result<(Self, W::Input)> {
        let t0 = Instant::now();
        let input = w.prepare(seed)?;
        let clock = Clock {
            setups: vec![t0.elapsed().as_secs_f64()],
            started: Instant::now(),
            in_setup: 0.0,
        };
        Ok((clock, input))
    }

    /// Called between passes: set up once more if one is due (a traced
    /// run reports no set-up time and skips it), then say whether the
    /// measuring time is spent.
    fn spent<W: Workload>(&mut self, w: &mut W, opt: &Options) -> io::Result<bool> {
        if opt.quick {
            return Ok(true);
        }
        let measured = self.started.elapsed().as_secs_f64() - self.in_setup;
        let due = opt.seconds * self.setups.len() as f64 / W::SETUPS as f64;
        if opt.alloc_count.is_none() && self.setups.len() < W::SETUPS && measured >= due {
            let t0 = Instant::now();
            drop(w.prepare(opt.seed)?);
            let took = t0.elapsed().as_secs_f64();
            self.setups.push(took);
            self.in_setup += took;
        }
        Ok(measured >= opt.seconds)
    }
}

/// Set up, measure, reduce.
pub fn run<W: Workload>(w: &mut W, opt: &Options) -> io::Result<Outcome> {
    let (mut clock, input) = Clock::start(w, opt.seed)?;
    let mut first_report = None;

    let Some(alloc_count) = opt.alloc_count else {
        let mut plain = Totals::default();
        let mut first = Pass::default();
        loop {
            let mut pass = w.pass(&input, first_report.is_none(), false, &mut NoProbe)?;
            check_repeat(&mut first_report, &mut pass);
            if plain.passes == 0 {
                first.counts.clone_from(&pass.counts);
                first.fingerprint.clone_from(&pass.fingerprint);
            }
            plain.absorb(pass);
            if clock.spent(w, opt)? {
                break;
            }
        }
        w.finish(&input, &mut first)?;
        plain.note(&first);
        // Every pass does the same work, operation for operation, and
        // this machine's neighbours slow it in bursts; so each
        // operation counts with the fastest service time any pass saw
        // for it, and the metrics describe the undisturbed program.
        let best_wall_s: f64 = plain.best_ns.iter().map(|n| f64::from(*n)).sum::<f64>() / 1e9;
        let sorted = stats::sorted_us(&plain.best_ns);
        let values = [
            (plain.ops / plain.passes) as f64 / best_wall_s,
            stats::percentile(&sorted, 0.5).expect("one operation ran"),
            stats::percentile(&sorted, W::TAIL).expect("one operation ran"),
            peak_rss_mb(),
            clock.setups.iter().copied().fold(f64::INFINITY, f64::min),
        ];
        let beyond = stats::beyond(sorted.len(), W::TAIL) as u64 * plain.passes;
        let mut notes = vec![
            format!(
                "{}: {} passes over {} operations each, each operation counted at its fastest; \
                 tail = p{} ({beyond} timed samples beyond it)",
                W::NAME,
                plain.passes,
                sorted.len(),
                W::TAIL * 100.0
            ),
            format!(
                "raw mean over all passes: {:.1} ops/s (undisturbed: {:.1})",
                plain.ops_per_s(),
                values[0]
            ),
        ];
        notes.push(format!(
            "set-up: {} times over the run, counted at its fastest; median {:.4} s",
            clock.setups.len(),
            stats::median(&clock.setups).expect("the first set-up ran")
        ));
        if beyond < 10 {
            notes.push("note: fewer than ten samples lie beyond the tail in this run".to_string());
        }
        return Ok(Outcome {
            attempted: plain.attempted,
            failed: plain.failed,
            problems: plain.problems,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|((name, unit), value)| Metric {
                    name: (*name).to_string(),
                    value,
                    unit,
                })
                .collect(),
            counts: first.counts,
            recorder: None,
            notes,
        });
    };

    let mut rec = Recorder::new(alloc_count);
    // The count pass: spans on, observer off.
    let mut count_pass = w.pass(&input, true, false, &mut rec)?;
    check_repeat(&mut first_report, &mut count_pass);
    let count_ledger = Ledger::from_spans(rec.spans());
    let mut first = Pass {
        counts: count_pass.counts.clone(),
        fingerprint: count_pass.fingerprint.clone(),
        journal_bytes: count_pass.journal_bytes,
        checkpoint_bytes: count_pass.checkpoint_bytes,
        ..Default::default()
    };
    let mut checks = Totals::default();
    checks.note(&count_pass);
    let mut traced = Totals::default();
    let mut plain = Totals::default();
    let mut first_traced: Option<(Phases, u64)> = None;
    loop {
        let mut pass = w.pass(&input, false, true, &mut rec)?;
        check_repeat(&mut first_report, &mut pass);
        if first_traced.is_none() {
            first_traced = Some((pass.phases.clone(), pass.rounds));
        }
        traced.absorb(pass);
        let mut pass = w.pass(&input, false, false, &mut NoProbe)?;
        check_repeat(&mut first_report, &mut pass);
        plain.absorb(pass);
        if clock.spent(w, opt)? {
            break;
        }
    }
    let extra = w.finish(&input, &mut first)?;
    checks.note(&first);
    for t in [&traced, &plain] {
        checks.attempted += t.attempted;
        checks.failed += t.failed;
        checks.problems.extend(t.problems.iter().cloned());
    }

    // Timing rows come from every recorded pass; rows that must repeat
    // exactly from the count pass alone.
    let timed = Ledger::from_spans(rec.spans());
    let timed_wall = traced.wall_ns + count_pass.wall_ns;
    let (first_phases, rounds) = first_traced.expect("one traced pass ran");
    let phase = |phases: &Phases, prefix: &str| -> (u64, f64) {
        phases
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold((0, 0.0), |acc, (_, (s, b))| (acc.0 + s, acc.1 + b))
    };
    let events = timed.row("event").count.max(1) as f64;
    let c = &first.counts;
    let count = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let share = |num: f64, den: f64| if den > 0.0 { 100.0 * num / den } else { 0.0 };
    let apply_allocs = {
        let row = count_ledger.row("server.apply");
        if row.count > 0 {
            row.allocs_per()
        } else {
            let (n, a) = crate::workload::ADAPT_OUTER
                .iter()
                .map(|name| count_ledger.row(name))
                .fold((0, 0), |acc, r| (acc.0 + r.count, acc.1 + r.allocs));
            if n > 0 {
                a as f64 / n as f64
            } else {
                0.0
            }
        }
    };
    let mut value = std::collections::BTreeMap::<String, f64>::new();
    let mut put = |name: &str, v: f64| {
        value.insert(name.to_string(), v);
    };
    // Mean duration of a span, in the metric's unit.
    for (name, span, per_ns) in [
        ("server.parse.ns_per_event", "server.parse", 1.0),
        ("server.backlog.ns_per_event", "server.backlog", 1.0),
        ("server.reject.ns_per_line", "reject", 1.0),
        ("server.apply.ns_per_event", "server.apply", 1.0),
        ("core.appear.ns_per_event", "core.appear", 1.0),
        ("core.move.ns_per_event", "core.move", 1.0),
        ("core.depart.ns_per_event", "core.depart", 1.0),
        (
            "core.channel_change.ns_per_event",
            "core.channel_change",
            1.0,
        ),
        ("core.slot_tick.ns_per_tick", "core.slot_tick", 1.0),
        ("server.journal.ns_per_event", "server.journal", 1.0),
        ("server.replay.ns_per_event", "server.replay", 1.0),
        (
            "server.snapshot.capture_ms",
            "server.snapshot.capture",
            1e-6,
        ),
        ("server.snapshot.encode_ms", "server.snapshot.encode", 1e-6),
        (
            "server.checkpoint.write_ms",
            "server.checkpoint.write",
            1e-6,
        ),
        ("server.restore.decode_ms", "server.restore.decode", 1e-6),
        ("server.restore.rebuild_ms", "server.restore.rebuild", 1e-6),
    ] {
        put(name, timed.row(span).ns_per() * per_ns);
    }
    // How often a span occurred in the count pass.
    for (name, span) in [
        ("server.reject.count", "reject"),
        ("core.appear.count", "core.appear"),
        ("core.move.count", "core.move"),
        ("core.depart.count", "core.depart"),
        ("core.channel_change.count", "core.channel_change"),
        ("core.slot_tick.count", "core.slot_tick"),
        ("server.checkpoint.count", "server.checkpoint"),
    ] {
        put(name, count_ledger.row(span).count as f64);
    }
    // Allocations per span in the count pass.
    for (name, span) in [
        ("alloc.parse.per_event", "server.parse"),
        ("alloc.journal.per_event", "server.journal"),
        ("alloc.checkpoint.per_checkpoint", "server.checkpoint"),
        ("alloc.restore.per_recovery", "recovery"),
    ] {
        put(name, count_ledger.row(span).allocs_per());
    }
    put("alloc.apply.per_event", apply_allocs);
    put(
        "server.journal.bytes_per_event",
        if count("accepted") > 0.0 && first.journal_bytes > 0 {
            first.journal_bytes as f64 / count("accepted")
        } else {
            0.0
        },
    );
    put("server.checkpoint.bytes", first.checkpoint_bytes as f64);
    put(
        "server.checkpoint.ns_per_event",
        timed.row("server.checkpoint").busy_ns as f64 / events,
    );
    put("server.pipe.events_per_s", 0.0);
    let traced_wall_us = traced.wall_ns as f64 / 1e3;
    for (name, prefix, with_busy) in [
        ("core.claim_refresh", "claim-refresh", true),
        ("core.handoff", "handoff", true),
        ("qos.admission", "admission", true),
        ("qos.maxmin", "maxmin", true),
        ("profiles.prediction_update", "prediction-update", false),
    ] {
        let (spans, busy_us) = phase(&traced.phases, prefix);
        put(
            &format!("{name}.spans"),
            phase(&first_phases, prefix).0 as f64,
        );
        put(
            &format!("{name}.ns_per_span"),
            if spans > 0 {
                busy_us * 1e3 / spans as f64
            } else {
                0.0
            },
        );
        if with_busy {
            put(&format!("{name}.busy_s"), busy_us / 1e6);
        }
        if matches!(name, "core.claim_refresh" | "qos.maxmin") {
            put(&format!("{name}.share"), share(busy_us, traced_wall_us));
        }
    }
    put("qos.maxmin.rounds", rounds as f64);
    put("reservation.claims_consumed", count("claims_consumed"));
    put(
        "server.persistence.share",
        share(
            timed.busy_ns_of(&["server.journal", "server.checkpoint"]) as f64,
            timed_wall as f64,
        ),
    );
    put(
        "trace.overhead_share",
        100.0 * (1.0 - traced.ops_per_s() / plain.ops_per_s()),
    );
    put(
        "ledger.residual_share",
        100.0 * timed.residual_share(timed_wall, W::OUTER),
    );
    put("blocked_share", share(count("blocked"), count("requests")));
    put(
        "dropped_share",
        share(count("dropped"), count("handoff_attempts")),
    );
    put(
        "error_share",
        share(checks.failed as f64, checks.attempted as f64),
    );
    put("traced.ops_per_s", traced.ops_per_s());
    put("traced.passes", traced.passes as f64);
    for key in ["accepted", "rejected", "handoff_attempts", "requests"] {
        put(key, count(key));
    }
    for (name, v) in extra {
        put(&name, v);
    }

    let mut dominance = Vec::new();
    for (metric, at_least, percent) in
        W::DOMINANCE
            .iter()
            .chain(&[("ledger.residual_share", false, 5.0)])
    {
        let got = value.get(*metric).copied().unwrap_or(0.0);
        let holds = if *at_least {
            got >= *percent
        } else {
            got <= *percent
        };
        dominance.push(format!(
            "dominance: {metric} = {got:.2}, designed {} {percent}: {}",
            if *at_least { ">=" } else { "<=" },
            if holds { "holds" } else { "NOT MET" }
        ));
    }

    let mut notes = vec![format!(
        "{:<28} {:>9} {:>12} {:>12} {:>12}",
        "span (recorded passes)", "count", "busy ms", "self ms", "ns/span"
    )];
    for (name, row) in timed.rows() {
        notes.push(format!(
            "{name:<28} {:>9} {:>12.3} {:>12.3} {:>12.0}",
            row.count,
            row.busy_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.ns_per()
        ));
    }
    notes.push(format!(
        "{}: loop wall {:.3} s over 1 count pass + {} traced passes; plain {:.0} ops/s, traced {:.0} ops/s",
        W::NAME,
        timed_wall as f64 / 1e9,
        traced.passes,
        plain.ops_per_s(),
        traced.ops_per_s()
    ));
    notes.extend(dominance);

    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name: (*name).to_string(),
                value: value.get(*name).copied().unwrap_or(0.0),
                unit,
            })
            .collect(),
        counts: first.counts,
        recorder: Some(rec),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::field;
    use serde::Value;

    /// The names and units the binaries print are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = field(&v, key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        field(m, k)
                            .and_then(Value::as_str)
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = field(&v, "workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::cli::WORKLOADS);
    }

    #[test]
    fn totals_keep_the_fastest_time_of_each_operation() {
        let mut t = Totals::default();
        for lat_ns in [vec![30, 50, 900], vec![40, 45, 700], vec![35, 60, 800]] {
            t.absorb(Pass {
                wall_ns: 1000,
                ops: 3,
                lat_ns,
                ..Default::default()
            });
        }
        assert_eq!(t.best_ns, vec![30, 45, 700]);
        assert_eq!(t.passes, 3);
        assert_eq!(t.ops, 9);
    }

    #[test]
    fn a_pass_that_differs_from_the_first_is_a_failure() {
        let mut first = None;
        let mut a = Pass {
            fingerprint: "x".into(),
            ..Default::default()
        };
        check_repeat(&mut first, &mut a);
        assert_eq!((a.attempted, a.failed), (0, 0));
        let mut b = Pass {
            fingerprint: "x".into(),
            ..Default::default()
        };
        check_repeat(&mut first, &mut b);
        assert_eq!((b.attempted, b.failed), (1, 0));
        let mut c = Pass {
            fingerprint: "y".into(),
            ..Default::default()
        };
        check_repeat(&mut first, &mut c);
        assert_eq!((c.attempted, c.failed), (1, 1));
    }
}
