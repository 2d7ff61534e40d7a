//! Schema-stability pin for the `RunReport` artifact.
//!
//! CI uploads run reports and downstream tooling diffs them across PRs,
//! so the field set must never drift silently. Changing the shape means
//! updating the pinned key lists here *and* bumping
//! `arm_obs::SCHEMA_VERSION` in the same change.

use arm_obs::{
    BenchEntry, ChaosSummary, EventCount, EventKind, HistSummary, MetricsSummary, PhaseSummary,
    RunReport, SCHEMA_VERSION,
};

fn keys_of(v: &serde::Value) -> Vec<String> {
    v.as_object()
        .expect("serialized struct is a JSON object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn field<'a>(v: &'a serde::Value, name: &str) -> &'a serde::Value {
    let obj = v.as_object().expect("object");
    &obj.iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("missing field {name}"))
        .1
}

fn populated() -> RunReport {
    let hist = HistSummary {
        count: 1,
        mean: 0.0,
        p50: 0.0,
        p90: 0.0,
        p99: 0.0,
        min: 0.0,
        max: 0.0,
    };
    let mut r = RunReport::new("expt_pin", "schema");
    r.seed = Some(1);
    r.sim_events = Some(2);
    r.metrics = Some(MetricsSummary::default());
    r.phases = vec![PhaseSummary {
        phase: "admission".to_string(),
        spans: 1,
        wall_us: hist.clone(),
        sim_us: hist,
    }];
    r.events = vec![EventCount {
        kind: "AdmitDecision".to_string(),
        count: 1,
    }];
    r.chaos = Some(ChaosSummary::default());
    r.bench = vec![BenchEntry {
        label: "b".to_string(),
        mean_ns: 1.0,
    }];
    r.notes = vec!["n".to_string()];
    r
}

#[test]
fn schema_version_is_pinned() {
    assert_eq!(
        SCHEMA_VERSION, 7,
        "schema version changed: update every pinned key list in this file"
    );
}

#[test]
fn event_taxonomy_is_pinned() {
    let names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        names,
        [
            "AdmitDecision",
            "MaxminRound",
            "AdvertiseSent",
            "UpdateRecv",
            "HandoffOutcome",
            "ClaimConsumed",
            "ReservationSlotRolled",
            "ReservationDispatch",
            "FaultInjected",
            "IngestRejected",
        ],
        "event taxonomy changed: bump SCHEMA_VERSION and update this pin"
    );
}

#[test]
fn run_report_top_level_keys_are_pinned() {
    let json = populated().to_json().expect("serialize");
    let v: serde::Value = serde_json::from_str(&json).expect("parse");
    assert_eq!(
        keys_of(&v),
        [
            "schema",
            "bin",
            "scenario",
            "seed",
            "sim_events",
            "metrics",
            "phases",
            "events",
            "chaos",
            "bench",
            "notes",
        ],
        "RunReport fields changed: bump SCHEMA_VERSION and update this pin"
    );
}

#[test]
fn nested_section_keys_are_pinned() {
    let json = populated().to_json().expect("serialize");
    let v: serde::Value = serde_json::from_str(&json).expect("parse");

    let metrics = field(&v, "metrics");
    assert_eq!(
        keys_of(metrics),
        [
            "requests",
            "blocked",
            "completed",
            "handoff_attempts",
            "handoff_successes",
            "dropped",
            "claims_consumed",
            "p_b",
            "p_d",
        ],
        "MetricsSummary fields changed"
    );

    let phase = &field(&v, "phases").as_array().expect("array")[0];
    assert_eq!(
        keys_of(phase),
        ["phase", "spans", "wall_us", "sim_us"],
        "PhaseSummary fields changed"
    );
    assert_eq!(
        keys_of(field(phase, "wall_us")),
        ["count", "mean", "p50", "p90", "p99", "min", "max"],
        "HistSummary fields changed"
    );

    let event = &field(&v, "events").as_array().expect("array")[0];
    assert_eq!(
        keys_of(event),
        ["kind", "count"],
        "EventCount fields changed"
    );

    let chaos = field(&v, "chaos");
    assert_eq!(
        keys_of(chaos),
        [
            "schedules",
            "faults_applied",
            "invariant_checks",
            "lossy_maxmin_checks",
            "link_failures",
            "stale_profile_fallbacks",
            "handoff_signalling_failures",
            "lost_profile_updates",
        ],
        "ChaosSummary fields changed"
    );

    let bench = &field(&v, "bench").as_array().expect("array")[0];
    assert_eq!(
        keys_of(bench),
        ["label", "mean_ns"],
        "BenchEntry fields changed"
    );
}
