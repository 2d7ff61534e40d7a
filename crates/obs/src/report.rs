//! The `RunReport` artifact.
//!
//! One JSON document per run, emitted by every `expt_*` bin and the
//! chaos soak, unifying the §7 scenario metrics, per-phase timing
//! distributions, event counts, chaos invariant context, and bench
//! output into one comparable schema. The schema is pinned by
//! `SCHEMA_VERSION` plus a key-stability test (`tests/schema.rs`):
//! adding a field means bumping the version *and* the pinned key list,
//! never a silent drift.

use serde::{Deserialize, Serialize};

use arm_sim::stats::Histogram;

/// Bump when the report shape changes (with the pinned key list in
/// `tests/schema.rs`). The event taxonomy counts as shape: v2 added
/// three slotted-calendar kinds to the `events` section; v4 folded the three
/// per-engine maxmin phases into one `maxmin` and dropped
/// `MaxminRound::incremental` (one engine in production); v5 dropped
/// `MaxminRound::shards` (no shard planner); v6 dropped those
/// three again, with the slotted calendar that emitted them; v7 typed
/// three `String` fields (`AdmitDecision::cause`, which absorbed
/// `admitted`, `HandoffOutcome::cause` and `FaultInjected::fault`) and
/// dropped `MaxminRound::cause` (one place opens a round).
pub const SCHEMA_VERSION: u32 = 7;

/// Summary statistics of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th percentile estimate.
    pub p90: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// True recorded minimum.
    pub min: f64,
    /// True recorded maximum.
    pub max: f64,
}

impl HistSummary {
    /// Summarise a histogram.
    pub(crate) fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            min: h.min(),
            max: h.max(),
        }
    }
}

/// One phase's timing summary (see [`crate::Phase`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// The phase label.
    pub phase: String,
    /// Spans recorded.
    pub spans: u64,
    /// Wall-clock cost per span, microseconds.
    pub wall_us: HistSummary,
    /// Sim-time elapsed per span, microseconds.
    pub sim_us: HistSummary,
}

/// How many times one event kind fired.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventCount {
    /// The event kind's stable name.
    pub kind: String,
    /// Occurrences.
    pub count: u64,
}

/// The §7 scenario-level outcome metrics (mirrors
/// `arm_core::Metrics`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// New-connection requests.
    pub requests: u64,
    /// Requests blocked at admission.
    pub blocked: u64,
    /// Connections that ran to completion.
    pub completed: u64,
    /// Handoff attempts.
    pub handoff_attempts: u64,
    /// Handoffs that carried every connection.
    pub handoff_successes: u64,
    /// Connections dropped mid-call.
    pub dropped: u64,
    /// Advance-reservation claims consumed.
    pub claims_consumed: u64,
    /// Blocking probability `P_b`.
    pub p_b: f64,
    /// Dropping probability `P_d`.
    pub p_d: f64,
}

/// Chaos-soak context: what was injected and what was checked.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// Fault schedules executed.
    pub schedules: u64,
    /// Individual faults applied.
    pub faults_applied: u64,
    /// Per-event invariant evaluations that all held.
    pub invariant_checks: u64,
    /// Lossy-maxmin convergence checks.
    pub lossy_maxmin_checks: u64,
    /// Link failures survived.
    pub link_failures: u64,
    /// Stale-profile fallbacks taken.
    pub stale_profile_fallbacks: u64,
    /// Handoff signalling failures injected.
    pub handoff_signalling_failures: u64,
    /// Profile updates lost.
    pub lost_profile_updates: u64,
}

/// One bench measurement line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// What was measured (e.g. `incremental/10000-conns`).
    pub label: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
}

/// The per-run artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub(crate) schema: u32,
    /// The emitting binary (e.g. `expt_fig2`).
    pub bin: String,
    /// The scenario or experiment label within the bin.
    pub scenario: String,
    /// The driving seed, when the run is seeded.
    pub seed: Option<u64>,
    /// Simulator events dispatched, when an engine ran.
    pub sim_events: Option<u64>,
    /// Scenario outcome metrics, when a scenario ran.
    pub metrics: Option<MetricsSummary>,
    /// Per-phase timing distributions (empty when observation was off).
    pub phases: Vec<PhaseSummary>,
    /// Event counts by kind (empty when observation was off).
    pub events: Vec<EventCount>,
    /// Chaos context, for soak runs.
    pub chaos: Option<ChaosSummary>,
    /// Bench measurements, for bench-style bins.
    pub bench: Vec<BenchEntry>,
    /// Freeform annotations (never parsed; for humans).
    pub notes: Vec<String>,
}

impl RunReport {
    /// An empty report for `bin`/`scenario` at the current schema.
    pub fn new(bin: &str, scenario: &str) -> Self {
        RunReport {
            schema: SCHEMA_VERSION,
            bin: bin.to_string(),
            scenario: scenario.to_string(),
            seed: None,
            sim_events: None,
            metrics: None,
            phases: Vec::new(),
            events: Vec::new(),
            chaos: None,
            bench: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a report back, checking the schema version.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let report: RunReport = serde_json::from_str(s)?;
        if report.schema != SCHEMA_VERSION {
            return Err(serde::Error::custom(format!(
                "run report schema {} != supported {SCHEMA_VERSION}",
                report.schema
            ))
            .into());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> RunReport {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(5.0);
        h.record(250.0);
        let mut r = RunReport::new("expt_test", "office");
        r.seed = Some(42);
        r.sim_events = Some(1234);
        r.metrics = Some(MetricsSummary {
            requests: 100,
            blocked: 3,
            completed: 90,
            handoff_attempts: 40,
            handoff_successes: 39,
            dropped: 1,
            claims_consumed: 12,
            p_b: 0.03,
            p_d: 0.025,
        });
        r.phases = vec![PhaseSummary {
            phase: "admission".to_string(),
            spans: 2,
            wall_us: HistSummary::of(&h),
            sim_us: HistSummary::of(&h),
        }];
        r.events = vec![EventCount {
            kind: "AdmitDecision".to_string(),
            count: 100,
        }];
        r.chaos = Some(ChaosSummary {
            schedules: 20,
            faults_applied: 31,
            invariant_checks: 9000,
            lossy_maxmin_checks: 5,
            link_failures: 7,
            stale_profile_fallbacks: 2,
            handoff_signalling_failures: 1,
            lost_profile_updates: 3,
        });
        r.bench = vec![BenchEntry {
            label: "maxmin/quick".to_string(),
            mean_ns: 1520.5,
        }];
        r.notes = vec!["reference run".to_string()];
        r
    }

    #[test]
    fn fully_populated_report_round_trips() {
        let r = populated();
        let json = r.to_json().expect("serialize");
        let back = RunReport::from_json(&json).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn empty_report_round_trips() {
        let r = RunReport::new("expt_min", "none");
        let back = RunReport::from_json(&r.to_json().expect("serialize")).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.schema, SCHEMA_VERSION);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut r = RunReport::new("expt_min", "none");
        r.schema = SCHEMA_VERSION + 1;
        let json = serde_json::to_string(&r).expect("serialize");
        assert!(RunReport::from_json(&json).is_err());
    }

    #[test]
    fn hist_summary_uses_saturated_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(15.0);
        h.record(20.0);
        let s = HistSummary::of(&h);
        // Overflow mass reports the true max, not the range ceiling.
        assert_eq!(s.p99, 20.0);
        assert_eq!(s.max, 20.0);
        assert_eq!(s.count, 2);
    }
}
