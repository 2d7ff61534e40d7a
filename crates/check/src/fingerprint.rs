//! Schema-drift fingerprints for the persistence layer.
//!
//! Every schema-versioned serialized surface in the workspace — the
//! manager snapshot, the server snapshot, the obs run report and the
//! typed event taxonomy — is serialized here from a canonical
//! *populated* instance (every `Option` engaged, every collection
//! non-empty, so nested record shapes are visible), structurally
//! fingerprinted as one line per field path with its JSON type, and
//! compared against the fingerprint committed under
//! [`FINGERPRINT_DIR`].
//!
//! The contract (CONTRIBUTING.md): a serialized-layout change must ship
//! with a bump of the owning `*_SCHEMA_VERSION` const **and** a
//! re-bless of the stored fingerprints (`cargo xtask check
//! --bless-fingerprints`) in the same commit. Drift without a bump is a
//! finding; a bump without a re-bless is a finding; an unchanged tree
//! re-checks to zero findings.
//!
//! The same pass holds the codec property the snapshot `to_json`s used
//! to re-prove on every emit and now leave to tests: for each canonical
//! instance the one-pass text (`Serialize::write_json`) equals the tree
//! writer's text over `to_value()`, and text → decode → text is
//! byte-identical. A violation is a finding like any drift.
//!
//! The walk is purely structural: paths and JSON types, never values.
//! The vendored serde serializes maps as arrays of `[key, value]`
//! pairs, so every JSON object key comes from a struct field name or
//! enum variant — exactly the surface a Rust-level layout change moves.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use arm_core::scenario::{self, EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{Decision, ManagerEvent, ManagerSnapshot, Strategy, SNAPSHOT_SCHEMA_VERSION};
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, LinkId, PortableId};
use arm_obs::{
    AdmitCause, BenchEntry, ChaosSummary, ClaimSource, EventCount, Fault, HandoffCause,
    HistSummary, MetricsSummary, Obs, ObsEvent, PhaseSummary, RunReport,
};
use arm_server::{
    Server, ServerConfig, ServerEvent, ServerSnapshot, SERVER_SNAPSHOT_SCHEMA_VERSION,
};
use arm_sim::SimTime;

/// Workspace-relative directory holding the committed `.fp` files.
pub const FINGERPRINT_DIR: &str = "crates/check/fingerprints";

/// One schema-versioned serialized surface under fingerprint guard.
pub struct SchemaCase {
    /// File stem under [`FINGERPRINT_DIR`] (`<name>.fp`).
    pub name: &'static str,
    /// The Rust path of the version const that must be bumped with any
    /// layout change (documentation for the finding message; compared
    /// against the stored file so a silent const rename is also drift).
    pub version_const: &'static str,
    /// Current value of that const.
    pub version: u32,
    /// The canonical instance, in the vendored serde data model.
    pub value: Value,
    /// How the instance broke the codec property (module docs), if it
    /// did.
    pub codec_fault: Option<String>,
}

/// Check the codec property on one typed instance and its tree.
fn codec_fault<T: Serialize + Deserialize>(instance: &T, value: &Value) -> Option<String> {
    fn json<S: Serialize>(x: &S) -> Result<String, String> {
        serde_json::to_string(x).map_err(|e| e.to_string())
    }
    let check = || {
        let streamed = json(instance)?;
        if streamed != json(value)? {
            return Err("one-pass text differs from the tree writer's over to_value()".into());
        }
        let back: T = serde_json::from_str(&streamed).map_err(|e| format!("decode: {e}"))?;
        if json(&back)? != streamed {
            return Err("text → decode → text is not byte-identical".into());
        }
        Ok(())
    };
    check().err()
}

impl SchemaCase {
    fn of<T: Serialize + Deserialize>(
        name: &'static str,
        version_const: &'static str,
        version: u32,
        instance: &T,
    ) -> Self {
        let value = instance.to_value();
        let codec_fault = codec_fault(instance, &value);
        SchemaCase {
            name,
            version_const,
            version,
            value,
            codec_fault,
        }
    }

    /// The structural fingerprint of the canonical instance.
    pub fn lines(&self) -> Vec<String> {
        fingerprint(&self.value)
    }

    /// Render the `.fp` file contents for this case.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# arm-check schema fingerprint — generated, do not edit by hand.\n");
        out.push_str("# regenerate: cargo xtask check --bless-fingerprints\n");
        out.push_str(&format!("case: {}\n", self.name));
        out.push_str(&format!("schema_const: {}\n", self.version_const));
        out.push_str(&format!("schema_version: {}\n", self.version));
        for line in self.lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The committed file's path under `root`.
    pub fn path(&self, root: &Path) -> PathBuf {
        root.join(FINGERPRINT_DIR).join(format!("{}.fp", self.name))
    }

    fn rel_path(&self) -> String {
        format!("{FINGERPRINT_DIR}/{}.fp", self.name)
    }
}

/// One schema-drift violation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct DriftFinding {
    /// Which [`SchemaCase`] drifted.
    pub case: String,
    /// Workspace-relative path of the fingerprint file involved.
    pub file: String,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl fmt::Display for DriftFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [schema-drift] {}", self.file, self.message)
    }
}

/// JSON type label for one value.
fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) | Value::UInt(_) => "int",
        Value::Float(_) => "float",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Structural fingerprint: one `"<path>: <type>"` line per distinct
/// (path, type) pair, in document order of first occurrence. Array
/// elements share the path component `[]`, so heterogeneous elements
/// (map keys vs values, enum variants) union rather than repeat.
pub fn fingerprint(v: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut path = String::from("$");
    walk(v, &mut path, &mut out, &mut seen);
    out
}

fn walk(v: &Value, path: &mut String, out: &mut Vec<String>, seen: &mut BTreeSet<String>) {
    let line = format!("{path}: {}", type_name(v));
    if seen.insert(line.clone()) {
        out.push(line);
    }
    match v {
        Value::Array(items) => {
            let n = path.len();
            path.push_str("[]");
            for item in items {
                walk(item, path, out, seen);
            }
            path.truncate(n);
        }
        Value::Object(entries) => {
            for (k, item) in entries {
                let n = path.len();
                path.push('.');
                path.push_str(k);
                walk(item, path, out, seen);
                path.truncate(n);
            }
        }
        _ => {}
    }
}

/// A parsed committed `.fp` file.
struct Stored {
    version_const: String,
    version: u32,
    lines: Vec<String>,
}

impl Stored {
    fn parse(text: &str) -> Result<Stored, String> {
        let mut version_const = None;
        let mut version = None;
        let mut lines = Vec::new();
        for raw in text.lines() {
            let line = raw.trim_end();
            if line.is_empty() || line.starts_with('#') || line.starts_with("case: ") {
                continue;
            }
            if let Some(rest) = line.strip_prefix("schema_const: ") {
                version_const = Some(rest.to_string());
            } else if let Some(rest) = line.strip_prefix("schema_version: ") {
                version = Some(
                    rest.parse::<u32>()
                        .map_err(|_| format!("bad schema_version `{rest}`"))?,
                );
            } else {
                lines.push(line.to_string());
            }
        }
        Ok(Stored {
            version_const: version_const.ok_or("missing schema_const header")?,
            version: version.ok_or("missing schema_version header")?,
            lines,
        })
    }
}

/// Compare one case against the text of its committed fingerprint.
pub fn compare(case: &SchemaCase, stored_text: &str) -> Option<DriftFinding> {
    let finding = |message: String| {
        Some(DriftFinding {
            case: case.name.to_string(),
            file: case.rel_path(),
            message,
        })
    };
    let stored = match Stored::parse(stored_text) {
        Ok(s) => s,
        Err(e) => {
            return finding(format!(
                "unreadable fingerprint ({e}) — regenerate with \
                 `cargo xtask check --bless-fingerprints`"
            ))
        }
    };
    if stored.version != case.version {
        return finding(format!(
            "{} changed ({} → {}) — re-bless the fingerprints in the same \
             commit (`cargo xtask check --bless-fingerprints`)",
            case.version_const, stored.version, case.version
        ));
    }
    if stored.version_const != case.version_const {
        return finding(format!(
            "schema const renamed ({} → {}) without a version bump — bump it \
             and re-bless",
            stored.version_const, case.version_const
        ));
    }
    let current = case.lines();
    if stored.lines != current {
        let stored_set: BTreeSet<&String> = stored.lines.iter().collect();
        let current_set: BTreeSet<&String> = current.iter().collect();
        let mut delta = Vec::new();
        for l in current.iter().filter(|l| !stored_set.contains(l)).take(6) {
            delta.push(format!("+ {l}"));
        }
        for l in stored
            .lines
            .iter()
            .filter(|l| !current_set.contains(l))
            .take(6)
        {
            delta.push(format!("- {l}"));
        }
        if delta.is_empty() {
            delta.push("(field order changed)".to_string());
        }
        return finding(format!(
            "serialized layout drifted without a {} bump: {}",
            case.version_const,
            delta.join("; ")
        ));
    }
    None
}

/// Check every committed fingerprint against the current canonical
/// instances. `root` is the workspace root. IO errors other than a
/// missing file propagate; a missing file is a finding (bless it).
pub fn check_fingerprints(root: &Path) -> io::Result<Vec<DriftFinding>> {
    let mut findings = Vec::new();
    for case in cases() {
        if let Some(fault) = &case.codec_fault {
            findings.push(DriftFinding {
                case: case.name.to_string(),
                file: case.rel_path(),
                message: format!("canonical instance breaks the snapshot codec: {fault}"),
            });
        }
        match fs::read_to_string(case.path(root)) {
            Ok(text) => findings.extend(compare(&case, &text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => findings.push(DriftFinding {
                case: case.name.to_string(),
                file: case.rel_path(),
                message: format!(
                    "no committed fingerprint for schema surface `{}` — run \
                     `cargo xtask check --bless-fingerprints` and commit the result",
                    case.name
                ),
            }),
            Err(e) => return Err(e),
        }
    }
    Ok(findings)
}

/// (Re)write every fingerprint file under `root`. Returns the
/// workspace-relative paths whose contents actually changed (empty on
/// an already-blessed tree, making a re-bless a no-op).
pub fn bless_fingerprints(root: &Path) -> io::Result<Vec<String>> {
    fs::create_dir_all(root.join(FINGERPRINT_DIR))?;
    let mut changed = Vec::new();
    for case in cases() {
        let path = case.path(root);
        let rendered = case.render();
        let stale = match fs::read_to_string(&path) {
            Ok(existing) => existing != rendered,
            Err(e) if e.kind() == io::ErrorKind::NotFound => true,
            Err(e) => return Err(e),
        };
        if stale {
            fs::write(&path, rendered)?;
            changed.push(case.rel_path());
        }
    }
    Ok(changed)
}

// ---------------------------------------------------------------------
// Canonical instances
// ---------------------------------------------------------------------

/// Every guarded schema surface with its canonical populated instance.
pub fn cases() -> Vec<SchemaCase> {
    vec![
        SchemaCase::of(
            "manager_snapshot",
            "arm_core::SNAPSHOT_SCHEMA_VERSION",
            SNAPSHOT_SCHEMA_VERSION,
            &manager_snapshot(),
        ),
        SchemaCase::of(
            "server_snapshot",
            "arm_server::SERVER_SNAPSHOT_SCHEMA_VERSION",
            SERVER_SNAPSHOT_SCHEMA_VERSION,
            &server_snapshot(),
        ),
        SchemaCase::of(
            "run_report",
            "arm_obs::SCHEMA_VERSION",
            arm_obs::SCHEMA_VERSION,
            &run_report(),
        ),
        SchemaCase::of(
            "obs_events",
            "arm_obs::SCHEMA_VERSION",
            arm_obs::SCHEMA_VERSION,
            &obs_events(),
        ),
    ]
}

fn qos() -> QosRequest {
    QosRequest::bandwidth(100.0, 400.0)
        .with_delay(30.0)
        .with_jitter(30.0)
        .with_loss(1.0)
}

/// A driven manager over the §7.1 office topology: live portables and
/// connections, a handoff and a slot roll, so every nested record shape
/// in the snapshot is populated.
fn manager_snapshot() -> ManagerSnapshot {
    let sc = Scenario {
        name: "fingerprint-office".into(),
        environment: EnvSpec::Figure4,
        mobility: MobilitySpec::OfficeCase,
        workload: WorkloadSpec::Paper71,
        strategy: Strategy::Paper,
        cell_throughput_kbps: 1600.0,
        backbone_kbps: 100_000.0,
        wireless_error: 0.0,
        t_th_secs: 300,
        seed: 42,
    };
    let (mut mgr, _trace) = scenario::build_manager(&sc).expect("canonical scenario builds");
    // Bound one link's buffer pool: an unlimited pool serializes as
    // `null`, so a finite cap keeps the float shape in the fingerprint.
    let buffered = mgr.net.topology().wireless_link(CellId(2));
    let bounded = mgr
        .net
        .link(buffered)
        .clone()
        .with_buffer_capacity(50_000.0);
    *mgr.net.link_mut(buffered) = bounded;
    let at = SimTime::from_secs;
    let (p0, p1, qos) = (PortableId(0), PortableId(1), qos());
    let appear = |t, portable, cell| ManagerEvent::Appear { t, portable, cell };
    let request = |t, portable| ManagerEvent::Request { t, portable, qos };
    let move_to = |t, portable, to| ManagerEvent::Move { t, portable, to };
    let events = [
        appear(at(1), p0, CellId(0)),
        appear(at(2), p1, CellId(1)),
        request(at(3), p0),
        request(at(4), p1),
        move_to(at(5), p1, CellId(0)),
        // The second handoff gives its profile event an engaged `prev` cell.
        move_to(at(6), p1, CellId(2)),
        ManagerEvent::SlotTick { t: at(60) },
    ];
    for ev in &events {
        let outcome = mgr.apply(ev).expect("a well-formed event");
        assert!(
            !matches!(outcome.decision, Decision::Blocked(_)),
            "uncontended admission"
        );
    }
    mgr.snapshot()
}

/// A driven office server: an appearance, an explicit request and a
/// handoff, so the present set and the embedded manager snapshot are
/// non-empty.
fn server_snapshot() -> ServerSnapshot {
    let mut server =
        Server::new(ServerConfig::office(42), Obs::off()).expect("canonical config builds");
    // The office workload samples a QoS request per appearance, so an
    // `Appear` also opens the portable's connection.
    let events = [
        ServerEvent::Appear {
            t: SimTime::from_secs(10),
            portable: PortableId(0),
            cell: CellId(0),
        },
        ServerEvent::Appear {
            t: SimTime::from_secs(11),
            portable: PortableId(1),
            cell: CellId(1),
        },
        ServerEvent::Move {
            t: SimTime::from_secs(20),
            portable: PortableId(0),
            to: CellId(1),
        },
    ];
    for ev in &events {
        server
            .apply_event(ev)
            .expect("canonical event stream applies");
    }
    server.snapshot()
}

fn hist() -> HistSummary {
    HistSummary {
        count: 42,
        mean: 12.5,
        p50: 10.0,
        p90: 30.0,
        p99: 45.0,
        min: 1.0,
        max: 50.0,
    }
}

/// A fully populated run report: every `Option` engaged, every list
/// non-empty, so the nested summary shapes are all fingerprinted.
fn run_report() -> RunReport {
    let mut r = RunReport::new("expt_fingerprint", "office");
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
        wall_us: hist(),
        sim_us: hist(),
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
    r.notes = vec!["schema fingerprint reference".to_string()];
    r
}

/// One canonical instance of every [`ObsEvent`] variant, in schema
/// order, wrapped in an array: a new/removed/renamed variant or field
/// moves the fingerprint.
fn obs_events() -> Vec<ObsEvent> {
    let t = SimTime::from_secs(7);
    vec![
        ObsEvent::AdmitDecision {
            t,
            conn: ConnId(1),
            cell: CellId(0),
            cause: AdmitCause::Admitted,
        },
        ObsEvent::MaxminRound {
            t,
            conns_resolved: 3,
            conns_reused: 9,
        },
        ObsEvent::AdvertiseSent {
            t,
            conn: ConnId(1),
            link: LinkId(0),
            rate_kbps: 128.0,
        },
        ObsEvent::UpdateRecv {
            t,
            conn: ConnId(1),
            link: LinkId(0),
            rate_kbps: 96.0,
        },
        ObsEvent::HandoffOutcome {
            t,
            portable: PortableId(0),
            from: CellId(0),
            to: CellId(1),
            carried: 2,
            dropped: 0,
            cause: HandoffCause::Completed,
        },
        ObsEvent::ClaimConsumed {
            t,
            cell: CellId(1),
            conn: ConnId(1),
            kbps: 64.0,
            source: ClaimSource::CellTo,
        },
        ObsEvent::ReservationSlotRolled { t, slot: 4 },
        ObsEvent::ReservationDispatch {
            t,
            portable: PortableId(0),
            decision: "per-connection".to_string(),
        },
        ObsEvent::FaultInjected {
            t,
            fault: Fault::LinkFailed(LinkId(0)),
        },
        ObsEvent::IngestRejected {
            t,
            reason: "malformed".to_string(),
            detail: "trailing characters".to_string(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_emits_paths_in_document_order() {
        let v = Value::Object(vec![
            ("b".into(), Value::UInt(1)),
            (
                "a".into(),
                Value::Array(vec![
                    Value::Object(vec![("x".into(), Value::Float(0.5))]),
                    Value::Null,
                ]),
            ),
        ]);
        assert_eq!(
            fingerprint(&v),
            vec![
                "$: object",
                "$.b: int",
                "$.a: array",
                "$.a[]: object",
                "$.a[].x: float",
                "$.a[]: null",
            ]
        );
    }

    #[test]
    fn cases_are_deterministic_and_populated() {
        let a = cases();
        let b = cases();
        assert_eq!(a.len(), 4);
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca.codec_fault, None, "{}", ca.name);
            assert_eq!(ca.lines(), cb.lines(), "{} not deterministic", ca.name);
            // A populated instance must expose nested structure, not
            // just a flat header.
            assert!(ca.lines().len() > 10, "{} looks unpopulated", ca.name);
        }
        // A `null` line is fine when some sibling element engages the
        // Option (arrays union element types), but a path that is
        // *only* ever null means a payload shape escaped the
        // fingerprint entirely. The one sanctioned exception: the
        // server case's embedded `$.manager` subtree is waived
        // wholesale — the dedicated manager case drives richer traffic
        // and pins those shapes.
        for c in &a {
            let lines = c.lines();
            for l in lines.iter().filter(|l| l.ends_with(": null")) {
                let path = l.strip_suffix(" null").expect("suffix checked");
                if c.name == "server_snapshot" && path.starts_with("$.manager.") {
                    continue;
                }
                assert!(
                    lines
                        .iter()
                        .any(|o| o.starts_with(path) && !o.ends_with(": null")),
                    "{}: path `{path}` is only ever null — populate the instance",
                    c.name
                );
            }
        }
    }

    #[test]
    fn codec_faults_are_named() {
        assert_eq!(codec_fault(&7u32, &Value::UInt(7)), None);
        let differs = codec_fault(&7u32, &Value::UInt(8)).expect("texts differ");
        assert!(differs.contains("differs from the tree"), "{differs}");
        let lossy = codec_fault(&f64::NAN, &Value::Float(f64::NAN)).expect("null is no f64");
        assert!(lossy.starts_with("decode:"), "{lossy}");
    }

    #[test]
    fn render_parse_round_trip_is_clean() {
        for case in cases() {
            assert_eq!(compare(&case, &case.render()), None, "{}", case.name);
        }
    }

    #[test]
    fn layout_drift_without_bump_is_a_finding() {
        let case = &cases()[0];
        // Drop one fingerprint line: a removed field.
        let mut text: Vec<String> = case.render().lines().map(String::from).collect();
        let dropped = text.remove(text.len() - 1);
        let f = compare(case, &text.join("\n")).expect("drift must be found");
        assert!(f.message.contains("without a"), "{}", f.message);
        assert!(
            f.message.contains(&format!("+ {dropped}")),
            "{} should name the drifted line {dropped}",
            f.message
        );
    }

    #[test]
    fn version_bump_asks_for_a_re_bless() {
        let case = &cases()[0];
        let text = case.render().replace(
            &format!("schema_version: {}", case.version),
            &format!("schema_version: {}", case.version + 1),
        );
        let f = compare(case, &text).expect("stale version must be found");
        assert!(f.message.contains("re-bless"), "{}", f.message);
    }

    #[test]
    fn bless_then_check_is_a_no_op() {
        let dir = std::env::temp_dir().join(format!("arm-check-fp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let first = bless_fingerprints(&dir).expect("bless writes");
        assert_eq!(first.len(), cases().len());
        assert_eq!(check_fingerprints(&dir).expect("checkable"), Vec::new());
        let second = bless_fingerprints(&dir).expect("re-bless runs");
        assert_eq!(second, Vec::<String>::new(), "re-bless must be a no-op");
        let _ = fs::remove_dir_all(&dir);
    }
}
