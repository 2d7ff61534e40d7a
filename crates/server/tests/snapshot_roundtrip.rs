//! Snapshot round-trip properties: any mid-run server state must
//! serialize → deserialize → re-serialize byte-identically, and schema
//! skew must surface as a typed error, never a panic or a misparse.
//!
//! `to_json` itself no longer re-parses what it writes (it validates,
//! then streams once); the round trip it used to run on every emit —
//! and which never once failed — is asserted here instead, together
//! with the property that makes one pass safe: the streamed text is the
//! tree writer's text over `to_value()`.

use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{SnapshotError, Strategy};
use arm_obs::Obs;
use arm_server::drill::events_from_scenario;
use arm_server::{Server, ServerConfig, ServerSnapshot, SERVER_SNAPSHOT_SCHEMA_VERSION};
use arm_sim::FaultSchedule;
use proptest::prelude::*;

/// A small random-walk configuration: fast to run, still exercising
/// handoffs, admissions, terminations, and slot ticks.
fn walk_cfg(seed: u64) -> ServerConfig {
    ServerConfig {
        scenario: Scenario {
            name: "server-walk".into(),
            environment: EnvSpec::Figure4,
            mobility: MobilitySpec::RandomWalk {
                population: 8,
                mean_dwell_secs: 90,
                span_mins: 12,
            },
            workload: WorkloadSpec::Paper71,
            strategy: Strategy::Paper,
            cell_throughput_kbps: 800.0,
            backbone_kbps: 100_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed,
        },
        checkpoint_every: 64,
        backlog_capacity: 64,
    }
}

/// Run a server through the first `prefix` events of its scenario
/// stream.
fn server_at(cfg: &ServerConfig, prefix: usize) -> Server {
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let mut server = Server::new(cfg.clone(), Obs::off()).expect("valid scenario");
    let prefix = prefix.min(events.len());
    for ev in &events[..prefix] {
        server.apply_event(ev).expect("generated events are valid");
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary mid-run states round-trip byte-identically, for both
    /// the server snapshot and the embedded manager snapshot.
    #[test]
    fn snapshot_round_trip_is_byte_identical(seed in 0u64..1000, cut in 0usize..400) {
        let cfg = walk_cfg(seed);
        let server = server_at(&cfg, cut);

        let json = server.snapshot().to_json().expect("snapshot serializes");
        let back = ServerSnapshot::from_json(&json).expect("snapshot parses");
        let again = back.to_json().expect("restored snapshot serializes");
        prop_assert_eq!(&json, &again, "server snapshot round trip drifted");

        let mjson = server.mgr.snapshot().to_json().expect("manager snapshot serializes");
        let mback = arm_core::ManagerSnapshot::from_json(&mjson).expect("manager snapshot parses");
        prop_assert_eq!(
            &mjson,
            &serde_json::to_string(&mback).expect("re-serializes"),
            "manager snapshot round trip drifted"
        );
    }

    /// A restored server is behaviourally identical, not just
    /// byte-identical: its next snapshot matches too.
    #[test]
    fn restore_preserves_state_exactly(seed in 0u64..1000, cut in 0usize..300) {
        let cfg = walk_cfg(seed);
        let server = server_at(&cfg, cut);
        let json = server.snapshot().to_json().expect("snapshot serializes");
        let restored = Server::restore(
            ServerSnapshot::from_json(&json).expect("parses"),
            Obs::off(),
        )
        .expect("restores");
        let json2 = restored.snapshot().to_json().expect("snapshot serializes");
        prop_assert_eq!(json, json2, "restore changed state");
    }
}

/// The two codec properties, on one snapshot: `to_json` → `from_json` →
/// `to_json` is byte-identical, and the one-pass text equals the tree
/// writer's over `to_value()`. Returns the document's length.
fn assert_codec_properties(snap: &ServerSnapshot, at: &str) -> usize {
    let json = snap.to_json().expect("snapshot serializes");
    let back = ServerSnapshot::from_json(&json).expect("snapshot parses");
    assert!(
        back.to_json().expect("re-serializes") == json,
        "{at}: round trip drifted"
    );
    let tree = serde_json::to_string(&serde::Serialize::to_value(snap)).expect("infallible");
    assert!(json == tree, "{at}: streamed text differs from the tree's");
    json.len()
}

/// Every checkpoint the shipped office server cuts over the seed-42
/// workweek — the 36 documents `office_week` writes — and the end state.
#[test]
fn office_week_checkpoints_round_trip_and_stream_like_the_tree() {
    let cfg = ServerConfig::office(42);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let mut server = Server::new(cfg, Obs::off()).expect("valid scenario");
    let mut checkpoints = 0;
    for ev in &events {
        server.apply_event(ev).expect("generated events are valid");
        if server.checkpoint_due() {
            let at = format!("checkpoint at {}", server.accepted());
            assert_codec_properties(&server.snapshot(), &at);
            checkpoints += 1;
        }
    }
    let last = assert_codec_properties(&server.snapshot(), "end of week");
    // 35 periodic checkpoints plus `run_server`'s final one. (The byte
    // total the benchmark writes, 6,179,387, includes its hostile
    // lines' `rejected` count; CI's benchmark-smoke holds that number.)
    assert_eq!(checkpoints + 1, 36);
    // Each checkpoint above was written from warm row caches
    // (`apply_event` fills them when one is due), so the round trip is
    // also warm text = cold text. The end state is 199,458 bytes at
    // seed 42, most of them handoff rows (a row is about 30 bytes; it
    // was 38 more while a handoff was an object of five keys).
    assert!(
        last > 180_000,
        "the week's histories fill the image: {last}"
    );
}

/// A snapshot shares the manager's profiles until the next profile
/// write, which copies them (copy-on-write). On the seed-42 office week,
/// each checkpoint's snapshot is held while the next 256 events apply,
/// and then: it still encodes the bytes it encoded at capture; restored
/// and replayed over those 256 events, it gives the uninterrupted
/// server's bytes; and the server that held it cuts the checkpoint a
/// server that never held one cuts.
#[test]
fn a_snapshot_held_across_the_next_checkpoint_is_unchanged() {
    let cfg = ServerConfig::office(42);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let mut server = Server::new(cfg.clone(), Obs::off()).expect("valid scenario");
    let mut plain = Server::new(cfg, Obs::off()).expect("valid scenario");
    let mut held: Option<(ServerSnapshot, String, usize)> = None;
    let mut checked = 0;
    for (i, ev) in events.iter().enumerate() {
        server.apply_event(ev).expect("generated events are valid");
        plain.apply_event(ev).expect("generated events are valid");
        if !server.checkpoint_due() {
            continue;
        }
        let at = server.accepted();
        let live = server.snapshot();
        let json = live.to_json().expect("snapshot serializes");
        let never_held = plain.snapshot().to_json().expect("snapshot serializes");
        assert!(
            json == never_held,
            "checkpoint at {at}: holding one moved the next"
        );
        if let Some((snap, at_capture, from)) = held.take() {
            assert!(
                snap.to_json().expect("snapshot serializes") == at_capture,
                "checkpoint at {at}: the held snapshot changed"
            );
            let mut restored = Server::restore(snap, Obs::off()).expect("restores");
            for ev in &events[from..=i] {
                restored
                    .apply_event(ev)
                    .expect("generated events are valid");
            }
            assert!(
                restored.snapshot().to_json().expect("snapshot serializes") == json,
                "checkpoint at {at}: restore + replay drifted"
            );
            checked += 1;
        }
        held = Some((live, json, i + 1));
    }
    assert_eq!(checked, 34);
}

/// The end state of a crowded wing: tight cells, so blocked and dropped
/// connections, consumed advance claims and long per-cell histories are
/// all in the image.
#[test]
fn wing_end_state_round_trips_and_streams_like_the_tree() {
    let mut cfg = walk_cfg(42);
    cfg.scenario.environment = EnvSpec::OfficeWing { offices: 12 };
    cfg.scenario.mobility = MobilitySpec::RandomWalk {
        population: 96,
        mean_dwell_secs: 120,
        span_mins: 20,
    };
    cfg.scenario.cell_throughput_kbps = 400.0;
    let server = server_at(&cfg, usize::MAX);
    let m = &server.mgr.metrics;
    assert!(
        m.blocked.get() > 0 && m.dropped.get() > 0 && m.claims_consumed.get() > 0,
        "the wing must be tight enough to exercise every path: {m:?}"
    );
    assert_codec_properties(&server.snapshot(), "wing end state");
}

/// The two fields a v10 server document held and v11 derives: the
/// open-connection map (the manager's per-portable connection index)
/// and the slot cursor (the slot boundary after `last_time`), as
/// `server` would have written them.
fn v10_fields(server: &Server) -> (String, String) {
    let mut open: Vec<_> = server
        .mgr
        .net
        .live_connections()
        .map(|c| (c.portable, c.id))
        .collect();
    open.sort_unstable();
    let open: Vec<String> = open
        .iter()
        .map(|(p, c)| format!("[{},{}]", p.0, c.0))
        .collect();
    let slot = arm_core::SLOT.ticks();
    let next_slot = (server.last_time().ticks() / slot + 1) * slot;
    (format!("[{}]", open.join(",")), next_slot.to_string())
}

/// A server document with `open` and `next_slot` spliced in where v10
/// wrote them.
fn with_v10_fields(json: &str, open: &str, next_slot: &str) -> String {
    for key in ["\"present\":", "\"last_time\":"] {
        assert_eq!(json.matches(key).count(), 1, "layout drifted: {key}");
    }
    json.replacen("\"present\":", &format!("\"open\":{open},\"present\":"), 1)
        .replacen(
            "\"last_time\":",
            &format!("\"next_slot\":{next_slot},\"last_time\":"),
            1,
        )
}

/// `server`'s document as the build before wrote it: the server stamped
/// 10 (the stamp its manager still carries), with its open-connection
/// map and slot cursor.
fn as_v10(server: &Server) -> String {
    let json = server.snapshot().to_json().expect("snapshot serializes");
    let stamp = format!("{{\"schema\":{SERVER_SNAPSHOT_SCHEMA_VERSION},");
    assert!(json.starts_with(&stamp), "layout drifted: {json:.60}");
    let (open, next_slot) = v10_fields(server);
    with_v10_fields(&json, &open, &next_slot).replacen(&stamp, "{\"schema\":10,", 1)
}

/// `json` (a v10 server or manager document) as the build before
/// wrote it: stamped 9 throughout, and every retained handoff an object
/// of five keys where v10 writes a row of five numbers.
fn as_v9(json: &str) -> String {
    const OPEN: &str = "\"events\":[";
    const CLOSE: &str = "],\"total_recorded\":";
    assert!(
        json.starts_with("{\"schema\":10,"),
        "layout drifted: {json:.60}"
    );
    let mut out = String::new();
    let mut rest = json;
    let mut rows_seen = 0;
    while let Some(at) = rest.find(OPEN) {
        let (head, tail) = rest.split_at(at + OPEN.len());
        out.push_str(head);
        let end = tail.find(CLOSE).expect("a history's events close");
        let rows = &tail[..end];
        if !rows.is_empty() {
            let objects: Vec<String> = rows[1..rows.len() - 1]
                .split("],[")
                .map(|row| {
                    let fields: Vec<&str> = row.split(',').collect();
                    assert_eq!(fields.len(), 5, "a row has five numbers: {row}");
                    format!(
                        "{{\"portable\":{},\"prev\":{},\"cur\":{},\"next\":{},\"time\":{}}}",
                        fields[0], fields[1], fields[2], fields[3], fields[4]
                    )
                })
                .collect();
            rows_seen += objects.len();
            out.push_str(&objects.join(","));
        }
        rest = &tail[end..];
    }
    out.push_str(rest);
    assert!(rows_seen > 0, "the document retains handoffs");
    out.replace("{\"schema\":10,", "{\"schema\":9,")
}

/// `json` (a v9 server or manager document of `walk_cfg(7)` cut at 40,
/// or a current one) with the fields back that v8 wrote and v9 does not: the manager's
/// `discipline`, `slot` and `per_user_kbps` (its fourth knob, the
/// link-failure policy flag, is left out: one more unknown bool), the
/// server's own `slot`, `metrics.{arrivals, slot}`, and `state`/
/// `handoffs` on every connection record. The stamps are untouched.
/// (What v9 no longer *holds* cannot come back: the series is empty
/// and the four retired slots stay `null`, where commit `9c44c5f`
/// wrote `Terminated` rows.)
fn with_v8_fields(json: &str) -> String {
    let mut out = json.to_string();
    // (after this, insert that, in the manager image only?)
    let edits = [
        ("\"t_th\":300000000,", "\"discipline\":\"Wfq\",", true),
        (
            "\"max_fraction\":0.2},",
            "\"slot\":60000000,\"per_user_kbps\":28.0,",
            true,
        ),
        (
            "\"claims_consumed\":{\"count\":0}",
            ",\"arrivals\":[],\"slot\":60000000",
            true,
        ),
        ("\"seed\":7},", "\"slot\":60000000,", false),
        ("\"b_current\":16.0,", "\"state\":\"Active\",", true),
    ];
    let is_server = json.contains("\"checkpoint_every\"");
    for (after, insert, in_manager) in edits {
        if !in_manager && !is_server {
            continue;
        }
        assert!(out.contains(after), "layout drifted: {after}");
        out = out.replace(after, &format!("{after}{insert}"));
    }
    // `handoffs` closed every record, after `started`.
    let mut from = 0;
    while let Some(at) = out[from..].find("\"started\":") {
        let close = from + at + out[from + at..].find('}').expect("a record closes");
        out.insert_str(close, ",\"handoffs\":0");
        from = close;
    }
    out
}

/// [`with_v8_fields`], stamped 8 throughout: the shape the previous
/// build (`9c44c5f`) wrote.
fn as_v8(json: &str) -> String {
    assert!(
        json.starts_with("{\"schema\":9,"),
        "layout drifted: {json:.60}"
    );
    with_v8_fields(json).replace("{\"schema\":9,", "{\"schema\":8,")
}

/// `json` (a v8 document, see [`as_v8`]) as the build before wrote it:
/// stamped 7, and every manager image carrying the maxmin engine's
/// section — all empty, as in every checkpoint the server ever cut (it
/// never adapts): 172 bytes more, as commit `45078ab` emits them.
fn as_v7(json: &str) -> String {
    const AFTER: &str = "\"channel_renegotiations\":";
    const V7_MAXMIN: &str = "\"maxmin\":{\"link_excess\":[],\"conns\":[],\"index\":[],\
        \"alloc\":[],\"bottleneck\":[],\"dirty\":[],\"stats\":{\"incremental_solves\":0,\
        \"cache_hits\":0,\"conns_resolved\":0,\"conns_reused\":0}},";
    assert!(
        json.starts_with("{\"schema\":8,"),
        "layout drifted: {json:.60}"
    );
    assert_eq!(json.matches(AFTER).count(), 1, "layout drifted");
    // Every stamp: a server document carries its manager's too.
    let v7 = json.replace("{\"schema\":8,", "{\"schema\":7,").replacen(
        AFTER,
        &format!("{V7_MAXMIN}{AFTER}"),
        1,
    );
    assert_eq!(v7.len(), json.len() + 172);
    v7
}

/// `v7` (see [`as_v7`]) as the build before that wrote it: stamped 6,
/// and every manager image closed by the slotted calendar's section —
/// empty but for the 21 link capacities and the slot cursor. Byte for
/// byte what commit `769e91d` emits for this state.
fn as_v6(v7: &str) -> String {
    const MANAGER_TAIL: &str = "\"handoff_signalling_failures\":0}";
    const V6_MANAGER_TAIL: &str = "\"handoff_signalling_failures\":0,\"calendar\":{\"schema\":2,\
        \"capacities\":[[0,800.0],[1,100000.0],[2,100000.0],[3,800.0],[4,100000.0],[5,100000.0],\
        [6,800.0],[7,100000.0],[8,100000.0],[9,800.0],[10,100000.0],[11,100000.0],[12,800.0],\
        [13,100000.0],[14,100000.0],[15,800.0],[16,100000.0],[17,100000.0],[18,800.0],\
        [19,100000.0],[20,100000.0]],\"reservations\":[],\"groups\":[],\"next_id\":0,\
        \"next_group\":0,\"current_slot\":11}}";
    assert_eq!(v7.matches(MANAGER_TAIL).count(), 1, "layout drifted");
    v7.replace("{\"schema\":7,", "{\"schema\":6,")
        .replacen(MANAGER_TAIL, V6_MANAGER_TAIL, 1)
}

/// `json` (a v10 document) under each skewed stamp: a future version,
/// the v9 document before it (handoffs as objects), the v8 one before it
/// (`"arrivals"`, `"state"`, three `"slot"`s), the
/// v7 one before it (still carrying `"maxmin"`), the v6 one before that
/// (`"calendar"` too), and the two earlier still (shard planner;
/// cell-keyed calendar).
fn skewed_documents(json: &str, future: u32) -> Vec<(u32, String)> {
    let restamped =
        |skew: u32| json.replacen("{\"schema\":10,", &format!("{{\"schema\":{skew},"), 1);
    let v9 = as_v9(json);
    let v8 = as_v8(&v9);
    let v7 = as_v7(&v8);
    let v6 = as_v6(&v7);
    assert!(v8.contains("\"arrivals\"") && v8.contains("\"state\":\"Active\""));
    assert!(v7.contains("\"maxmin\"") && v6.contains("\"calendar\""));
    vec![
        (future, restamped(future)),
        (9, v9),
        (8, v8),
        (7, v7),
        (6, v6),
        (5, restamped(5)),
        (4, restamped(4)),
    ]
}

#[test]
fn mismatched_server_schema_is_a_typed_error() {
    let server = server_at(&walk_cfg(7), 40);
    let v10 = as_v10(&server);
    assert!(v10.contains("\"open\":[[") && v10.contains("\"next_slot\":"));
    for (skew, skewed) in skewed_documents(&v10, 999)
        .into_iter()
        .chain([(10, v10.clone())])
    {
        match ServerSnapshot::from_json(&skewed) {
            Err(SnapshotError::SchemaMismatch { found, expected }) => {
                assert_eq!(found, skew);
                assert_eq!(expected, 11);
                assert_eq!(expected, arm_server::SERVER_SNAPSHOT_SCHEMA_VERSION);
            }
            other => panic!("want SchemaMismatch, got {other:?}"),
        }
    }
}

#[test]
fn mismatched_manager_schema_is_a_typed_error() {
    let server = server_at(&walk_cfg(7), 40);
    let json = server
        .mgr
        .snapshot()
        .to_json()
        .expect("snapshot serializes");
    for (skew, skewed) in skewed_documents(&json, 42) {
        match arm_core::ManagerSnapshot::from_json(&skewed) {
            Err(SnapshotError::SchemaMismatch { found, expected }) => {
                assert_eq!(found, skew);
                assert_eq!(expected, 10);
                assert_eq!(expected, arm_core::SNAPSHOT_SCHEMA_VERSION);
            }
            other => panic!("want SchemaMismatch, got {other:?}"),
        }
    }
}

/// What v8 wrote and v9 dropped is, in a v9 document (and in every later
/// one), so many unknown fields: ignored like any other (the forged `portable_conns` below),
/// not believed and not refused. The image restores and re-encodes to
/// the bytes it had without them.
#[test]
fn fields_v9_dropped_are_ignored_in_a_v9_document() {
    let server = server_at(&walk_cfg(7), 40);
    let json = server.snapshot().to_json().expect("snapshot serializes");
    let padded = with_v8_fields(&json);
    for key in [
        "\"arrivals\":",
        "\"state\":\"Active\"",
        "\"slot\":",
        "\"handoffs\":",
    ] {
        assert!(padded.contains(key) && !json.contains(key), "{key}");
    }
    let snap = ServerSnapshot::from_json(&padded).expect("unknown fields are not errors");
    assert_eq!(snap.to_json().expect("re-serializes"), json);
    let restored = Server::restore(snap, Obs::off()).expect("restores");
    assert_eq!(
        restored.snapshot().to_json().expect("snapshot serializes"),
        json
    );
}

/// What v10 held and v11 derives is, in a v11 document, two unknown
/// fields — and not believed. A cursor edited back to time zero would
/// re-run every slot tick since, and a map naming a connection nobody
/// holds would keep a phantom: the image restores to the honest server,
/// which then runs on exactly like the one that was never saved.
#[test]
fn fields_v11_derives_are_not_believed_in_a_v11_document() {
    let cfg = walk_cfg(7);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let server = server_at(&cfg, 40);
    let json = server.snapshot().to_json().expect("snapshot serializes");
    let hostile = with_v10_fields(&json, "[[9999,123456]]", "0");
    let snap = ServerSnapshot::from_json(&hostile).expect("unknown fields are not errors");
    assert_eq!(snap.to_json().expect("re-serializes"), json);
    let mut restored = Server::restore(snap, Obs::off()).expect("restores");
    let mut honest = server;
    for ev in &events[40..] {
        restored
            .apply_event(ev)
            .expect("generated events are valid");
        honest.apply_event(ev).expect("generated events are valid");
    }
    assert!(
        restored.snapshot().to_json().expect("snapshot serializes")
            == honest.snapshot().to_json().expect("snapshot serializes"),
        "the forged cursor or map was believed"
    );
}

/// Snapshots that decode cleanly but would panic or silently corrupt a
/// restored process, all of them now damage to the network image — the
/// one section whose parts must agree with each other: a running sum
/// that is not the sum of its claims, a capacity below what is already
/// promised, a link's membership row that lost a connection, a record
/// routed over a link that holds nothing for it, a record filed under
/// another id, and a record retired (`null`) behind its ledger rows —
/// callers look up every id on a link without a liveness test — and eqn
/// 2's `t⁻` record naming a link that is no cell's wireless link, which
/// the manager, keeping the record by cell, could not place. (Through
/// v7 three more rows forged a maxmin engine whose maps disagreed, and
/// through v8 six forged a slot width: zero, or not the manager's. A
/// hostile engine image or slot can no longer be written — the engine
/// is a cache no snapshot carries, the width is `arm_core::SLOT` — and
/// a document that still has a `"maxmin"` section or three `"slot"`s is
/// a v7 or v8 document: `SchemaMismatch`, see
/// `mismatched_*_schema_is_a_typed_error`.) Each is refused
/// with a typed error — by the server at decode, by the manager at
/// restore — and never panics. A last edit forges derived state the
/// image never carries (the network's per-portable connection index):
/// that one is ignored rather than refused, because decode rebuilds it.
#[test]
fn corrupted_planner_routing_is_a_typed_error() {
    let server = server_at(&walk_cfg(7), 40);
    // (needle, hostile replacement, what the refusal names)
    let cases = [
        ("\"sum_resv\":56.0", "\"sum_resv\":5.0", "sum_resv drift"),
        (
            "\"capacity\":800.0,\"buffer_capacity\":null,\"allocs\":[],\"advance\":[[{\"Conn\":4},16.0]",
            "\"capacity\":8.0,\"buffer_capacity\":null,\"allocs\":[],\"advance\":[[{\"Conn\":4},16.0]",
            "> capacity 8",
        ),
        ("[],[4],[],[4],[3,7]", "[],[],[],[4],[3,7]", "ledger conns"),
        (
            "\"links\":[15,17]},\"b_current\"",
            "\"links\":[15,16]},\"b_current\"",
            "l17: holds f1, which is not routed over it",
        ),
        (
            "{\"id\":1,\"portable\":30003",
            "{\"id\":2,\"portable\":30003",
            "missing from",
        ),
        (
            "{\"id\":7,\"portable\":30001,\"cell\":4,\"remote\":0,\"qos\":{\"b_min\":16.0,\
             \"b_max\":16.0,\"delay_bound\":30.0,\"jitter_bound\":30.0,\"loss_bound\":1.0,\
             \"traffic\":{\"sigma\":1.6,\"rho\":16.0,\"l_max\":1.0}},\"route\":{\"nodes\":[10,9,0],\
             \"links\":[12,14]},\"b_current\":16.0,\"started\":466338073}",
            "null",
            "l12: holds f7, which is not routed over it",
        ),
        // Eqn 2's t⁻ record, kept by cell, naming a wired link and a
        // link that does not exist.
        (
            "\"last_excess\":[]",
            "\"last_excess\":[[14,5.0]]",
            "last_excess names l14, which is no cell's wireless link",
        ),
        (
            "\"last_excess\":[]",
            "\"last_excess\":[[99,5.0]]",
            "last_excess names l99",
        ),
    ];
    let server_json = server.snapshot().to_json().expect("snapshot serializes");
    let manager_json = server
        .mgr
        .snapshot()
        .to_json()
        .expect("snapshot serializes");
    for (needle, hostile, names) in cases {
        assert!(server_json.contains(needle), "layout drifted: {needle}");
        match ServerSnapshot::from_json(&server_json.replacen(needle, hostile, 1)) {
            Err(SnapshotError::Invalid(why)) => assert!(why.contains(names), "{why}"),
            other => panic!("{needle}: want Invalid, got {other:?}"),
        }
        assert!(manager_json.contains(needle), "layout drifted: {needle}");
        let snap = arm_core::ManagerSnapshot::from_json(&manager_json.replacen(needle, hostile, 1))
            .expect("well-formed JSON decodes");
        match arm_core::ResourceManager::restore(snap, Obs::off()).err() {
            Some(SnapshotError::Invalid(why)) => assert!(why.contains(names), "{why}"),
            other => panic!("{needle}: want Invalid, got {other:?}"),
        }
    }
    // One more hostile edit, of the other kind: not refused but ignored.
    // The network's per-portable connection index is derived state —
    // rebuilt from the connection table on decode, never read from the
    // document — so an image that brings an index of its own (filing a
    // live connection under a portable that does not exist) restores to
    // a server that answers from the table and re-encodes to the
    // original bytes.
    let needle = "\"link_conns\":";
    assert_eq!(server_json.matches(needle).count(), 1, "layout drifted");
    let live = server
        .mgr
        .net
        .live_connections()
        .next()
        .expect("the walk leaves live connections");
    let (id, owner) = (live.id, live.portable);
    let forged = format!("\"portable_conns\":[[4000000000,[{}]]],{needle}", id.0);
    let snap = ServerSnapshot::from_json(&server_json.replacen(needle, &forged, 1))
        .expect("an unknown field is not an error");
    let restored = Server::restore(snap, Obs::off()).expect("restores");
    let of = |p: u32| -> Vec<u32> {
        restored
            .mgr
            .net
            .connections_of_portable(arm_net::ids::PortableId(p))
            .map(|c| c.id.0)
            .collect()
    };
    assert!(of(4_000_000_000).is_empty(), "the forged entry was read");
    assert!(of(owner.0).contains(&id.0), "the index was not rebuilt");
    assert!(restored.mgr.net.check_invariants().is_ok());
    assert_eq!(
        restored.snapshot().to_json().expect("snapshot serializes"),
        server_json
    );
}

/// Both images of `server` are refused on write with a typed `Invalid`
/// whose text contains every one of `names`.
fn assert_refused_on_write(server: &Server, names: &[&str]) {
    let results = [server.snapshot().to_json(), server.mgr.snapshot().to_json()];
    for got in results {
        match got {
            Err(SnapshotError::Invalid(why)) => {
                assert!(names.iter().all(|n| why.contains(n)), "{why}");
            }
            other => panic!("want Invalid naming {names:?}, got {other:?}"),
        }
    }
}

/// State that must never reach a checkpoint file. `mgr.net` is a public
/// field, so a caller can set a capacity or a rate to ∞/NaN: every
/// ledger sum still balances (`validate()` passes) but JSON would carry
/// the value as a `null` that no `f64` field decodes — the one failure
/// the old write-time round trip could catch and `validate()` cannot.
/// The writer counts such floats and `to_json` refuses the document,
/// quoting the key. A ledger that does not balance is refused before
/// any text is produced. `run_server` asks for the document before it
/// opens the `.tmp` file, so a refusal leaves the previous checkpoint
/// in place.
#[test]
fn hostile_state_is_refused_on_write() {
    use arm_net::ids::CellId;
    use arm_net::link::LinkState;

    // An idle link swapped for one of unbounded capacity.
    let mut server = server_at(&walk_cfg(7), 0);
    let air = server.mgr.net.topology().wireless_link(CellId(0));
    *server.mgr.net.link_mut(air) = LinkState::new(f64::INFINITY);
    assert!(server.mgr.net.check_invariants().is_ok());
    assert_refused_on_write(&server, &["1 non-finite float", "{\"capacity\":"]);

    // A live connection's current rate set to NaN.
    let mut server = server_at(&walk_cfg(7), 40);
    let conn = server
        .mgr
        .net
        .live_connections()
        .next()
        .expect("the walk leaves live connections")
        .id;
    let route = server.mgr.net.get(conn).expect("live").route.links.clone();
    server.mgr.net.get_mut(conn).expect("live").b_current = f64::NAN;
    assert!(server.mgr.net.check_invariants().is_ok());
    assert_refused_on_write(&server, &["1 non-finite float", "\"b_current\":"]);

    // The same connection's ledger row wiped from its first link: not a
    // codec matter at all, `validate()` names the imbalance.
    server.mgr.net.get_mut(conn).expect("live").b_current = 0.0;
    let capacity = server.mgr.net.link(route[0]).capacity();
    *server.mgr.net.link_mut(route[0]) = LinkState::new(capacity);
    assert_refused_on_write(&server, &["ledger conns"]);
}

#[test]
fn garbage_snapshots_are_typed_parse_errors() {
    for garbage in ["", "{", "[1,2,3]", "{\"no_schema\":true}"] {
        match ServerSnapshot::from_json(garbage) {
            Err(SnapshotError::Parse(_)) => {}
            other => panic!("{garbage:?}: want Parse error, got {other:?}"),
        }
    }
}
