//! `from_json` decodes a snapshot in one pass over its text; until
//! PR 20 it parsed the text into a `serde::Value` tree and decoded
//! that. The tree route is still what `from_value` is, so it serves as
//! the oracle here: on real checkpoints — the seed-42 office week's and
//! a crowded wing's end state — damaged every way a file or a hostile
//! author can damage them, both routes accept the same documents (and
//! re-encode them to the same bytes) and refuse the rest with the same
//! class of error, never a panic, a hang or a stack overflow.
//!
//! The one difference is deliberate and asserted below: the stamp is
//! now checked by a scan that stops at it, so a document from another
//! schema version that is *also* malformed somewhere after its stamp
//! reports `SchemaMismatch`, where parsing everything first said
//! `Parse`.

use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::{ManagerSnapshot, SnapshotError, Strategy, SNAPSHOT_SCHEMA_VERSION};
use arm_obs::Obs;
use arm_server::drill::events_from_scenario;
use arm_server::{Server, ServerConfig, ServerSnapshot, SERVER_SNAPSHOT_SCHEMA_VERSION};
use arm_sim::FaultSchedule;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Value};

/// A snapshot type with both decoders.
trait Image: Deserialize {
    const SCHEMA: u32;
    fn pull(s: &str) -> Result<Self, SnapshotError>;
    fn check(&self) -> Result<(), SnapshotError>;
    fn encode(&self) -> Result<String, SnapshotError>;

    /// `from_json` as it was: parse everything, look the stamp up in
    /// the tree, decode the tree, validate.
    fn tree(s: &str) -> Result<Self, SnapshotError> {
        let parse = |e: &dyn std::fmt::Display| SnapshotError::Parse(e.to_string());
        let v: Value = serde_json::from_str(s).map_err(|e| parse(&e))?;
        let found = v
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or_else(|| parse(&"missing or non-integer `schema` field"))?;
        if found != u64::from(Self::SCHEMA) {
            return Err(SnapshotError::SchemaMismatch {
                found: found as u32,
                expected: Self::SCHEMA,
            });
        }
        let image = Self::from_value(&v).map_err(|e| parse(&e))?;
        image.check()?;
        Ok(image)
    }
}

impl Image for ServerSnapshot {
    const SCHEMA: u32 = SERVER_SNAPSHOT_SCHEMA_VERSION;
    fn pull(s: &str) -> Result<Self, SnapshotError> {
        ServerSnapshot::from_json(s)
    }
    fn check(&self) -> Result<(), SnapshotError> {
        self.validate()
    }
    fn encode(&self) -> Result<String, SnapshotError> {
        self.to_json()
    }
}

impl Image for ManagerSnapshot {
    const SCHEMA: u32 = SNAPSHOT_SCHEMA_VERSION;
    fn pull(s: &str) -> Result<Self, SnapshotError> {
        ManagerSnapshot::from_json(s)
    }
    /// The manager's `from_json` leaves validation to `restore`.
    fn check(&self) -> Result<(), SnapshotError> {
        Ok(())
    }
    fn encode(&self) -> Result<String, SnapshotError> {
        self.to_json()
    }
}

/// The outcome of a decode, as far as a caller can act on it.
#[derive(Debug, PartialEq)]
enum Class {
    /// Accepted; the image re-encodes to this (or is refused on write).
    Ok(Result<String, SnapshotError>),
    Parse,
    SchemaMismatch(u32),
    Invalid,
}

fn class<T: Image>(got: Result<T, SnapshotError>) -> Class {
    match got {
        Ok(image) => Class::Ok(image.encode()),
        Err(SnapshotError::Parse(_)) => Class::Parse,
        Err(SnapshotError::SchemaMismatch { found, .. }) => Class::SchemaMismatch(found),
        Err(SnapshotError::Invalid(_)) => Class::Invalid,
    }
}

/// Both decoders on `doc`; they must agree. Returns the class.
fn agree<T: Image>(doc: &str, what: &str) -> Class {
    let (pull, tree) = (class(T::pull(doc)), class(T::tree(doc)));
    assert!(
        pull == tree,
        "{what}: one pass says {pull:.200?}, the tree says {tree:.200?}"
    );
    pull
}

/// The office server's checkpoints over the seed-42 workweek (the
/// documents `crash_recover` reads back) and its end state.
fn office_week_checkpoints() -> Vec<String> {
    let cfg = ServerConfig::office(42);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let mut server = Server::new(cfg, Obs::off()).expect("valid scenario");
    let mut docs = Vec::new();
    for ev in &events {
        server.apply_event(ev).expect("generated events are valid");
        if server.checkpoint_due() {
            docs.push(server.snapshot().to_json().expect("snapshot serializes"));
        }
    }
    docs.push(server.snapshot().to_json().expect("snapshot serializes"));
    assert_eq!(docs.len(), 36);
    docs
}

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

/// A server run through the first `prefix` events of its scenario.
fn server_at(cfg: &ServerConfig, prefix: usize) -> Server {
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let mut server = Server::new(cfg.clone(), Obs::off()).expect("valid scenario");
    for ev in &events[..prefix.min(events.len())] {
        server.apply_event(ev).expect("generated events are valid");
    }
    server
}

/// The crowded wing of `snapshot_roundtrip.rs`: blocked and dropped
/// connections, consumed claims and live ledgers are all in the image.
fn wing_end_state() -> String {
    let mut cfg = walk_cfg(42);
    cfg.scenario.environment = EnvSpec::OfficeWing { offices: 12 };
    cfg.scenario.mobility = MobilitySpec::RandomWalk {
        population: 96,
        mean_dwell_secs: 120,
        span_mins: 20,
    };
    cfg.scenario.cell_throughput_kbps = 400.0;
    server_at(&cfg, usize::MAX)
        .snapshot()
        .to_json()
        .expect("snapshot serializes")
}

/// The number token at or after byte `from` that follows a `:`, a `[`
/// or a `,` — a field's value or an array's element, such as a slot of
/// a handoff row — as a byte range.
fn number_after(doc: &str, from: usize) -> Option<std::ops::Range<usize>> {
    let bytes = doc.as_bytes();
    let start = (from..bytes.len().saturating_sub(1)).find(|&i| {
        matches!(bytes[i], b':' | b'[' | b',')
            && (bytes[i + 1] == b'-' || bytes[i + 1].is_ascii_digit())
    })? + 1;
    let len = bytes[start..]
        .iter()
        .position(|b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))?;
    Some(start..start + len)
}

/// What replaces a number: out of every integer's range, out of
/// `f64`'s, not a number at all, and the spellings JSON does not have.
const HOSTILE_NUMBERS: &[&str] = &[
    "18446744073709551616",
    "-9223372036854775809",
    "99999999999999999999999999",
    "1e400",
    "-1e400",
    "1e-400",
    "-1",
    "0.5",
    "null",
    "NaN",
    "Infinity",
    "-Infinity",
    "\"7\"",
    "[]",
    "{}",
    "-",
    "1e",
];

/// A few damaged copies of `doc`, each with what was done to it.
fn damaged(doc: &str, rng: &mut TestRng) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut at = || loop {
        let i = rng.usize_inclusive(0, doc.len() - 1);
        if doc.is_char_boundary(i) {
            return i;
        }
    };
    // Cut short.
    let keep = at();
    out.push((format!("cut to {keep} bytes"), doc[..keep].to_string()));
    // One byte overwritten.
    for _ in 0..2 {
        let i = at();
        if doc.is_char_boundary(i + 1) {
            const WITH: &[u8] = b"\"\\{}[]:,-.e019 \x00";
            let with = WITH[i % WITH.len()];
            let mut bytes = doc.as_bytes().to_vec();
            bytes[i] = with;
            let text = String::from_utf8(bytes).expect("ASCII over ASCII");
            out.push((format!("byte {i} set to {:?}", with as char), text));
        }
    }
    // A number made hostile.
    for _ in 0..2 {
        if let Some(span) = number_after(doc, at()) {
            let with = HOSTILE_NUMBERS[span.start % HOSTILE_NUMBERS.len()];
            let mut text = doc.to_string();
            text.replace_range(span.clone(), with);
            out.push((format!("number at {} set to {with}", span.start), text));
        }
    }
    out
}

/// Fields in another order than any writer emits, the stamp included:
/// still the same image.
fn reordered(doc: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    // The stamp last instead of first: the scan walks the whole
    // document to find it.
    let stamp = format!("{{\"schema\":{SERVER_SNAPSHOT_SCHEMA_VERSION},");
    if let Some(rest) = doc.strip_prefix(&stamp) {
        let body = rest.strip_suffix('}').expect("an object");
        out.push((
            "stamp moved to the end".to_string(),
            format!("{{{body},\"schema\":{SERVER_SNAPSHOT_SCHEMA_VERSION}}}"),
        ));
        // A second, skewed stamp after the first is not looked at ...
        out.push((
            "a second stamp".to_string(),
            format!("{stamp}{body},\"schema\":99}}"),
        ));
        // ... and one before it is the stamp.
        out.push((
            "a skewed stamp first".to_string(),
            format!("{{\"schema\":99,\"schema\":{SERVER_SNAPSHOT_SCHEMA_VERSION},{rest}"),
        ));
    }
    // Two neighbouring counters swapped.
    if let (Some(a), Some(b)) = (doc.find("\"accepted\":"), doc.find("\"rejected\":")) {
        let c = doc[b..].find(',').expect("more fields follow") + b;
        let swapped = format!(
            "{}{},{}{}",
            &doc[..a],
            &doc[b..c],
            &doc[a..b - 1],
            &doc[c..]
        );
        out.push(("accepted and rejected swapped".to_string(), swapped));
    }
    out
}

#[test]
fn office_week_checkpoints_decode_alike_however_damaged() {
    let mut rng = TestRng::deterministic(42);
    let docs = office_week_checkpoints();
    let mut classes = std::collections::BTreeMap::new();
    let mut tally = |class: &Class| {
        let name = match class {
            Class::Ok(_) => "ok",
            Class::Parse => "parse",
            Class::SchemaMismatch(_) => "schema",
            Class::Invalid => "invalid",
        };
        *classes.entry(name).or_insert(0usize) += 1;
    };
    for (i, doc) in docs.iter().enumerate() {
        // Every checkpoint is damaged; every sixth also decodes whole
        // and reordered (a whole decode through the tree is the slow
        // part of this test).
        if i % 6 == 0 {
            let whole = agree::<ServerSnapshot>(doc, &format!("checkpoint {i}"));
            assert_eq!(whole, Class::Ok(Ok(doc.clone())));
            for (how, text) in reordered(doc) {
                let what = format!("checkpoint {i}, {how}");
                let class = agree::<ServerSnapshot>(&text, &what);
                if how == "a skewed stamp first" {
                    assert_eq!(class, Class::SchemaMismatch(99), "{what}");
                } else {
                    assert_eq!(class, Class::Ok(Ok(doc.clone())), "{what}");
                }
                tally(&class);
            }
        }
        for (how, text) in damaged(doc, &mut rng) {
            tally(&agree::<ServerSnapshot>(
                &text,
                &format!("checkpoint {i}, {how}"),
            ));
        }
    }
    // The damage is not all of one kind.
    assert!(classes["parse"] >= 50, "{classes:?}");
    assert!(classes["ok"] >= 10, "{classes:?}");
    assert!(classes.contains_key("schema"), "{classes:?}");
}

#[test]
fn wing_end_state_decodes_alike_however_damaged() {
    let mut rng = TestRng::deterministic(7);
    let doc = wing_end_state();
    assert_eq!(
        agree::<ServerSnapshot>(&doc, "wing"),
        Class::Ok(Ok(doc.clone()))
    );
    for (how, text) in reordered(&doc) {
        agree::<ServerSnapshot>(&text, &format!("wing, {how}"));
    }
    for _ in 0..12 {
        for (how, text) in damaged(&doc, &mut rng) {
            agree::<ServerSnapshot>(&text, &format!("wing, {how}"));
        }
    }
}

/// The hostile edits of `snapshot_roundtrip.rs` (PR 15; its three
/// engine rows went with the engine's image in v8, and v9 swapped its
/// six slot-width rows — the slots are gone — for six kinds of damage
/// to the network image): documents that decode and must then be
/// refused by validation — `Invalid`, by both routes — plus, around
/// each, every hostile number in its place. A last row names a wired
/// link in eqn 2's `t⁻` record, which is kept by cell.
#[test]
fn hostile_edits_are_refused_alike() {
    let table = [
        ("\"sum_resv\":56.0", "\"sum_resv\":5.0"),
        (
            "\"capacity\":800.0,\"buffer_capacity\":null,\"allocs\":[],\"advance\":[[{\"Conn\":4},16.0]",
            "\"capacity\":8.0,\"buffer_capacity\":null,\"allocs\":[],\"advance\":[[{\"Conn\":4},16.0]",
        ),
        ("[],[4],[],[4],[3,7]", "[],[],[],[4],[3,7]"),
        (
            "\"links\":[15,17]},\"b_current\"",
            "\"links\":[15,16]},\"b_current\"",
        ),
        ("{\"id\":1,\"portable\":30003", "{\"id\":2,\"portable\":30003"),
        (
            "{\"id\":7,\"portable\":30001,\"cell\":4,\"remote\":0,\"qos\":{\"b_min\":16.0,\
             \"b_max\":16.0,\"delay_bound\":30.0,\"jitter_bound\":30.0,\"loss_bound\":1.0,\
             \"traffic\":{\"sigma\":1.6,\"rho\":16.0,\"l_max\":1.0}},\"route\":{\"nodes\":[10,9,0],\
             \"links\":[12,14]},\"b_current\":16.0,\"started\":466338073}",
            "null",
        ),
        ("\"last_excess\":[]", "\"last_excess\":[[14,5.0]]"),
    ];
    let server = server_at(&walk_cfg(7), 40);
    let server_json = server.snapshot().to_json().expect("snapshot serializes");
    let manager_json = server
        .mgr
        .snapshot()
        .to_json()
        .expect("snapshot serializes");
    for (needle, hostile) in table {
        assert!(server_json.contains(needle), "layout drifted: {needle}");
        let edited = server_json.replacen(needle, hostile, 1);
        assert_eq!(
            agree::<ServerSnapshot>(&edited, needle),
            Class::Invalid,
            "{needle}"
        );
        if manager_json.contains(needle) {
            // Decodes; `restore` is what refuses it.
            let edited = manager_json.replacen(needle, hostile, 1);
            assert!(matches!(
                agree::<ManagerSnapshot>(&edited, needle),
                Class::Ok(_)
            ));
        }
        // The number the edit targets, and the one after it.
        let at = server_json.find(needle).expect("present");
        for from in [at, at + needle.len()] {
            let Some(span) = number_after(&server_json, from) else {
                continue;
            };
            for with in HOSTILE_NUMBERS {
                let mut text = server_json.clone();
                text.replace_range(span.clone(), with);
                agree::<ServerSnapshot>(&text, &format!("{needle}: {with} at {}", span.start));
            }
        }
    }
    // Every number of the small image, made hostile one way each.
    let mut from = 0;
    let mut tried = 0;
    while let Some(span) = number_after(&manager_json, from) {
        let with = HOSTILE_NUMBERS[tried % HOSTILE_NUMBERS.len()];
        let mut text = manager_json.clone();
        text.replace_range(span.clone(), with);
        agree::<ManagerSnapshot>(&text, &format!("manager: {with} at {}", span.start));
        from = span.end;
        tried += 1;
    }
    assert!(tried > 200, "{tried} numbers tried");
}

/// The first handoff history in `doc` retaining at least `rows` events:
/// the byte ranges of its `cap` and `total_recorded` values, and how
/// many events it retains.
fn history_with(
    doc: &str,
    rows: usize,
) -> Option<(std::ops::Range<usize>, std::ops::Range<usize>, usize)> {
    const OPEN: &str = "\"history\":{\"cap\":";
    let mut from = 0;
    while let Some(at) = doc[from..].find(OPEN) {
        let cap = number_after(doc, from + at)?;
        // Rows are flat arrays, so the first `],"total_recorded":` after
        // the cap closes this history's events.
        let close = cap.end + doc[cap.end..].find("],\"total_recorded\":")?;
        let events = doc[cap.end..close].matches('[').count() - 1;
        let total = number_after(doc, close)?;
        if events >= rows {
            return Some((cap, total, events));
        }
        from = close;
    }
    None
}

/// One history of `doc` made into one `record` could not keep bounded —
/// no room at all, more events than room, fewer recorded than retained —
/// is refused at decode by both routes; at its bounds it is an image.
fn history_bounds_are_checked<T: Image>(doc: &str) {
    let (cap, total, events) = history_with(doc, 2).expect("a history retains two events");
    let fewer = (events - 1).to_string();
    for (span, with) in [
        (&cap, "0"),
        (&cap, fewer.as_str()),
        (&total, fewer.as_str()),
    ] {
        let mut edited = doc.to_string();
        edited.replace_range(span.clone(), with);
        let what = format!("{with} at {}", span.start);
        assert_eq!(agree::<T>(&edited, &what), Class::Parse, "{what}");
    }
    // A hundred thousand rows: the one pass refuses the history at row
    // `cap + 1`, before it reads (let alone keeps) the rest; the tree
    // holds them all first. The same class either way.
    const EVENTS: &str = ",\"events\":[";
    let rows = cap.end + EVENTS.len();
    assert_eq!(&doc[cap.end..rows], EVENTS, "layout drifted");
    let row = &doc[rows..=rows + doc[rows..].find(']').expect("a row")];
    let close = rows
        + doc[rows..]
            .find("],\"total_recorded\":")
            .expect("events close");
    let flood = format!(
        "{}{}{}",
        &doc[..rows],
        vec![row; 100_000].join(","),
        &doc[close..]
    );
    assert_eq!(agree::<T>(&flood, "100,000 rows"), Class::Parse);
    let mut edited = doc.to_string();
    edited.replace_range(cap, &events.to_string());
    assert_eq!(
        agree::<T>(&edited, "cap = len"),
        Class::Ok(Ok(edited.clone()))
    );
}

/// A decoded history outside its bounds used to be accepted, and then
/// grew without limit: `record` evicts only when `len == cap`, which
/// never holds again once `len > cap` (or `cap == 0`).
#[test]
fn a_history_outside_its_bounds_is_refused_alike() {
    let server = server_at(&walk_cfg(7), 40);
    history_bounds_are_checked::<ServerSnapshot>(
        &server.snapshot().to_json().expect("snapshot serializes"),
    );
    history_bounds_are_checked::<ManagerSnapshot>(
        &server
            .mgr
            .snapshot()
            .to_json()
            .expect("snapshot serializes"),
    );
}

/// The first link ledger in `doc` holding at least two advance claims:
/// the byte range of its `advance` array and the text of each
/// `[key, value]` pair, in document order.
fn advance_claims(doc: &str) -> Option<(std::ops::Range<usize>, Vec<&str>)> {
    const FIELD: &str = "\"advance\":";
    let mut from = 0;
    while let Some(at) = doc[from..].find(FIELD) {
        let open = from + at + FIELD.len();
        from = open;
        let (mut depth, mut start, mut pairs) = (0, open, Vec::new());
        for (i, b) in doc.bytes().enumerate().skip(open) {
            match b {
                b'[' | b'{' => {
                    depth += 1;
                    if depth == 2 {
                        start = i;
                    }
                }
                b']' | b'}' => {
                    depth -= 1;
                    if depth == 1 {
                        pairs.push(&doc[start..=i]);
                    }
                    if depth == 0 {
                        if pairs.len() >= 2 {
                            return Some((open..i + 1, pairs));
                        }
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// A claim table is written ascending with one entry per key, but a
/// hand-edited one may be neither: it decodes as a map reads it — the
/// order is not kept and the last of two equal keys wins — by both
/// routes, so an unsorted table with a shadowed duplicate is the same
/// image, and a duplicate that overrides a claim is a ledger that no
/// longer sums to its `b_resv` and is refused.
#[test]
fn unsorted_and_duplicate_claim_keys_decode_as_a_map_reads_them() {
    let server = server_at(&walk_cfg(7), 40);
    let server_json = server.snapshot().to_json().expect("snapshot serializes");
    let manager_json = server
        .mgr
        .snapshot()
        .to_json()
        .expect("snapshot serializes");
    let (span, pairs) = advance_claims(&server_json).expect("a link holds two claims");
    let first = pairs[0];
    let other_amount = format!("{},1234.5]", &first[..first.rfind(',').expect("a pair")]);
    let reversed: Vec<&str> = pairs.iter().rev().copied().collect();
    let table = |pairs: &[&str]| format!("[{}]", pairs.join(","));
    let shadowed = [&[other_amount.as_str()][..], &reversed].concat();
    let overriding = [&reversed[..], &[other_amount.as_str()]].concat();
    for (how, advance, same_image) in [
        ("reversed", table(&reversed), true),
        ("reversed, an earlier duplicate", table(&shadowed), true),
        ("reversed, a later duplicate", table(&overriding), false),
    ] {
        let mut edited = server_json.clone();
        edited.replace_range(span.clone(), &advance);
        let want = if same_image {
            Class::Ok(Ok(server_json.clone()))
        } else {
            Class::Invalid
        };
        assert_eq!(agree::<ServerSnapshot>(&edited, how), want, "{how}");
        // The manager image holds the same table. Its decode does not
        // validate; writing it back (like `restore`) does.
        let needle = &server_json[span.clone()];
        assert!(manager_json.contains(needle), "layout drifted");
        let edited = manager_json.replacen(needle, &advance, 1);
        let got = agree::<ManagerSnapshot>(&edited, how);
        if same_image {
            assert_eq!(got, Class::Ok(Ok(manager_json.clone())), "{how}");
        } else {
            let refused = matches!(got, Class::Ok(Err(SnapshotError::Invalid(_))));
            assert!(refused, "{how}: {got:.300?}");
        }
    }
}

/// The documented difference. Skewed *and* damaged after the stamp:
/// the scan has its answer at byte 12 and never sees the damage.
#[test]
fn a_skewed_stamp_is_reported_before_damage_behind_it() {
    let server = server_at(&walk_cfg(7), 40);
    let current = server.snapshot().to_json().expect("snapshot serializes");
    let stamp = format!("{{\"schema\":{SERVER_SNAPSHOT_SCHEMA_VERSION},");
    let skewed = current.replacen(&stamp, "{\"schema\":6,", 1);
    assert_ne!(skewed, current, "layout drifted");
    // Whole, both routes say which version it is.
    assert_eq!(
        agree::<ServerSnapshot>(&skewed, "v6"),
        Class::SchemaMismatch(6)
    );
    for damaged in [&skewed[..skewed.len() / 2], &format!("{skewed}]")] {
        assert_eq!(
            class(ServerSnapshot::pull(damaged)),
            Class::SchemaMismatch(6)
        );
        assert_eq!(class(ServerSnapshot::tree(damaged)), Class::Parse);
    }
    // Damage before the stamp's value is still a parse error ...
    for cut in ["{\"schema\":", "{\"sche", "{\"schema\":-6,"] {
        assert_eq!(agree::<ServerSnapshot>(cut, cut), Class::Parse);
    }
    // ... and so is a current document damaged anywhere.
    assert_eq!(
        agree::<ServerSnapshot>(&format!("{current}]"), "trailing bracket"),
        Class::Parse
    );
}

/// One line of a hundred thousand brackets used to overflow the stack
/// inside the parser (`SIGABRT`, not an error) — as a checkpoint file
/// it killed a restart. Nesting is capped at 128 now.
#[test]
fn deep_nesting_is_a_typed_parse_error() {
    let server = server_at(&walk_cfg(7), 40);
    let current = server.snapshot().to_json().expect("snapshot serializes");
    let manager = server
        .mgr
        .snapshot()
        .to_json()
        .expect("snapshot serializes");
    for opener in ["[", "{\"a\":"] {
        let bomb = opener.repeat(100_000);
        let bombed = |doc: &str, schema: u32| {
            let stamp = format!("{{\"schema\":{schema},");
            [
                bomb.clone(),
                // Where a known field's value belongs, and an unknown one's.
                doc.replacen(&stamp, &format!("{stamp}\"cfg\":{bomb},"), 1),
                doc.replacen(&stamp, &format!("{stamp}\"zzz\":{bomb},"), 1),
                // Before the stamp, where only the scan goes.
                doc.replacen(&stamp, &format!("{{\"zzz\":{bomb},{}", &stamp[1..]), 1),
            ]
        };
        for doc in &bombed(&current, SERVER_SNAPSHOT_SCHEMA_VERSION) {
            assert_eq!(class(ServerSnapshot::pull(doc)), Class::Parse);
            match ServerSnapshot::from_json(doc) {
                Err(SnapshotError::Parse(why)) => {
                    assert!(why.contains("nesting deeper than 128"), "{why}");
                }
                other => panic!("want Parse, got {other:?}"),
            }
        }
        for doc in &bombed(&manager, SNAPSHOT_SCHEMA_VERSION) {
            assert_eq!(class(ManagerSnapshot::pull(doc)), Class::Parse);
        }
    }
    // Nothing a server writes comes near the cap.
    let deepest = current
        .bytes()
        .scan(0i32, |depth, b| {
            *depth += i32::from(matches!(b, b'[' | b'{')) - i32::from(matches!(b, b']' | b'}'));
            Some(*depth)
        })
        .max();
    assert!(deepest < Some(32), "{deepest:?}");
}
