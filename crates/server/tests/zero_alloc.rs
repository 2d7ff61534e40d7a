//! The allocation contracts of the server's persistence path, pinned by
//! the counting global allocator — the server-side sibling of
//! `crates/core/tests/zero_alloc.rs`: decoding one journal line,
//! encoding one, and capturing a checkpoint's image.
//!
//! Every line a server ingests and every line it replays after a crash
//! goes through [`parse_event`]. The line is decoded straight from its
//! text (`Deserialize::read_json`: variant tag and field names matched
//! against literals, numbers parsed in place), and no `ServerEvent`
//! variant owns a string, so the exact count is zero for all eleven.
//! While lines were parsed into a `serde::Value` tree first, the office
//! week averaged 5.99 allocations a line (the benchmark's
//! `alloc.parse.per_event`).

use arm_alloc_counter::{allocations_during, CountingAlloc};
use arm_net::ids::{CellId, LinkId, PortableId, ZoneId};
use arm_obs::Obs;
use arm_server::drill::events_from_scenario;
use arm_server::ingest::parse_event;
use arm_server::{Server, ServerConfig, ServerEvent};
use arm_sim::{FaultSchedule, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One event of every variant.
fn one_of_each() -> Vec<ServerEvent> {
    let t = SimTime::from_secs(86_400);
    let portable = PortableId(239);
    vec![
        ServerEvent::Appear {
            t,
            portable,
            cell: CellId(62),
        },
        ServerEvent::Move {
            t,
            portable,
            to: CellId(0),
        },
        ServerEvent::Depart { t, portable },
        ServerEvent::Request {
            t,
            portable,
            b_min_kbps: 16.0,
            b_max_kbps: 63.999,
        },
        ServerEvent::LinkDown { t, link: LinkId(7) },
        ServerEvent::LinkUp { t, link: LinkId(7) },
        ServerEvent::ProfileServerDown { t, zone: ZoneId(3) },
        ServerEvent::ProfileServerUp { t, zone: ZoneId(3) },
        ServerEvent::FailNextHandoff { t, portable },
        ServerEvent::ChannelChange {
            t,
            cell: CellId(5),
            fraction: 0.125,
        },
        ServerEvent::QueuePressure { t, on: true },
    ]
}

#[test]
fn decoding_a_journal_line_allocates_nothing() {
    let events = one_of_each();
    let mut labels: Vec<&str> = events.iter().map(ServerEvent::label).collect();
    labels.dedup();
    assert_eq!(labels.len(), 11, "one line per variant: {labels:?}");
    for ev in &events {
        let line = ev.to_jsonl().expect("serializable");
        let (back, allocs) = allocations_during(|| parse_event(&line));
        assert_eq!(back.as_ref(), Ok(ev), "{line}");
        assert_eq!(allocs, 0, "{line}");
        // Not only as the writer spells it: spaced out and with its
        // fields in another order, the keys are still only compared.
        let spaced = line.replace(':', " : ").replace(',', " ,\t");
        let (back, allocs) = allocations_during(|| parse_event(&spaced));
        assert_eq!(back.as_ref(), Ok(ev), "{spaced}");
        assert_eq!(allocs, 0, "{spaced}");
    }
    let reordered = r#"{"Move":{"to":4,"extra":[1,{"k":"v"}],"portable":9,"t":60000000}}"#;
    let (back, allocs) = allocations_during(|| parse_event(reordered));
    assert!(back.is_ok(), "{back:?}");
    assert_eq!(allocs, 0, "{reordered}");
}

/// The other direction: every accepted event is written to the journal
/// by `to_jsonl`, into one `String` reserved for the longest line the
/// event can have, so each of the eleven is one allocation. Grown from
/// empty it was three on the office week's lines (the benchmark's
/// `alloc.journal.per_event`).
#[test]
fn encoding_a_journal_line_allocates_once() {
    for ev in &one_of_each() {
        let (line, allocs) = allocations_during(|| ev.to_jsonl());
        let line = line.expect("serializable");
        assert_eq!(allocs, 1, "{line}");
    }
}

/// Capturing a warm office server — the seed-42 week at its eighth
/// checkpoint, the rows' text filled — copies no profile: they are
/// shared with the snapshot by a reference count. What it allocates is
/// the rest of the image, cloned: the network's tables, the portables,
/// the policies and the config — 249 allocations, where the deep clone
/// of the profiles (every ring, its tallies and its row text) made it
/// 508. A clone of the profiles creeping back moves it by hundreds.
#[test]
fn capturing_an_office_checkpoint_copies_no_profile() {
    let cfg = ServerConfig::office(42);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    let mut server = Server::new(cfg, Obs::off()).expect("valid scenario");
    for ev in &events {
        server.apply_event(ev).expect("generated events are valid");
        if server.checkpoint_due() && server.accepted() == 8 * 256 {
            break;
        }
    }
    let (snap, allocs) = allocations_during(|| server.snapshot());
    assert_eq!(allocs, 249);
    drop(snap);
}
