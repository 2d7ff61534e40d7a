//! A checkpoint file cut short, and a checkpoint write that never
//! finished.
//!
//! `run_server` writes `snapshot-latest.json.tmp` and renames it over
//! `snapshot-latest.json`, so a crash mid-write leaves a whole previous
//! checkpoint plus, perhaps, a partial `.tmp`. Two things follow. A
//! restart must not mind the `.tmp`. And should the checkpoint itself
//! ever arrive torn (a copy cut short, a filesystem without atomic
//! rename), every proper prefix of it must be refused as
//! `SnapshotError::Parse` — never a panic, a hang, or a snapshot built
//! from half a document.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use arm_core::SnapshotError;
use arm_server::drill::events_from_scenario;
use arm_server::{ServerConfig, ServerSnapshot};
use arm_sim::FaultSchedule;

/// Events before the checkpoint, and after it.
const BEFORE: usize = 300;
const AFTER: usize = 40;

fn run_server(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_run_server"))
        .args(args)
        .output()
        .expect("run_server starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

/// A scratch directory in which the real binary has taken `BEFORE`
/// office events and, shutting down cleanly, cut a checkpoint.
struct Victim {
    dir: PathBuf,
    snapshot: PathBuf,
    journal: PathBuf,
    tail: PathBuf,
}

impl Victim {
    fn new(tag: &str) -> Victim {
        let dir = std::env::temp_dir().join(format!("arm-tornsnap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        let events =
            events_from_scenario(&ServerConfig::office(42).scenario, &FaultSchedule::empty())
                .expect("valid scenario");
        let lines: Vec<String> = events[..BEFORE + AFTER]
            .iter()
            .map(|e| e.to_jsonl().expect("serializable"))
            .collect();
        let (head, tail) = (dir.join("head.jsonl"), dir.join("tail.jsonl"));
        fs::write(&head, lines[..BEFORE].join("\n") + "\n").expect("input written");
        fs::write(&tail, lines[BEFORE..].join("\n") + "\n").expect("input written");
        let journal = dir.join("journal.jsonl");
        run_server(&[
            "--input",
            path_str(&head),
            "--journal",
            path_str(&journal),
            "--checkpoint-dir",
            path_str(&dir),
            "--report",
            path_str(&dir.join("first-life.json")),
        ]);
        let snapshot = dir.join("snapshot-latest.json");
        assert!(snapshot.exists(), "the victim checkpointed");
        Victim {
            dir,
            snapshot,
            journal,
            tail,
        }
    }

    /// Restart from the checkpoint, take the tail, checkpointing into
    /// the same directory; returns the report.
    fn second_life(&self, tag: &str) -> Vec<u8> {
        let journal = self.dir.join(format!("journal-{tag}.jsonl"));
        fs::copy(&self.journal, &journal).expect("journal copied");
        let report = self.dir.join(format!("report-{tag}.json"));
        run_server(&[
            "--restore",
            path_str(&self.snapshot),
            "--input",
            path_str(&self.tail),
            "--journal",
            path_str(&journal),
            "--checkpoint-dir",
            path_str(&self.dir),
            "--checkpoint-every",
            "16",
            "--report",
            path_str(&report),
        ]);
        fs::read(&report).expect("report written")
    }
}

impl Drop for Victim {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn every_truncation_of_a_checkpoint_is_a_typed_parse_error() {
    let v = Victim::new("cut");
    let json = fs::read_to_string(&v.snapshot).expect("checkpoint reads");
    assert!(ServerSnapshot::from_json(&json).is_ok());
    assert!(json.len() > 8192, "a real image: {} bytes", json.len());
    // Every length in the last 4 KB, where the document's closing
    // brackets and the server's own small fields sit, and one in 997
    // (a prime, so it lands on every kind of token) across the rest.
    let tail_from = json.len() - 4096;
    let cuts = (0..tail_from).step_by(997).chain(tail_from..json.len());
    let mut tried = 0;
    for keep in cuts.filter(|&k| json.is_char_boundary(k)) {
        match ServerSnapshot::from_json(&json[..keep]) {
            Err(SnapshotError::Parse(_)) => tried += 1,
            other => panic!("{keep} of {} bytes kept: got {other:?}", json.len()),
        }
    }
    assert!(tried >= 4096, "{tried} truncations tried");
}

#[test]
fn a_leftover_tmp_checkpoint_is_ignored_at_restart() {
    let clean = Victim::new("clean");
    let want = clean.second_life("clean");
    assert!(
        !clean.dir.join("snapshot-latest.json.tmp").exists(),
        "a finished write leaves no .tmp"
    );
    // Any real document will do as the one to cut in half.
    let json = fs::read_to_string(&clean.snapshot).expect("checkpoint reads");
    // A write the crash cut in half, then one that is not JSON at all.
    for (tag, leftover) in [("half", &json[..json.len() / 2]), ("junk", "\u{0}not json")] {
        let first = Victim::new(tag);
        fs::write(first.dir.join("snapshot-latest.json.tmp"), leftover).expect("leftover written");
        let got = first.second_life(tag);
        assert!(got == want, "{tag}: the leftover .tmp changed the run");
        assert!(
            !first.dir.join("snapshot-latest.json.tmp").exists(),
            "{tag}: the next checkpoint's rename consumes the .tmp"
        );
        let latest = fs::read_to_string(&first.snapshot).expect("checkpoint reads");
        let snap = ServerSnapshot::from_json(&latest).expect("the new checkpoint is whole");
        assert_eq!(snap.accepted(), (BEFORE + AFTER) as u64);
    }
}
