//! Crash recovery from a journal whose last append was torn.
//!
//! A crash mid-append leaves the journal ending in a fragment with no
//! newline — the likeliest real failure, and one `run_server --restore`
//! used to refuse outright. The real binary is driven here: a victim
//! writes a checkpoint and a journal, the journal's final line is cut
//! at every byte offset, and each recovery must finish with the report
//! a journal without that line gives, leaving that journal on disk.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use arm_server::drill::events_from_scenario;
use arm_server::ServerConfig;
use arm_sim::FaultSchedule;

/// Events the victim takes before its checkpoint, and after it (the
/// journal suffix every recovery replays).
const BEFORE: usize = 120;
const AFTER: usize = 40;

fn run_server(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_server"))
        .args(args)
        .output()
        .expect("run_server starts")
}

/// Assert a clean exit and hand back what the run said on stderr.
fn stderr_of_success(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    stderr
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

/// A scratch directory holding a checkpoint taken at `BEFORE` events
/// and a journal that runs `AFTER` events past it.
struct Victim {
    dir: PathBuf,
    snapshot: PathBuf,
    journal: Vec<u8>,
    /// An empty `--input` file: recoveries replay and stop.
    no_input: PathBuf,
}

impl Victim {
    fn new(tag: &str) -> Victim {
        let dir = std::env::temp_dir().join(format!("arm-torn-{tag}-{}", std::process::id()));
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
        let no_input = dir.join("empty.jsonl");
        fs::write(&no_input, "").expect("input written");
        let journal = dir.join("journal.jsonl");
        let report = dir.join("report.json");
        // First life: the clean shutdown cuts the checkpoint.
        let out = run_server(&[
            "--input",
            path_str(&head),
            "--journal",
            path_str(&journal),
            "--checkpoint-dir",
            path_str(&dir),
            "--checkpoint-every",
            "0",
            "--report",
            path_str(&report),
        ]);
        stderr_of_success(&out);
        let snapshot = dir.join("snapshot-latest.json");
        assert!(snapshot.exists(), "the victim checkpointed");
        // Second life, no checkpoint directory: the journal outruns
        // the checkpoint by the tail's accepted events.
        let out = run_server(&[
            "--restore",
            path_str(&snapshot),
            "--input",
            path_str(&tail),
            "--journal",
            path_str(&journal),
            "--report",
            path_str(&report),
        ]);
        stderr_of_success(&out);
        let journal = fs::read(&journal).expect("journal written");
        assert_eq!(
            journal.last(),
            Some(&b'\n'),
            "appends are newline-terminated"
        );
        Victim {
            dir,
            snapshot,
            journal,
            no_input,
        }
    }

    /// Recover from the checkpoint and `journal`, then take `input`.
    /// Returns the process output, the report and the journal left on
    /// disk.
    fn recover(&self, journal: &[u8], input: &Path) -> (Output, Vec<u8>, Vec<u8>) {
        let (jpath, rpath) = (
            self.dir.join("recover.jsonl"),
            self.dir.join("recover.json"),
        );
        fs::write(&jpath, journal).expect("journal copy written");
        let _ = fs::remove_file(&rpath);
        let out = run_server(&[
            "--restore",
            path_str(&self.snapshot),
            "--input",
            path_str(input),
            "--journal",
            path_str(&jpath),
            "--report",
            path_str(&rpath),
        ]);
        let report = fs::read(&rpath).unwrap_or_default();
        (out, report, fs::read(&jpath).expect("journal survives"))
    }

    /// Byte length of the journal without its final line.
    fn len_without_last_line(&self) -> usize {
        let body = &self.journal[..self.journal.len() - 1];
        body.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1)
    }
}

impl Drop for Victim {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn a_final_line_cut_at_any_byte_recovers_as_if_it_were_absent() {
    let v = Victim::new("cut");
    let base = v.len_without_last_line();
    let last_line = &v.journal[base..];
    assert!(base > 0 && last_line.len() > 20, "a real event line");
    let (out, want, left) = v.recover(&v.journal[..base], &v.no_input);
    stderr_of_success(&out);
    assert!(!want.is_empty());
    assert_eq!(left, &v.journal[..base], "a whole journal is left alone");
    // Every torn length, up to the whole line minus its newline.
    for keep in 1..last_line.len() {
        let (out, got, left) = v.recover(&v.journal[..base + keep], &v.no_input);
        let stderr = stderr_of_success(&out);
        assert!(
            stderr.contains("torn append"),
            "{keep} bytes kept: {stderr}"
        );
        assert!(got == want, "{keep} bytes kept: report differs");
        assert!(
            left == v.journal[..base],
            "{keep} bytes kept: the fragment must be cut off the file"
        );
    }
    // The next append lands on its own line, not glued to the fragment:
    // re-sending the torn event rebuilds the original journal exactly.
    let resend = v.dir.join("resend.jsonl");
    fs::write(&resend, last_line).expect("input written");
    let (out, full, _) = v.recover(&v.journal, &v.no_input);
    stderr_of_success(&out);
    let (out, got, left) = v.recover(&v.journal[..base + last_line.len() / 2], &resend);
    stderr_of_success(&out);
    assert!(
        got == full,
        "re-sent event must land as the journaled one did"
    );
    assert!(left == v.journal, "fragment dropped, event appended whole");
}

#[test]
fn a_complete_line_that_does_not_parse_still_aborts() {
    let v = Victim::new("corrupt");
    let base = v.len_without_last_line();
    let mut bad = v.journal.clone();
    // Break the final line's JSON but keep its newline: not a torn
    // append, so not forgiven.
    bad[base] = b'!';
    let (out, report, left) = v.recover(&bad, &v.no_input);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt journal line"), "{stderr}");
    assert!(report.is_empty(), "no report from a refused recovery");
    assert_eq!(left, bad, "a refused journal is not rewritten");
}
