//! The long-running server binary.
//!
//! Reads [`ServerEvent`] JSONL from stdin, a file, or a TCP socket,
//! drives a [`Server`], and emits observability JSONL plus a final
//! `RunReport`. Supports periodic checkpointing, an append-only event
//! journal, and `--restore` (checkpoint + journal replay = crash
//! recovery; a journal whose last append was torn by the crash is cut
//! back to its last complete line first).
//!
//! ```text
//! run_server [--scenario office|sample] [--seed N]
//!            [--input FILE|-] [--listen ADDR]
//!            [--obs FILE] [--report FILE]
//!            [--journal FILE] [--checkpoint-dir DIR]
//!            [--checkpoint-every N] [--backlog N]
//!            [--restore SNAPSHOT]
//! ```
//!
//! In `--listen` mode a line consisting of `SHUTDOWN` ends the run
//! cleanly. Malformed or invalid lines are rejected per line (counted,
//! surfaced as `IngestRejected` observability events) and the stream
//! continues; transient journal/checkpoint write failures retry under
//! a capped backoff; input beyond the bounded backlog raises journaled
//! `QueuePressure` (degraded-mode shedding) instead of unbounded
//! buffering.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use arm_obs::{Obs, ObsConfig};
use arm_server::backlog::{Backlog, PopOutcome, PushOutcome};
use arm_server::ingest::parse_event;
use arm_server::{RetryPolicy, Server, ServerConfig, ServerEvent, ServerSnapshot};
/// Parsed command line.
struct Args {
    scenario: String,
    seed: u64,
    input: Option<String>,
    listen: Option<String>,
    obs: Option<PathBuf>,
    report: Option<PathBuf>,
    journal: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
    backlog: usize,
    restore: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run_server [--scenario office|sample] [--seed N] [--input FILE|-] \
         [--listen ADDR] [--obs FILE] [--report FILE] [--journal FILE] \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--backlog N] [--restore SNAPSHOT]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("run_server: {msg}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut out = Args {
        scenario: "office".to_string(),
        seed: 42,
        input: None,
        listen: None,
        obs: None,
        report: None,
        journal: None,
        checkpoint_dir: None,
        checkpoint_every: 256,
        backlog: 1024,
        restore: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("run_server: {name} needs a value");
                usage();
            }
        };
        match flag.as_str() {
            "--scenario" => out.scenario = value("--scenario"),
            "--seed" => match value("--seed").parse() {
                Ok(v) => out.seed = v,
                Err(_) => fail("--seed must be an integer"),
            },
            "--input" => out.input = Some(value("--input")),
            "--listen" => out.listen = Some(value("--listen")),
            "--obs" => out.obs = Some(PathBuf::from(value("--obs"))),
            "--report" => out.report = Some(PathBuf::from(value("--report"))),
            "--journal" => out.journal = Some(PathBuf::from(value("--journal"))),
            "--checkpoint-dir" => {
                out.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")));
            }
            "--checkpoint-every" => match value("--checkpoint-every").parse() {
                Ok(v) => out.checkpoint_every = v,
                Err(_) => fail("--checkpoint-every must be an integer"),
            },
            "--backlog" => match value("--backlog").parse() {
                Ok(v) => out.backlog = v,
                Err(_) => fail("--backlog must be an integer"),
            },
            "--restore" => out.restore = Some(PathBuf::from(value("--restore"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("run_server: unknown flag {other}");
                usage();
            }
        }
    }
    out
}

/// All the side-effect state the event loop threads through.
struct Driver {
    server: Server,
    backlog: Backlog,
    journal: Option<fs::File>,
    checkpoint_dir: Option<PathBuf>,
    retry: RetryPolicy,
}

impl Driver {
    /// Process one raw input line end to end: parse, apply, journal,
    /// checkpoint. Rejections are logged and swallowed — the server
    /// keeps serving.
    fn process_line(&mut self, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        match parse_event(line) {
            Ok(ev) => self.process_event(&ev, true),
            Err(_) => {
                // Re-run through the server so the rejection is
                // counted and surfaced on the observability stream.
                if let arm_server::LineOutcome::Rejected(e) = self.server.ingest_line(line) {
                    eprintln!("run_server: rejected line: {e}");
                }
            }
        }
    }

    /// Apply a decoded event; journal it (unless replaying) and cut a
    /// checkpoint when one is due.
    fn process_event(&mut self, ev: &ServerEvent, journal: bool) {
        if let Err(e) = self.server.apply_event(ev) {
            eprintln!("run_server: rejected event: {e}");
            return;
        }
        if journal {
            self.append_journal(ev);
        }
        if self.server.checkpoint_due() {
            self.write_checkpoint();
        }
    }

    /// Transport backpressure crossings become real, journaled events,
    /// so a replay reproduces the degraded windows exactly.
    fn pressure_event(&mut self, on: bool) {
        let ev = ServerEvent::QueuePressure {
            t: self.server.last_time(),
            on,
        };
        self.process_event(&ev, true);
    }

    /// Offer a line to the bounded backlog, draining under pressure —
    /// never growing past capacity.
    fn enqueue(&mut self, line: String) {
        loop {
            match self.backlog.push(line.clone()) {
                PushOutcome::Accepted => return,
                PushOutcome::AcceptedPressureOn => {
                    self.pressure_event(true);
                    return;
                }
                PushOutcome::Refused => self.drain_one(),
            }
        }
    }

    /// Pop and process one queued line, clearing pressure when the
    /// drain crosses the low watermark.
    fn drain_one(&mut self) {
        match self.backlog.pop() {
            PopOutcome::Line(l) => self.process_line(&l),
            PopOutcome::LinePressureOff(l) => {
                self.process_line(&l);
                self.pressure_event(false);
            }
            PopOutcome::Empty => {}
        }
    }

    fn drain_all(&mut self) {
        while !self.backlog.is_empty() {
            self.drain_one();
        }
    }

    /// Append the canonical encoding of an accepted event to the
    /// journal, retrying transient write failures under the capped
    /// backoff. If replaying past the snapshot cursor, skip instead —
    /// those lines are already on disk.
    fn append_journal(&mut self, ev: &ServerEvent) {
        let Some(file) = self.journal.as_mut() else {
            return;
        };
        let line = match ev.to_jsonl() {
            Ok(l) => l,
            Err(e) => fail(&format!("journal encode failed: {e}")),
        };
        let wrote = self.retry.run(
            || writeln!(file, "{line}").and_then(|()| file.flush()),
            std::thread::sleep,
        );
        if let Err(e) = wrote {
            fail(&format!("journal append failed after retries: {e}"));
        }
    }

    /// Write `snapshot-latest.json` atomically (tmp + rename), retrying
    /// transient failures. A failed write is a warning, not a crash —
    /// the previous checkpoint plus the journal still recover. A state
    /// `to_json` refuses (it fails validation, or holds a NaN/±∞) ends
    /// the process before any file is opened: the server cannot be
    /// trusted further, and the previous checkpoint is left in place
    /// for the restart.
    fn write_checkpoint(&mut self) {
        let Some(dir) = self.checkpoint_dir.clone() else {
            return;
        };
        let json = match self.server.snapshot().to_json() {
            Ok(j) => j,
            Err(e) => fail(&format!("snapshot failed: {e}")),
        };
        let tmp = dir.join("snapshot-latest.json.tmp");
        let dst = dir.join("snapshot-latest.json");
        let wrote = self.retry.run(
            || {
                fs::create_dir_all(&dir)?;
                fs::write(&tmp, &json)?;
                fs::rename(&tmp, &dst)
            },
            std::thread::sleep,
        );
        match wrote {
            Ok(()) => eprintln!(
                "run_server: checkpoint at {} accepted events -> {}",
                self.server.accepted(),
                dst.display()
            ),
            Err(e) => eprintln!("run_server: checkpoint failed after retries (continuing): {e}"),
        }
    }
}

fn build_obs(path: Option<&Path>) -> Obs {
    match path {
        None => Obs::off(),
        Some(p) => match ObsConfig::jsonl(p.to_path_buf()).build() {
            Ok(o) => o,
            Err(e) => fail(&format!("cannot open obs sink {}: {e}", p.display())),
        },
    }
}

/// Cut a torn final append off the journal: `append_journal` writes a
/// line and its `\n`, so bytes after the last newline are an append a
/// crash interrupted — never acknowledged, and not an event. The file
/// is truncated to the last newline *before* it is reopened for append;
/// otherwise the next event would be glued onto the fragment. Returns
/// the complete, newline-terminated prefix.
fn drop_torn_tail(path: &Path, mut data: Vec<u8>) -> Vec<u8> {
    let complete = data.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
    if complete == data.len() {
        return data;
    }
    let truncated = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(complete as u64).and_then(|()| f.sync_all()));
    if let Err(e) = truncated {
        fail(&format!("cannot truncate journal {}: {e}", path.display()));
    }
    eprintln!(
        "run_server: journal {} ends in a torn append ({} bytes after the last newline): dropped",
        path.display(),
        data.len() - complete
    );
    data.truncate(complete);
    data
}

fn replay_journal(driver: &mut Driver, path: &Path, cursor: u64) {
    let data = match fs::read(path) {
        Ok(d) => drop_torn_tail(path, d),
        Err(e) => fail(&format!("cannot read journal {}: {e}", path.display())),
    };
    // Only the torn tail is forgiven: a complete line that does not
    // decode means the journal cannot be trusted.
    let Ok(data) = String::from_utf8(data) else {
        fail("corrupt journal: a complete line is not UTF-8");
    };
    let mut replayed = 0u64;
    for line in data.lines().skip(cursor as usize) {
        if line.trim().is_empty() {
            continue;
        }
        match parse_event(line) {
            Ok(ev) => {
                driver.process_event(&ev, false);
                replayed += 1;
            }
            Err(e) => fail(&format!("corrupt journal line: {e}")),
        }
    }
    eprintln!("run_server: replayed {replayed} journaled events past checkpoint cursor {cursor}");
}

fn serve_reader(driver: &mut Driver, reader: impl Read) -> bool {
    let reader = BufReader::new(reader);
    for line in reader.lines() {
        match line {
            Ok(l) => {
                if l.trim() == "SHUTDOWN" {
                    driver.drain_all();
                    return true;
                }
                driver.enqueue(l);
                // Steady-state draining: keep latency low while the
                // backlog bounds any burst.
                driver.drain_one();
            }
            Err(e) => {
                eprintln!("run_server: read error (stopping input): {e}");
                break;
            }
        }
    }
    driver.drain_all();
    false
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.input.is_some() && args.listen.is_some() {
        fail("--input and --listen are mutually exclusive");
    }
    let obs = build_obs(args.obs.as_deref());

    let (server, journal_cursor) = if let Some(snap_path) = &args.restore {
        let json = match fs::read_to_string(snap_path) {
            Ok(j) => j,
            Err(e) => fail(&format!(
                "cannot read snapshot {}: {e}",
                snap_path.display()
            )),
        };
        let snap = match ServerSnapshot::from_json(&json) {
            Ok(s) => s,
            Err(e) => fail(&format!("snapshot rejected: {e}")),
        };
        let cursor = snap.accepted();
        match Server::restore(snap, obs) {
            Ok(s) => {
                eprintln!("run_server: restored at {cursor} accepted events");
                (s, cursor)
            }
            Err(e) => fail(&format!("restore failed: {e}")),
        }
    } else {
        let cfg = match args.scenario.as_str() {
            "office" => ServerConfig::office(args.seed),
            "sample" => ServerConfig::from(arm_core::Scenario {
                seed: args.seed,
                ..arm_core::Scenario::sample()
            }),
            other => fail(&format!("unknown scenario {other} (want office|sample)")),
        };
        let cfg = ServerConfig {
            checkpoint_every: args.checkpoint_every,
            backlog_capacity: args.backlog,
            ..cfg
        };
        match Server::new(cfg, obs) {
            Ok(s) => (s, 0),
            Err(e) => fail(&format!("scenario rejected: {e}")),
        }
    };

    let backlog_capacity = server.cfg.backlog_capacity;
    let mut driver = Driver {
        server,
        backlog: Backlog::new(backlog_capacity),
        journal: None,
        checkpoint_dir: args.checkpoint_dir.clone(),
        retry: RetryPolicy::default(),
    };

    // Crash recovery: replay the journal suffix past the checkpoint
    // cursor before accepting new input.
    if let Some(journal_path) = &args.journal {
        if args.restore.is_some() && journal_path.exists() {
            replay_journal(&mut driver, journal_path, journal_cursor);
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(journal_path);
        match file {
            Ok(f) => driver.journal = Some(f),
            Err(e) => fail(&format!(
                "cannot open journal {}: {e}",
                journal_path.display()
            )),
        }
    }

    match (&args.input, &args.listen) {
        (_, Some(addr)) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => fail(&format!("cannot listen on {addr}: {e}")),
            };
            eprintln!("run_server: listening on {addr} (line `SHUTDOWN` ends the run)");
            // Connections are served one at a time with bounded retry
            // on accept; the backlog bounds memory within each.
            loop {
                let accepted = driver.retry.run(|| listener.accept(), std::thread::sleep);
                match accepted {
                    Ok((stream, peer)) => {
                        eprintln!("run_server: connection from {peer}");
                        if serve_reader(&mut driver, stream) {
                            break;
                        }
                    }
                    Err(e) => fail(&format!("accept failed after retries: {e}")),
                }
            }
        }
        (Some(path), None) if path != "-" => {
            let file = match fs::File::open(path) {
                Ok(f) => f,
                Err(e) => fail(&format!("cannot open input {path}: {e}")),
            };
            let _ = serve_reader(&mut driver, file);
        }
        _ => {
            let _ = serve_reader(&mut driver, std::io::stdin().lock());
        }
    }

    // Final checkpoint (when configured) so a clean shutdown is also a
    // restore point, then the report.
    if driver.checkpoint_dir.is_some() && driver.server.accepted() > 0 {
        driver.write_checkpoint();
    }
    let rep = driver.server.report("run_server");
    let json = match rep.to_json() {
        Ok(j) => j,
        Err(e) => fail(&format!("report serialization failed: {e}")),
    };
    match &args.report {
        Some(p) => {
            if let Err(e) = fs::write(p, &json) {
                fail(&format!("cannot write report {}: {e}", p.display()));
            }
            eprintln!("run_server: report -> {}", p.display());
        }
        None => println!("{json}"),
    }
    eprintln!(
        "run_server: done at t={} ({} accepted, {} rejected, {} shed)",
        driver.server.last_time(),
        driver.server.accepted(),
        driver.server.rejected(),
        driver.server.shed()
    );
    ExitCode::SUCCESS
}
