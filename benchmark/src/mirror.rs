//! An in-process mirror of `run_server`'s `Driver` loop.
//!
//! `run_server` keeps its event loop private to the binary, so the
//! benchmark repeats it here call for call — bounded backlog, parse,
//! apply, journal append + flush, checkpoint (snapshot → JSON → tmp +
//! rename) — with a probe at every layer boundary. That the mirror is
//! faithful is itself checked: `office_week` feeds the same lines to
//! the real binary over a pipe and demands byte-identical journal,
//! checkpoint and report.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use arm_obs::Obs;
use arm_server::ingest::parse_event;
use arm_server::{Backlog, LineOutcome, PopOutcome, Server, ServerConfig, ServerEvent};

use crate::probe::Probe;

/// What the mirror did with one offered line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Applied and journaled.
    Accepted,
    /// Rejected with this `IngestError::reason` slug.
    Rejected(&'static str),
}

/// The outermost layer spans the mirror records (they never nest in
/// one another); the ledger's residual is the loop time these do not
/// cover.
pub const OUTER_SPANS: [&str; 6] = [
    "server.backlog",
    "server.parse",
    "server.apply",
    "server.reject",
    "server.journal",
    "server.checkpoint",
];

/// The span that groups `Server::apply_event` by `ServerEvent::label`.
fn kind_span(ev: &ServerEvent) -> &'static str {
    match ev.label() {
        "Appear" => "core.appear",
        "Move" => "core.move",
        "Depart" => "core.depart",
        "ChannelChange" => "core.channel_change",
        _ => "core.other",
    }
}

/// One server plus the side-effect state `run_server` threads through
/// its loop.
pub struct Mirror {
    /// The server under test.
    pub server: Server,
    backlog: Backlog,
    journal: fs::File,
    checkpoint_dir: Option<PathBuf>,
    /// Bytes appended to the journal.
    pub journal_bytes: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Bytes of checkpoint JSON written.
    pub checkpoint_bytes: u64,
}

impl Mirror {
    /// A fresh server journaling into `dir/journal.jsonl` (truncated)
    /// and, when `checkpoints` is set, checkpointing into `dir`.
    pub fn new(cfg: ServerConfig, obs: Obs, dir: &Path, checkpoints: bool) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let journal = fs::File::create(dir.join("journal.jsonl"))?;
        let backlog = Backlog::new(cfg.backlog_capacity);
        let server = Server::new(cfg, obs)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Ok(Mirror {
            server,
            backlog,
            journal,
            checkpoint_dir: checkpoints.then(|| dir.to_path_buf()),
            journal_bytes: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
        })
    }

    /// `Driver::enqueue` + `drain_one` + `process_line` for one line.
    /// With one client in a closed loop the backlog never fills, so the
    /// pressure branches of the real loop are not reachable here.
    pub fn offer<P: Probe>(&mut self, text: &str, probe: &mut P) -> io::Result<Verdict> {
        let root = probe.start("event");
        let tok = probe.start("server.backlog");
        let _ = self.backlog.push(text.to_string());
        let line = match self.backlog.pop() {
            PopOutcome::Line(l) | PopOutcome::LinePressureOff(l) => l,
            PopOutcome::Empty => String::new(),
        };
        probe.end(tok);

        let tok = probe.start("server.parse");
        let parsed = parse_event(&line);
        probe.end(tok);
        let ev = match parsed {
            Ok(ev) => ev,
            Err(_) => {
                // As run_server does: once more through the server, so
                // that the rejection is counted and surfaced.
                let tok = probe.start("server.reject");
                let outcome = self.server.ingest_line(&line);
                probe.end(tok);
                probe.end_as(root, "reject");
                return Ok(match outcome {
                    LineOutcome::Rejected(e) => Verdict::Rejected(e.reason()),
                    LineOutcome::Accepted => Verdict::Accepted,
                });
            }
        };

        let tok = probe.start("server.apply");
        let kind = probe.start(kind_span(&ev));
        let applied = self.server.apply_event(&ev);
        probe.end(kind);
        probe.end(tok);
        if let Err(e) = applied {
            probe.end_as(root, "reject");
            return Ok(Verdict::Rejected(e.reason()));
        }

        let tok = probe.start("server.journal");
        let encoded = ev
            .to_jsonl()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(self.journal, "{encoded}")?;
        self.journal.flush()?;
        probe.end(tok);
        self.journal_bytes += encoded.len() as u64 + 1;

        if self.server.checkpoint_due() {
            self.checkpoint(probe)?;
        }
        probe.end(root);
        Ok(Verdict::Accepted)
    }

    /// `Driver::write_checkpoint`: capture, encode (which validates the
    /// round trip), write tmp + rename.
    pub fn checkpoint<P: Probe>(&mut self, probe: &mut P) -> io::Result<()> {
        let Some(dir) = self.checkpoint_dir.clone() else {
            return Ok(());
        };
        let outer = probe.start("server.checkpoint");
        let tok = probe.start("server.snapshot.capture");
        let snap = self.server.snapshot();
        probe.end(tok);
        let tok = probe.start("server.snapshot.encode");
        let json = snap
            .to_json()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        probe.end(tok);
        let tok = probe.start("server.checkpoint.write");
        let tmp = dir.join("snapshot-latest.json.tmp");
        fs::create_dir_all(&dir)?;
        fs::write(&tmp, &json)?;
        fs::rename(&tmp, dir.join("snapshot-latest.json"))?;
        probe.end(tok);
        probe.end(outer);
        self.checkpoints += 1;
        self.checkpoint_bytes += json.len() as u64;
        Ok(())
    }

    /// The end of `run_server`'s `main`: a clean shutdown is also a
    /// restore point.
    pub fn finish<P: Probe>(&mut self, probe: &mut P) -> io::Result<()> {
        if self.server.accepted() > 0 {
            self.checkpoint(probe)?;
        }
        Ok(())
    }

    /// The report `run_server` would write for this state.
    pub fn report_json(&self) -> io::Result<String> {
        self.server
            .report("run_server")
            .to_json()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
