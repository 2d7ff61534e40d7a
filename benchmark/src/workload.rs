//! The four workloads. Each prepares its inputs from a seed (untimed,
//! reported as set-up) and then runs *passes*: one pass drives one
//! prepared input through a fresh instance of the system, timing every
//! operation, checking every outcome against the generator's
//! expectation, and returning what it saw.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use arm_core::{ManagerConfig, ResourceManager, Strategy};
use arm_net::flowspec::QosRequest;
use arm_net::ids::ConnId;
use arm_obs::{MetricsSummary, Obs, PhaseSummary};
use arm_server::ingest::parse_event;
use arm_server::{Server, ServerConfig, ServerSnapshot};
use arm_sim::{SimDuration, SimTime};

use crate::gen::{self, AdaptInput, Expect, Line, ManagerOp};
use crate::mirror::{self, Mirror, Verdict};
use crate::probe::Probe;

/// Ring capacity of the recording observer in traced passes.
const OBS_RING: usize = 1024;

/// The observer a pass runs under.
pub fn observer(on: bool) -> Obs {
    if on {
        Obs::recording(OBS_RING)
    } else {
        Obs::off()
    }
}

/// Decision counts of one pass — what `expected.json` pins at the
/// default seed.
pub type Counts = BTreeMap<&'static str, u64>;

fn counts_of(accepted: u64, rejected: u64, m: &MetricsSummary, checkpoints: u64) -> Counts {
    BTreeMap::from([
        ("accepted", accepted),
        ("rejected", rejected),
        ("requests", m.requests),
        ("blocked", m.blocked),
        ("dropped", m.dropped),
        ("handoff_attempts", m.handoff_attempts),
        ("claims_consumed", m.claims_consumed),
        ("checkpoints", checkpoints),
    ])
}

/// Observer phase timers reduced to `(spans, busy µs)` per phase name.
pub type Phases = BTreeMap<String, (u64, f64)>;

/// Fold phase summaries into `into`.
pub fn add_phases(into: &mut Phases, summaries: &[PhaseSummary]) {
    for s in summaries {
        let e = into.entry(s.phase.clone()).or_default();
        e.0 += s.spans;
        e.1 += s.wall_us.mean * s.spans as f64;
    }
}

/// What one pass measured and observed.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the timed loop, nanoseconds.
    pub wall_ns: u64,
    /// Completed operations: accepted events, or recoveries.
    pub ops: u64,
    /// Service time of every operation offered, nanoseconds.
    pub lat_ns: Vec<u32>,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations whose outcome differed from the expectation.
    pub failed: u64,
    /// The first few mismatches, for the log.
    pub problems: Vec<String>,
    /// Decision counts at the end of the pass.
    pub counts: Counts,
    /// Bytes that must repeat whenever the same input is run again.
    pub fingerprint: String,
    /// The observer's phase timers (empty under `Obs::off`).
    pub phases: Phases,
    /// `adaptation_rounds` at the end of the pass.
    pub rounds: u64,
    /// Journal bytes appended.
    pub journal_bytes: u64,
    /// Checkpoint JSON bytes written.
    pub checkpoint_bytes: u64,
}

impl Pass {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn lat(since: Instant) -> u32 {
    u32::try_from(since.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

fn snap_err(e: arm_core::SnapshotError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// A workload: how to make one input and how to run one pass over it.
pub trait Workload {
    /// One prepared input.
    type Input;
    /// The name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// How many times set-up is repeated, spaced over the run (the
    /// fastest is reported).
    const SETUPS: usize;
    /// The tail quantile reported as `op_tail_us`: the highest of
    /// p90/p99/p99.9 that keeps ten samples beyond it in a 10 s run.
    const TAIL: f64;
    /// The outermost layer spans of the timed loop.
    const OUTER: &'static [&'static str];
    /// Which layer the workload is built to make dominant, as
    /// `(per-layer metric, at least?, percent)`; the traced run prints
    /// whether each holds.
    const DOMINANCE: &'static [(&'static str, bool, f64)];

    /// Make the input of `seed`. Timed by the caller as set-up, so it
    /// also constructs (and drops) one instance of the system: work a
    /// later change moves into construction shows here.
    fn prepare(&mut self, seed: u64) -> io::Result<Self::Input>;

    /// Run one pass: the whole input through a fresh instance of the
    /// system. Every pass does identical work, operation for operation.
    /// `verify` asks for the checks that need not be repeated when the
    /// input runs again.
    fn pass<P: Probe>(
        &mut self,
        input: &Self::Input,
        verify: bool,
        obs_on: bool,
        probe: &mut P,
    ) -> io::Result<Pass>;

    /// Checks after the last pass, against the artifacts it left.
    /// Returns extra per-layer metrics.
    fn finish(&mut self, _first: &Self::Input, _sink: &mut Pass) -> io::Result<Vec<(String, f64)>> {
        Ok(Vec::new())
    }
}

fn check_network(pass: &mut Pass, mgr: &ResourceManager) {
    let ledgers = mgr.net.check_invariants();
    pass.check(ledgers.is_ok(), || {
        format!("ledger conservation: {}", ledgers.clone().unwrap_err())
    });
    let out_of_range = mgr
        .net
        .live_connections()
        .find(|c| c.b_current < c.qos.b_min - 1e-9 || c.b_current > c.qos.b_max + 1e-9);
    pass.check(out_of_range.is_none(), || {
        let c = out_of_range.expect("checked");
        format!(
            "{:?} holds {} kbps outside [{}, {}]",
            c.id, c.b_current, c.qos.b_min, c.qos.b_max
        )
    });
}

/// Drive `lines` through a mirror; shared by the two server workloads.
fn stream_pass<P: Probe>(
    cfg: &ServerConfig,
    lines: &[Line],
    dir: &Path,
    checkpoints: bool,
    obs_on: bool,
    probe: &mut P,
) -> io::Result<(Pass, Mirror)> {
    let mut m = Mirror::new(cfg.clone(), observer(obs_on), dir, checkpoints)?;
    let mut pass = Pass {
        lat_ns: Vec::with_capacity(lines.len()),
        ..Default::default()
    };
    probe.begin_pass(lines.len() * 10 + 64);
    let loop_start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        probe.set_event(i as u64);
        let t0 = Instant::now();
        let verdict = m.offer(&line.text, probe)?;
        pass.lat_ns.push(lat(t0));
        let ok = match (verdict, line.expect) {
            (Verdict::Accepted, Expect::Accept) => true,
            (Verdict::Rejected(got), Expect::Reject(want)) => got == want,
            _ => false,
        };
        pass.check(ok, || {
            format!(
                "line {i}: expected {:?}, got {verdict:?}: {}",
                line.expect, line.text
            )
        });
    }
    if checkpoints {
        m.finish(probe)?;
    }
    pass.wall_ns = ns(loop_start);
    pass.ops = m.server.accepted();
    let report = m.server.report("run_server");
    let metrics = report.metrics.clone().unwrap_or_default();
    pass.counts = counts_of(
        m.server.accepted(),
        m.server.rejected(),
        &metrics,
        m.checkpoints,
    );
    pass.fingerprint = m.report_json()?;
    add_phases(&mut pass.phases, &m.server.mgr.obs.phase_summaries());
    pass.rounds = m.server.mgr.adaptation_rounds;
    pass.journal_bytes = m.journal_bytes;
    pass.checkpoint_bytes = m.checkpoint_bytes;
    Ok((pass, m))
}

/// `office_week`: the shipped office server, persistence and all.
pub struct OfficeWeek {
    /// Scratch directory for journals and checkpoints.
    pub work: PathBuf,
    /// The `run_server` binary built from this checkout.
    pub run_server: PathBuf,
}

impl Workload for OfficeWeek {
    type Input = (ServerConfig, Vec<Line>);
    const NAME: &'static str = "office_week";
    const SETUPS: usize = 15;
    // One event in 256 pays a checkpoint: p99.9 is the checkpoint stall.
    const TAIL: f64 = 0.999;
    const OUTER: &'static [&'static str] = &mirror::OUTER_SPANS;
    const DOMINANCE: &'static [(&'static str, bool, f64)] = &[
        ("server.persistence.share", true, 50.0),
        ("qos.maxmin.spans", false, 0.0),
    ];

    fn prepare(&mut self, seed: u64) -> io::Result<Self::Input> {
        let (cfg, lines) = gen::office_week(seed, gen::HOSTILE_SHARE);
        drop(Server::new(cfg.clone(), Obs::off()));
        Ok((cfg, lines))
    }

    fn pass<P: Probe>(
        &mut self,
        (cfg, lines): &Self::Input,
        verify: bool,
        obs_on: bool,
        probe: &mut P,
    ) -> io::Result<Pass> {
        let dir = self.work.join("mirror");
        let (mut pass, m) = stream_pass(cfg, lines, &dir, true, obs_on, probe)?;
        if verify {
            check_network(&mut pass, &m.server.mgr);
        }
        Ok(pass)
    }

    /// The same lines through the real binary on a stdin pipe: journal,
    /// final checkpoint and report must equal the mirror's byte for
    /// byte.
    fn finish(
        &mut self,
        (cfg, lines): &Self::Input,
        sink: &mut Pass,
    ) -> io::Result<Vec<(String, f64)>> {
        let mirror_dir = self.work.join("mirror");
        let dir = self.work.join("pipe");
        fs::create_dir_all(&dir)?;
        let mut input = String::new();
        for l in lines {
            input.push_str(&l.text);
            input.push('\n');
        }
        let started = Instant::now();
        let mut child = Command::new(&self.run_server)
            .args(["--scenario", "office", "--seed"])
            .arg(cfg.scenario.seed.to_string())
            .arg("--journal")
            .arg(dir.join("journal.jsonl"))
            .arg("--checkpoint-dir")
            .arg(&dir)
            .arg("--report")
            .arg(dir.join("report.json"))
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("cannot start {}: {e}", self.run_server.display()),
                )
            })?;
        // The child prints nothing we read, so one thread can feed it.
        let fed = child
            .stdin
            .take()
            .expect("piped")
            .write_all(input.as_bytes());
        let status = child.wait()?;
        let elapsed = started.elapsed().as_secs_f64();
        fed?;
        sink.check(status.success(), || {
            format!("run_server exited with {status}")
        });
        for (what, ours, theirs) in [
            (
                "journal",
                mirror_dir.join("journal.jsonl"),
                dir.join("journal.jsonl"),
            ),
            (
                "final checkpoint",
                mirror_dir.join("snapshot-latest.json"),
                dir.join("snapshot-latest.json"),
            ),
        ] {
            let same = fs::read(&ours)? == fs::read(&theirs)?;
            sink.check(same, || {
                format!("mirror and run_server differ in the {what}")
            });
        }
        let same = fs::read_to_string(dir.join("report.json"))? == sink.fingerprint;
        sink.check(same, || {
            "mirror and run_server differ in the report".to_string()
        });
        let accepted = sink.counts.get("accepted").copied().unwrap_or(0);
        Ok(vec![(
            "server.pipe.events_per_s".to_string(),
            accepted as f64 / elapsed,
        )])
    }
}

/// `wing_rush`: a crowded wing; the manager dominates.
pub struct WingRush {
    /// Scratch directory for journals.
    pub work: PathBuf,
}

impl Workload for WingRush {
    type Input = (ServerConfig, Vec<Line>);
    const NAME: &'static str = "wing_rush";
    const SETUPS: usize = 15;
    const TAIL: f64 = 0.99;
    const OUTER: &'static [&'static str] = &mirror::OUTER_SPANS;
    const DOMINANCE: &'static [(&'static str, bool, f64)] = &[
        ("core.claim_refresh.share", true, 50.0),
        ("qos.maxmin.spans", false, 0.0),
    ];

    fn prepare(&mut self, seed: u64) -> io::Result<Self::Input> {
        let (cfg, lines) = gen::wing_rush(seed);
        drop(Server::new(cfg.clone(), Obs::off()));
        Ok((cfg, lines))
    }

    fn pass<P: Probe>(
        &mut self,
        (cfg, lines): &Self::Input,
        verify: bool,
        obs_on: bool,
        probe: &mut P,
    ) -> io::Result<Pass> {
        let dir = self.work.join("wing");
        let (mut pass, m) = stream_pass(cfg, lines, &dir, false, obs_on, probe)?;
        if verify {
            check_network(&mut pass, &m.server.mgr);
            // The workload exists to keep these three paths live.
            for key in ["blocked", "dropped", "claims_consumed"] {
                let n = pass.counts[key];
                pass.check(n > 0, || {
                    format!("wing_rush saw no {key}: the path is not exercised")
                });
            }
        }
        // Restore cost at end-of-run state (outside the timed loop):
        // sampled where it is checked or recorded, skipped in the plain
        // passes, which would only lose measuring time to it.
        if !(verify || obs_on) {
            return Ok(pass);
        }
        let json = m.server.snapshot().to_json().map_err(snap_err)?;
        let tok = probe.start("server.restore.decode");
        let snap = ServerSnapshot::from_json(&json).map_err(snap_err)?;
        probe.end(tok);
        let tok = probe.start("server.restore.rebuild");
        let restored = Server::restore(snap, Obs::off()).map_err(snap_err)?;
        probe.end(tok);
        if verify {
            let again = restored.snapshot().to_json().map_err(snap_err)?;
            pass.check(again == json, || {
                "restored wing snapshot differs".to_string()
            });
        }
        Ok(pass)
    }
}

/// `adapt_rush`: the manager driven directly; maxmin dominates.
pub struct AdaptRush;

/// The outermost spans of the `adapt_rush` loop.
pub const ADAPT_OUTER: [&str; 5] = [
    "core.slot_tick",
    "core.appear",
    "core.move",
    "core.depart",
    "core.channel_change",
];

fn adapt_manager(input: &AdaptInput, obs: Obs) -> ResourceManager {
    let net = input.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(input.env.clone(), net, cfg);
    mgr.set_obs(obs);
    mgr
}

impl Workload for AdaptRush {
    type Input = AdaptInput;
    const NAME: &'static str = "adapt_rush";
    const SETUPS: usize = 15;
    const TAIL: f64 = 0.99;
    const OUTER: &'static [&'static str] = &ADAPT_OUTER;
    const DOMINANCE: &'static [(&'static str, bool, f64)] = &[
        ("qos.maxmin.share", true, 50.0),
        ("core.claim_refresh.share", false, 5.0),
    ];

    fn prepare(&mut self, seed: u64) -> io::Result<Self::Input> {
        let input = gen::adapt_rush(seed);
        drop(adapt_manager(&input, Obs::off()));
        Ok(input)
    }

    fn pass<P: Probe>(
        &mut self,
        input: &Self::Input,
        verify: bool,
        obs_on: bool,
        probe: &mut P,
    ) -> io::Result<Pass> {
        let mut mgr = adapt_manager(input, observer(obs_on));
        let adaptive = QosRequest::bandwidth(16.0, 1600.0)
            .with_delay(30.0)
            .with_jitter(30.0)
            .with_loss(1.0);
        let mut conn: Vec<Option<ConnId>> = vec![None; input.portables.len()];
        let slot = SimDuration::from_mins(1);
        let mut next_slot = SimTime::ZERO + slot;
        let mut pass = Pass {
            lat_ns: Vec::with_capacity(input.ops.len()),
            ..Default::default()
        };
        probe.begin_pass(input.ops.len() * 3 + 64);
        let loop_start = Instant::now();
        for (i, op) in input.ops.iter().enumerate() {
            probe.set_event(i as u64);
            let t0 = Instant::now();
            let now = match *op {
                ManagerOp::Appear { t, .. }
                | ManagerOp::Move { t, .. }
                | ManagerOp::Depart { t, .. }
                | ManagerOp::Channel { t, .. } => t,
            };
            // Periodic maintenance first, exactly like the server loop.
            while now >= next_slot {
                let tok = probe.start("core.slot_tick");
                mgr.slot_tick(next_slot);
                probe.end(tok);
                next_slot += slot;
            }
            let ok = match *op {
                ManagerOp::Appear { t, who, cell } => {
                    let tok = probe.start("core.appear");
                    let p = input.portables[who];
                    mgr.portable_appears(p, cell, t);
                    conn[who] = mgr.request_connection(p, adaptive, t).ok();
                    probe.end(tok);
                    true
                }
                ManagerOp::Move { t, who, to } => {
                    let tok = probe.start("core.move");
                    let dropped = mgr.portable_moved(input.portables[who], to, t);
                    probe.end(tok);
                    if conn[who].is_some_and(|c| dropped.contains(&c)) {
                        conn[who] = None;
                    }
                    true
                }
                ManagerOp::Depart { t, who } => {
                    let tok = probe.start("core.depart");
                    if let Some(c) = conn[who].take() {
                        mgr.terminate(c, t);
                    }
                    probe.end(tok);
                    true
                }
                ManagerOp::Channel { t, cell, fraction } => {
                    let tok = probe.start("core.channel_change");
                    let changed = mgr.channel_change(cell, fraction, t);
                    probe.end(tok);
                    match changed {
                        Ok(dropped) => {
                            for c in conn.iter_mut() {
                                if c.is_some_and(|id| dropped.contains(&id)) {
                                    *c = None;
                                }
                            }
                            true
                        }
                        Err(_) => false,
                    }
                }
            };
            pass.lat_ns.push(lat(t0));
            pass.check(ok, || format!("op {i} failed: {op:?}"));
        }
        pass.wall_ns = ns(loop_start);
        pass.ops = input.ops.len() as u64;
        if verify {
            check_network(&mut pass, &mgr);
        }
        let metrics = mgr.metrics.summary();
        pass.counts = counts_of(pass.ops, 0, &metrics, 0);
        pass.rounds = mgr.adaptation_rounds;
        pass.fingerprint = format!("{metrics:?} rounds={}", pass.rounds);
        add_phases(&mut pass.phases, &mgr.take_obs().phase_summaries());
        Ok(pass)
    }
}

/// One crash to recover from.
pub struct Crash {
    /// The last checkpoint before the crash (cursor 256·k).
    pub checkpoint_json: String,
    /// The 128 journal lines after it.
    pub suffix: Vec<String>,
    /// The victim's state at the crash (cursor 256·k + 128).
    pub victim_json: String,
}

/// `crash_recover`: the bytes `office_week` writes, read back.
pub struct CrashRecover;

/// Journal events between the checkpoint and the crash.
pub const CRASH_SUFFIX: u64 = 128;

impl Workload for CrashRecover {
    type Input = (Vec<Crash>, Counts);
    const NAME: &'static str = "crash_recover";
    const SETUPS: usize = 7;
    const TAIL: f64 = 0.9;
    const OUTER: &'static [&'static str] = &[
        "server.restore.decode",
        "server.restore.rebuild",
        "server.replay",
    ];
    const DOMINANCE: &'static [(&'static str, bool, f64)] = &[];

    /// Run the week once, keeping the checkpoint at every cursor 256·k
    /// and the victim's snapshot 128 events later. No hostile lines:
    /// rejections are counted but not journaled, so a victim that
    /// rejected a line after its last checkpoint is not recoverable
    /// byte for byte — by design of the server, not a fault to count.
    fn prepare(&mut self, seed: u64) -> io::Result<Self::Input> {
        let (cfg, lines) = gen::office_week(seed, 0.0);
        let every = cfg.checkpoint_every;
        let mut server = Server::new(cfg, Obs::off())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut crashes = Vec::new();
        let mut open: Option<(String, Vec<String>)> = None;
        for line in &lines {
            let applied = parse_event(&line.text).and_then(|ev| server.apply_event(&ev));
            if let Err(e) = applied {
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            // A generated line is already in the journal's encoding.
            if let Some((_, suffix)) = open.as_mut() {
                suffix.push(line.text.clone());
            }
            if server.checkpoint_due() {
                open = Some((server.snapshot().to_json().map_err(snap_err)?, Vec::new()));
            } else if server.accepted() % every == CRASH_SUFFIX {
                if let Some((checkpoint_json, suffix)) = open.take() {
                    crashes.push(Crash {
                        checkpoint_json,
                        suffix,
                        victim_json: server.snapshot().to_json().map_err(snap_err)?,
                    });
                }
            }
        }
        let metrics = server.report("bench").metrics.unwrap_or_default();
        let counts = counts_of(
            server.accepted(),
            server.rejected(),
            &metrics,
            crashes.len() as u64,
        );
        Ok((crashes, counts))
    }

    fn pass<P: Probe>(
        &mut self,
        (crashes, counts): &Self::Input,
        verify: bool,
        obs_on: bool,
        probe: &mut P,
    ) -> io::Result<Pass> {
        let mut pass = Pass {
            counts: counts.clone(),
            ..Default::default()
        };
        probe.begin_pass(crashes.len() * (CRASH_SUFFIX as usize + 8));
        for (i, crash) in crashes.iter().enumerate() {
            probe.set_event(i as u64);
            let t0 = Instant::now();
            let root = probe.start("recovery");
            let tok = probe.start("server.restore.decode");
            let snap = ServerSnapshot::from_json(&crash.checkpoint_json).map_err(snap_err)?;
            probe.end(tok);
            let tok = probe.start("server.restore.rebuild");
            let mut server = Server::restore(snap, observer(obs_on)).map_err(snap_err)?;
            probe.end(tok);
            let mut replayed = true;
            for line in &crash.suffix {
                let tok = probe.start("server.replay");
                replayed &= parse_event(line).is_ok_and(|ev| server.apply_event(&ev).is_ok());
                probe.end(tok);
            }
            probe.end(root);
            pass.wall_ns += ns(t0);
            pass.lat_ns.push(lat(t0));
            pass.ops += 1;
            if verify {
                let recovered = server.snapshot().to_json().map_err(snap_err)?;
                pass.check(replayed && recovered == crash.victim_json, || {
                    format!("recovery {i} is not byte-identical to the victim")
                });
            } else {
                pass.check(replayed, || {
                    format!("recovery {i}: a journaled event was rejected")
                });
            }
            add_phases(&mut pass.phases, &server.mgr.obs.phase_summaries());
        }
        pass.fingerprint = format!("{counts:?}");
        Ok(pass)
    }
}
