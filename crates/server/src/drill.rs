//! Crash-recovery drills: prove restore + replay ≡ never crashed.
//!
//! A drill runs the same event sequence twice:
//!
//! * **Run A** — one server, uninterrupted, start to finish;
//! * **Run B** — a server killed after `kill_after` events (dropped on
//!   the floor, simulating a crash), a *new* server restored from the
//!   victim's serialized snapshot, and the remaining events replayed
//!   into it.
//!
//! Both runs then emit their [`RunReport`] JSON, and the drill demands
//! **byte equality** — not "close", not "same metrics to 6 digits":
//! identical bytes, including with an active fault schedule in the
//! event stream and a kill point inside a link outage. That is the
//! strongest checkable statement of the snapshot's completeness; any
//! forgotten field (an RNG, a dirty set, a counter) shows up as a byte
//! diff. `tests/drill.rs` runs it in the suite, `expt_soak` in CI.

use arm_core::scenario::Scenario;
use arm_core::{ControlError, SnapshotError};
use arm_net::ids::{LinkId, PortableId, ZoneId};
use arm_obs::Obs;
use arm_sim::{FaultEvent, FaultKind, FaultSchedule, SimTime};
use std::collections::{BTreeMap, BTreeSet};

use crate::event::ServerEvent;
use crate::ingest::IngestError;
use crate::server::{Server, ServerConfig, ServerSnapshot};

/// Why a drill could not run. (Byte *mismatches* are asserted by the
/// callers, not reported here — a mismatch is a bug, not an input
/// problem.)
#[derive(Debug)]
pub enum DrillError {
    /// The scenario itself is invalid.
    Control(ControlError),
    /// A snapshot failed to serialize, parse, or validate.
    Snapshot(SnapshotError),
    /// A drill event was rejected — drill streams are generated from
    /// validated scenarios, so this indicates a generator bug.
    Ingest(IngestError),
}

impl std::fmt::Display for DrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrillError::Control(e) => write!(f, "drill scenario rejected: {e}"),
            DrillError::Snapshot(e) => write!(f, "drill snapshot failed: {e}"),
            DrillError::Ingest(e) => write!(f, "drill event rejected: {e}"),
        }
    }
}

impl std::error::Error for DrillError {}

impl From<ControlError> for DrillError {
    fn from(e: ControlError) -> Self {
        DrillError::Control(e)
    }
}

impl From<SnapshotError> for DrillError {
    fn from(e: SnapshotError) -> Self {
        DrillError::Snapshot(e)
    }
}

impl From<IngestError> for DrillError {
    fn from(e: IngestError) -> Self {
        DrillError::Ingest(e)
    }
}

/// Convert a scenario's mobility trace, merged with a fault schedule,
/// into the equivalent server event stream — the same interleaving the
/// chaos harness uses (faults due at or before a trace event land
/// first; each portable departs at its final trace event; trailing
/// faults fire after the trace ends).
///
/// Fault indices map onto concrete entities exactly as in
/// `arm_core::chaos` (modulo link/zone counts, modulo the sorted
/// portable set). Control-plane degradation windows have no server
/// entity to point at; they become [`ServerEvent::QueuePressure`]
/// toggles, which exercises degraded-mode shedding on a deterministic
/// schedule — precisely what a replayed drill must reproduce.
pub fn events_from_scenario(
    sc: &Scenario,
    faults: &FaultSchedule,
) -> Result<Vec<ServerEvent>, DrillError> {
    let (mgr, trace) = arm_core::scenario::build_manager(sc)?;
    let links = mgr.net.topology().link_count() as u32;
    let zones = mgr.profiles().zone_count().max(1) as u32;
    let portables: Vec<PortableId> = {
        let set: BTreeSet<PortableId> = trace.events().iter().map(|e| e.portable).collect();
        set.into_iter().collect()
    };
    let mut last_event: BTreeMap<PortableId, SimTime> = BTreeMap::new();
    for ev in trace.events() {
        last_event.insert(ev.portable, ev.time);
    }

    let fault_event = |f: &FaultEvent| -> Option<ServerEvent> {
        match f.kind {
            FaultKind::LinkDown { link } => (links > 0).then(|| ServerEvent::LinkDown {
                t: f.time,
                link: LinkId(link % links),
            }),
            FaultKind::LinkUp { link } => (links > 0).then(|| ServerEvent::LinkUp {
                t: f.time,
                link: LinkId(link % links),
            }),
            FaultKind::ProfileServerDown { zone } => Some(ServerEvent::ProfileServerDown {
                t: f.time,
                zone: ZoneId(zone % zones),
            }),
            FaultKind::ProfileServerUp { zone } => Some(ServerEvent::ProfileServerUp {
                t: f.time,
                zone: ZoneId(zone % zones),
            }),
            FaultKind::HandoffSignallingFailure { portable } => {
                if portables.is_empty() {
                    None
                } else {
                    Some(ServerEvent::FailNextHandoff {
                        t: f.time,
                        portable: portables[portable as usize % portables.len()],
                    })
                }
            }
            FaultKind::ControlDegradeStart { .. } => Some(ServerEvent::QueuePressure {
                t: f.time,
                on: true,
            }),
            FaultKind::ControlDegradeEnd => Some(ServerEvent::QueuePressure {
                t: f.time,
                on: false,
            }),
        }
    };

    let mut out = Vec::new();
    let mut pending = faults.events().iter().peekable();
    for ev in trace.events() {
        while let Some(f) = pending.peek() {
            if f.time > ev.time {
                break;
            }
            out.extend(fault_event(f));
            pending.next();
        }
        match ev.from {
            None => out.push(ServerEvent::Appear {
                t: ev.time,
                portable: ev.portable,
                cell: ev.to,
            }),
            Some(_) => out.push(ServerEvent::Move {
                t: ev.time,
                portable: ev.portable,
                to: ev.to,
            }),
        }
        if last_event.get(&ev.portable) == Some(&ev.time) {
            out.push(ServerEvent::Depart {
                t: ev.time,
                portable: ev.portable,
            });
        }
    }
    for f in pending {
        out.extend(fault_event(f));
    }
    Ok(out)
}

/// A drill's evidence: the two reports to compare, plus the checkpoint
/// that carried run B across the crash.
#[derive(Clone, Debug)]
#[must_use]
pub struct DrillOutcome {
    /// Run A's report JSON (never crashed).
    pub uninterrupted: String,
    /// Run B's report JSON (killed, restored, replayed).
    pub recovered: String,
    /// The serialized snapshot run B restored from.
    pub snapshot_json: String,
    /// Where the kill landed (accepted events before the crash).
    pub killed_after: usize,
    /// Length of the full event stream.
    pub total_events: usize,
}

/// Drive a fresh server through `events` to completion and return its
/// report JSON (observation off — drills compare pure state).
pub fn run_to_completion(cfg: &ServerConfig, events: &[ServerEvent]) -> Result<String, DrillError> {
    let mut server = Server::new(cfg.clone(), Obs::off())?;
    for ev in events {
        server.apply_event(ev)?;
    }
    server
        .report("drill")
        .to_json()
        .map_err(|e| DrillError::Snapshot(SnapshotError::Parse(e.to_string())))
}

/// The full crash-recovery drill: run A uninterrupted; run B killed
/// after `kill_after` events, restored from its own serialized
/// snapshot, and replayed over the suffix. Returns both report JSONs —
/// callers assert byte equality.
pub fn run_with_kill_restore(
    cfg: &ServerConfig,
    events: &[ServerEvent],
    kill_after: usize,
) -> Result<DrillOutcome, DrillError> {
    let kill_after = kill_after.min(events.len());
    let uninterrupted = run_to_completion(cfg, events)?;

    // Run B, phase 1: live until the crash.
    let mut victim = Server::new(cfg.clone(), Obs::off())?;
    for ev in &events[..kill_after] {
        victim.apply_event(ev)?;
    }
    let snapshot_json = victim.snapshot().to_json()?;
    drop(victim); // the crash: everything not in the snapshot is gone

    // Run B, phase 2: restore from bytes, replay the journaled suffix.
    let snap = ServerSnapshot::from_json(&snapshot_json)?;
    let mut restored = Server::restore(snap, Obs::off())?;
    for ev in &events[kill_after..] {
        restored.apply_event(ev)?;
    }
    let recovered = restored
        .report("drill")
        .to_json()
        .map_err(|e| DrillError::Snapshot(SnapshotError::Parse(e.to_string())))?;

    Ok(DrillOutcome {
        uninterrupted,
        recovered,
        snapshot_json,
        killed_after: kill_after,
        total_events: events.len(),
    })
}
