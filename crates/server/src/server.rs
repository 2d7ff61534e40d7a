//! The long-running server: a [`ResourceManager`] driven by a
//! [`ServerEvent`] stream, with schema-versioned snapshot/restore.
//!
//! # Determinism contract
//!
//! The server is a deterministic state machine: its state is a pure
//! function of `(ServerConfig, accepted event sequence)`. Everything
//! that could break that — wall clocks, workload RNG, transport
//! backpressure — is folded into the event stream (virtual timestamps,
//! a snapshotted [`SimRng`], journaled `QueuePressure` events). That is
//! what makes crash recovery *provable* rather than best-effort:
//! restore the last [`ServerSnapshot`] + replay the journaled suffix ⇒
//! bit-identical state to the uninterrupted run (`crate::drill`
//! demonstrates it, `tests/drill.rs` and the CI soak enforce it).
//!
//! # Degraded mode
//!
//! The server sheds load instead of failing when its environment is
//! unhealthy. While the input queue is pressured (see
//! [`crate::backlog`]) or any zone's profile server is down, new
//! admissions are squeezed to their guaranteed floor `b_min` — the
//! paper's §5.2 squeezing policy applied preemptively, so a degraded
//! server admits more calls at lower quality rather than blocking or
//! buffering unboundedly.

use std::collections::BTreeSet;

use arm_core::scenario::{build_manager, Scenario, WorkloadSpec};
use arm_core::snapshot::decode_versioned;
use arm_core::{ManagerSnapshot, ResourceManager, SnapshotError, MAX_EVENT_GAP, SLOT};
use arm_mobility::WorkloadMix;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{ConnId, PortableId};
use arm_obs::{Obs, ObsEvent, RunReport};
use arm_sim::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::event::ServerEvent;
use crate::ingest::{parse_event, IngestError};

/// Version stamp embedded in every [`ServerSnapshot`]. Bump on any
/// change to its field set (the embedded [`ManagerSnapshot`] carries
/// its own version, checked independently). v2 tracks the manager
/// snapshot's v2 (the slotted advance-reservation calendar). v3 to v8
/// likewise track the manager snapshot's v3 (sharded planner added),
/// v4 (planner is the only maxmin engine), v5 (link-keyed calendar),
/// v6 (planner dropped, one resident engine), v7 (the calendar
/// section is gone again), v8 (the maxmin engine is a cache and
/// leaves the image) and v9 (what nothing read is gone: terminal
/// connection records, the arrivals series, four one-valued manager
/// knobs — and this config's own `slot`, a second copy of
/// [`arm_core::SLOT`]) and v10 (a retained handoff is a five-number
/// row). v11 is the server's own: the open-connection map and the slot
/// cursor leave the image, since the manager's per-portable connection
/// index and `last_time` determine them; the manager stays at v10.
pub const SERVER_SNAPSHOT_SCHEMA_VERSION: u32 = 11;

/// Static configuration of a server instance. Captured in every
/// snapshot so a restore cannot silently run under different rules
/// than the checkpoint was taken under.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerConfig {
    /// The scenario whose environment, network, strategy, and workload
    /// parameters the server runs.
    pub scenario: Scenario,
    /// Checkpoint after every `checkpoint_every` accepted events
    /// (0 disables periodic checkpoints).
    pub checkpoint_every: u64,
    /// Bound on the transport input queue (lines).
    pub backlog_capacity: usize,
}

impl ServerConfig {
    /// The §7.1 office scenario under the paper strategy — the
    /// configuration the soak drills run.
    pub fn office(seed: u64) -> Self {
        Scenario {
            name: "server-office".into(),
            environment: arm_core::scenario::EnvSpec::Figure4,
            mobility: arm_core::scenario::MobilitySpec::OfficeCase,
            workload: WorkloadSpec::Paper71,
            strategy: arm_core::Strategy::Paper,
            cell_throughput_kbps: 1600.0,
            backbone_kbps: 100_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed,
        }
        .into()
    }
}

impl From<Scenario> for ServerConfig {
    /// `scenario` with a checkpoint every 256 accepted events and a
    /// 1024-line input queue.
    fn from(scenario: Scenario) -> Self {
        ServerConfig {
            scenario,
            checkpoint_every: 256,
            backlog_capacity: 1024,
        }
    }
}

/// What [`Server::ingest_line`] did with a line.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub enum LineOutcome {
    /// Decoded, validated, applied.
    Accepted,
    /// Rejected (counted and surfaced via
    /// [`ObsEvent::IngestRejected`]); the server state is unchanged and
    /// the stream continues.
    Rejected(IngestError),
}

/// The long-running resource-manager process state.
pub struct Server {
    /// Static configuration (also embedded in snapshots).
    pub cfg: ServerConfig,
    /// The live control plane.
    pub mgr: ResourceManager,
    rng: SimRng,
    mix: WorkloadMix,
    present: BTreeSet<PortableId>,
    last_time: SimTime,
    accepted: u64,
    rejected: u64,
    shed: u64,
    queue_pressure: bool,
}

impl Server {
    /// Build a fresh server from a validated scenario. The scenario's
    /// own mobility trace is ignored — events arrive from the stream
    /// ([`crate::drill::events_from_scenario`] converts it into one).
    pub fn new(cfg: ServerConfig, obs: Obs) -> Result<Self, arm_core::ControlError> {
        let (mgr, _trace) = build_manager(&cfg.scenario)?;
        Ok(Server::with_manager(cfg, mgr, obs))
    }

    /// A fresh server around `mgr`, which must be what
    /// [`build_manager`] returned for `cfg.scenario` — lets a replay
    /// keep the trace [`Server::new`] would discard.
    pub(crate) fn with_manager(cfg: ServerConfig, mut mgr: ResourceManager, obs: Obs) -> Self {
        mgr.set_obs(obs);
        let rng = SimRng::new(cfg.scenario.seed).split("scenario-workload");
        Server {
            cfg,
            mgr,
            rng,
            mix: WorkloadMix::paper71(),
            present: BTreeSet::new(),
            last_time: SimTime::ZERO,
            accepted: 0,
            rejected: 0,
            shed: 0,
            queue_pressure: false,
        }
    }

    /// Events accepted and applied so far (the replay cursor: a restore
    /// skips this many journal lines before replaying).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Lines/events rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Admissions squeezed to `b_min` by degraded mode so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The high-water mark of accepted event time.
    pub fn last_time(&self) -> SimTime {
        self.last_time
    }

    /// Is the server currently shedding quality? True while the input
    /// queue is pressured or any profile server is out.
    pub fn degraded(&self) -> bool {
        self.queue_pressure || self.mgr.profile_outages() > 0
    }

    /// Ingest one raw line: parse, validate, apply. A rejection leaves
    /// the server state untouched, increments the rejection counter,
    /// emits [`ObsEvent::IngestRejected`], and returns the typed error
    /// — it never aborts the stream.
    pub fn ingest_line(&mut self, line: &str) -> LineOutcome {
        match parse_event(line) {
            Ok(ev) => match self.apply_event(&ev) {
                Ok(()) => LineOutcome::Accepted,
                Err(e) => LineOutcome::Rejected(e),
            },
            Err(e) => LineOutcome::Rejected(self.reject(e)),
        }
    }

    /// Validate and apply one decoded event. Validation is complete
    /// before any state changes, so a rejected event has no effect at
    /// all (not even a slot tick).
    pub fn apply_event(&mut self, ev: &ServerEvent) -> Result<(), IngestError> {
        if let Err(e) = self.validate(ev) {
            return Err(self.reject(e));
        }
        let t = ev.time();
        // Periodic maintenance first: every event, fault or trace, runs
        // after the slot ticks due at or before its time. The ticks at or
        // before `last_time` have run already.
        let mut slot = SimTime::ZERO + SLOT * (self.last_time.ticks() / SLOT.ticks() + 1);
        while t >= slot {
            self.mgr.slot_tick(slot);
            slot += SLOT;
        }
        match ev {
            ServerEvent::Appear { t, portable, cell } => {
                self.present.insert(*portable);
                self.mgr.portable_appears(*portable, *cell, *t);
                let qos = match &self.cfg.scenario.workload {
                    WorkloadSpec::Paper71 => Some(self.mix.sample(&mut self.rng)),
                    WorkloadSpec::Fixed { kbps } => Some(
                        QosRequest::fixed(*kbps)
                            .with_delay(30.0)
                            .with_jitter(30.0)
                            .with_loss(1.0),
                    ),
                    WorkloadSpec::None => None,
                };
                if let Some(q) = qos {
                    let q = self.maybe_shed(q);
                    let _ = self.mgr.request_connection(*portable, q, *t);
                }
            }
            ServerEvent::Move { t, portable, to } => {
                self.mgr.portable_moved(*portable, *to, *t);
            }
            ServerEvent::Depart { t, portable } => {
                if let Some(id) = self.connection_of(*portable) {
                    self.mgr.terminate(id, *t);
                }
                self.present.remove(portable);
            }
            ServerEvent::Request {
                t,
                portable,
                b_min_kbps,
                b_max_kbps,
            } => {
                let q = self.maybe_shed(
                    QosRequest::bandwidth(*b_min_kbps, *b_max_kbps)
                        .with_delay(30.0)
                        .with_jitter(30.0)
                        .with_loss(1.0),
                );
                let _ = self.mgr.request_connection(*portable, q, *t);
            }
            ServerEvent::LinkDown { t, link } => {
                self.mgr.link_failed(*link, *t);
            }
            ServerEvent::LinkUp { t, link } => {
                self.mgr.link_restored(*link, *t);
            }
            ServerEvent::ProfileServerDown { t, zone } => {
                self.mgr.profile_server_down(*zone, *t);
            }
            ServerEvent::ProfileServerUp { t, zone } => {
                self.mgr.profile_server_up(*zone, *t);
            }
            ServerEvent::FailNextHandoff { portable, .. } => {
                self.mgr.fail_next_handoff(*portable);
            }
            ServerEvent::ChannelChange { t, cell, fraction } => {
                // Range-checked in `validate`, so this cannot fail.
                let _ = self.mgr.channel_change(*cell, *fraction, *t);
            }
            ServerEvent::QueuePressure { on, .. } => {
                self.queue_pressure = *on;
            }
        }
        self.last_time = t;
        self.accepted += 1;
        // A checkpoint is due after this event: bring the history rows'
        // text up to date here, where `&mut` is at hand, so that
        // `snapshot` (`&self`) copies them. Not at `record`: a server
        // that never checkpoints would pay for text nothing reads.
        if self.checkpoint_due() {
            self.mgr.cache_history_rows();
        }
        Ok(())
    }

    /// The connection `p` holds, if any: the network's per-portable
    /// index, and at most one, since `validate` refuses a second
    /// `Request`.
    fn connection_of(&self, p: PortableId) -> Option<ConnId> {
        self.mgr.net.connections_of_portable(p).next().map(|c| c.id)
    }

    /// Semantic validation against the current state: time ordering
    /// (no step back, none further than [`MAX_EVENT_GAP`] ahead), entity
    /// bounds, rate sanity. Touches nothing.
    fn validate(&self, ev: &ServerEvent) -> Result<(), IngestError> {
        let t = ev.time();
        if t < self.last_time {
            return Err(IngestError::OutOfOrder {
                event_ticks: t.ticks(),
                last_ticks: self.last_time.ticks(),
            });
        }
        if t.since(self.last_time) > MAX_EVENT_GAP {
            return Err(IngestError::TooFarAhead {
                event_ticks: t.ticks(),
                last_ticks: self.last_time.ticks(),
            });
        }
        let cells = self.mgr.net.topology().cell_count();
        let links = self.mgr.net.topology().link_count();
        let zones = self.mgr.profiles().zone_count().max(1);
        let check_cell = |c: arm_net::ids::CellId| {
            if (c.0 as usize) < cells {
                Ok(())
            } else {
                Err(IngestError::UnknownEntity {
                    what: format!("cell {} (have {cells})", c.0),
                })
            }
        };
        let check_present = |p: PortableId| {
            if self.present.contains(&p) {
                Ok(())
            } else {
                Err(IngestError::UnknownEntity {
                    what: format!("portable {} (not present)", p.0),
                })
            }
        };
        let check_rate = |what: &'static str, v: f64| {
            if !v.is_finite() {
                Err(IngestError::NonFinite { what })
            } else if v <= 0.0 {
                Err(IngestError::NegativeRate { what, value: v })
            } else {
                Ok(())
            }
        };
        match ev {
            ServerEvent::Appear { portable, cell, .. } => {
                check_cell(*cell)?;
                if self.present.contains(portable) {
                    return Err(IngestError::InvalidParameter {
                        detail: format!("portable {} is already present", portable.0),
                    });
                }
                Ok(())
            }
            ServerEvent::Move { portable, to, .. } => {
                check_present(*portable)?;
                check_cell(*to)?;
                if self.mgr.portable_cell(*portable) == Some(*to) {
                    return Err(IngestError::InvalidParameter {
                        detail: format!("portable {} is already in cell {}", portable.0, to.0),
                    });
                }
                Ok(())
            }
            ServerEvent::Depart { portable, .. } => check_present(*portable),
            // Doom marks are valid for any portable — the mark simply
            // waits in the doomed set until (if ever) that portable
            // hands off.
            ServerEvent::FailNextHandoff { .. } => Ok(()),
            ServerEvent::Request {
                portable,
                b_min_kbps,
                b_max_kbps,
                ..
            } => {
                check_present(*portable)?;
                check_rate("b_min_kbps", *b_min_kbps)?;
                check_rate("b_max_kbps", *b_max_kbps)?;
                if b_max_kbps < b_min_kbps {
                    return Err(IngestError::InvalidParameter {
                        detail: format!("inverted bounds: b_max {b_max_kbps} < b_min {b_min_kbps}"),
                    });
                }
                if self.connection_of(*portable).is_some() {
                    return Err(IngestError::InvalidParameter {
                        detail: format!("portable {} already has an open connection", portable.0),
                    });
                }
                Ok(())
            }
            ServerEvent::LinkDown { link, .. } | ServerEvent::LinkUp { link, .. } => {
                if (link.0 as usize) < links {
                    Ok(())
                } else {
                    Err(IngestError::UnknownEntity {
                        what: format!("link {} (have {links})", link.0),
                    })
                }
            }
            ServerEvent::ProfileServerDown { zone, .. }
            | ServerEvent::ProfileServerUp { zone, .. } => {
                if (zone.0 as usize) < zones {
                    Ok(())
                } else {
                    Err(IngestError::UnknownEntity {
                        what: format!("zone {} (have {zones})", zone.0),
                    })
                }
            }
            ServerEvent::ChannelChange { cell, fraction, .. } => {
                check_cell(*cell)?;
                if !fraction.is_finite() {
                    return Err(IngestError::NonFinite { what: "fraction" });
                }
                if !(*fraction > 0.0 && *fraction <= 1.0) {
                    return Err(IngestError::InvalidParameter {
                        detail: format!("channel fraction {fraction} outside (0, 1]"),
                    });
                }
                Ok(())
            }
            ServerEvent::QueuePressure { .. } => Ok(()),
        }
    }

    /// Count and surface a rejection, then hand the error back.
    fn reject(&mut self, err: IngestError) -> IngestError {
        self.rejected += 1;
        let t = self.last_time;
        let reason = err.reason().to_string();
        let detail = err.to_string();
        self.mgr
            .obs
            .emit_with(|| ObsEvent::IngestRejected { t, reason, detail });
        err
    }

    /// Degraded-mode squeeze: while unhealthy, admit at the guaranteed
    /// floor only (`b_max := b_min`). Counted when it actually bites.
    fn maybe_shed(&mut self, mut q: QosRequest) -> QosRequest {
        if self.degraded() && q.b_max > q.b_min {
            q.b_max = q.b_min;
            self.shed += 1;
        }
        q
    }

    /// True when a periodic checkpoint is due (every
    /// [`ServerConfig::checkpoint_every`] accepted events).
    pub fn checkpoint_due(&self) -> bool {
        self.cfg.checkpoint_every > 0
            && self.accepted > 0
            && self.accepted % self.cfg.checkpoint_every == 0
    }

    /// Capture the complete server state.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            schema: SERVER_SNAPSHOT_SCHEMA_VERSION,
            cfg: self.cfg.clone(),
            manager: self.mgr.snapshot(),
            rng: self.rng.clone(),
            present: self.present.clone(),
            last_time: self.last_time,
            accepted: self.accepted,
            rejected: self.rejected,
            shed: self.shed,
            queue_pressure: self.queue_pressure,
        }
    }

    /// Rebuild a server from a snapshot. The observer is supplied fresh
    /// (observation is passive and deliberately not snapshotted); the
    /// workload mix is rebuilt from the config (it is stateless — all
    /// sampling state lives in the snapshotted RNG).
    pub fn restore(snap: ServerSnapshot, obs: Obs) -> Result<Self, SnapshotError> {
        if snap.schema != SERVER_SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch {
                found: snap.schema,
                expected: SERVER_SNAPSHOT_SCHEMA_VERSION,
            });
        }
        let mgr = ResourceManager::restore(snap.manager, obs)?;
        Ok(Server {
            cfg: snap.cfg,
            mgr,
            rng: snap.rng,
            mix: WorkloadMix::paper71(),
            present: snap.present,
            last_time: snap.last_time,
            accepted: snap.accepted,
            rejected: snap.rejected,
            shed: snap.shed,
            queue_pressure: snap.queue_pressure,
        })
    }

    /// The run-report artifact for the current state. Built purely from
    /// snapshotted state (no observer contents), so an uninterrupted
    /// run and a restore+replay run produce byte-identical reports —
    /// the equality the crash-recovery drill asserts.
    pub fn report(&self, bin: &str) -> RunReport {
        let mut rep = RunReport::new(bin, &self.cfg.scenario.name);
        rep.seed = Some(self.cfg.scenario.seed);
        rep.sim_events = Some(self.accepted);
        rep.metrics = Some(self.mgr.metrics.summary());
        rep.notes.push(format!(
            "server: accepted={} rejected={} shed={} last_t_ticks={}",
            self.accepted,
            self.rejected,
            self.shed,
            self.last_time.ticks()
        ));
        rep
    }
}

/// Complete serializable image of a [`Server`], embedding the manager
/// snapshot plus the server's own replay state (workload RNG, present
/// set, counters, degraded flag). It holds only what the rest of the
/// image cannot determine: the open connections are the manager's
/// per-portable index, and the next slot tick follows `last_time`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerSnapshot {
    /// Schema stamp, always [`SERVER_SNAPSHOT_SCHEMA_VERSION`] when
    /// written by this build.
    schema: u32,
    cfg: ServerConfig,
    manager: ManagerSnapshot,
    rng: SimRng,
    present: BTreeSet<PortableId>,
    last_time: SimTime,
    accepted: u64,
    rejected: u64,
    shed: u64,
    queue_pressure: bool,
}

impl ServerSnapshot {
    /// Accepted-event count at capture time (the journal replay
    /// cursor).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Serialize: [`Self::validate`], then one pass straight to text —
    /// same discipline, same two refusals, as
    /// [`ManagerSnapshot::to_json`].
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        self.validate()?;
        serde_json::to_string_finite(self).map_err(|e| SnapshotError::Invalid(e.to_string()))
    }

    /// Parse a snapshot, checking the server schema version before
    /// decoding the body, then [`Self::validate`] (which re-checks the
    /// embedded manager snapshot's own version).
    pub fn from_json(s: &str) -> Result<Self, SnapshotError> {
        let snap: ServerSnapshot = decode_versioned(s, SERVER_SNAPSHOT_SCHEMA_VERSION)?;
        snap.validate()?;
        Ok(snap)
    }

    /// Validate internal consistency: both schema stamps and the
    /// embedded manager image.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if self.schema != SERVER_SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch {
                found: self.schema,
                expected: SERVER_SNAPSHOT_SCHEMA_VERSION,
            });
        }
        self.manager.validate()
    }
}
