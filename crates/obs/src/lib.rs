// Repo policy (DESIGN.md §8.1), enforced by clippy in non-test code:
// no panics, no unordered containers or wall clock (`clippy.toml`), and
// no bare `#[allow]`. An audited panic goes through `arm_sim::Audited`;
// any other exception is `#[expect(lint, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_types,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

//! Structured observability for the resource-management stack.
//!
//! Three pieces (DESIGN.md §9):
//!
//! 1. **Typed events** ([`ObsEvent`]) emitted at every decision point —
//!    admission, maxmin rounds, ADVERTISE/UPDATE exchanges, handoffs,
//!    claim drawdowns, slot rolls, dispatch, fault injection — routed to
//!    a pluggable trace sink (in-memory ring or JSONL stream).
//! 2. **Phase timers** ([`Phase`]) giving wall-clock *and* sim-time
//!    distributions per control-plane phase, backed by the simulator's
//!    own `Histogram`.
//! 3. **Run reports** ([`RunReport`]) — the one JSON artifact every
//!    `expt_*` bin and the chaos soak emit, so runs are comparable
//!    across seeds, strategies, and PRs.
//!
//! The cardinal rule: observation is *passive*. No instrumented
//! component ever reads back anything from the observer, so
//! an off [`ObsConfig`] (the default everywhere) is guaranteed to leave
//! results bit-identical — asserted by the differential test in
//! `arm_core`. The disabled cost is one branch per site and no
//! syscalls.

use std::cell::RefCell;
use std::fmt;
use std::path::PathBuf;
use std::rc::Rc;

use arm_sim::time::SimTime;
use sink::{JsonlSink, RingSink, TraceSink};
use timers::PhaseTimers;

mod event;
mod report;
mod sink;
mod timers;

pub use event::{AdmitCause, ClaimSource, EventKind, Fault, HandoffCause, ObsEvent};
pub use report::{
    BenchEntry, ChaosSummary, EventCount, HistSummary, MetricsSummary, PhaseSummary, RunReport,
    SCHEMA_VERSION,
};
pub use timers::{Phase, PhaseToken};

/// How to build an [`Obs`] for a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. Off means: no sink, no counters, no timers, no
    /// syscalls — bit-identical results.
    pub(crate) enabled: bool,
    /// Ring capacity when no JSONL path is given.
    pub(crate) ring_capacity: usize,
    /// Stream events to this JSONL file instead of the ring.
    pub(crate) jsonl_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Stream events to a JSONL file.
    pub fn jsonl(path: PathBuf) -> Self {
        ObsConfig {
            enabled: true,
            ring_capacity: 0,
            jsonl_path: Some(path),
        }
    }

    /// Build the observer. Fails only if a JSONL file cannot be created.
    pub fn build(&self) -> std::io::Result<Obs> {
        if !self.enabled {
            return Ok(Obs::off());
        }
        match &self.jsonl_path {
            Some(p) => Ok(Obs::with_sink(Box::new(JsonlSink::create(p)?))),
            None => Ok(Obs::recording(self.ring_capacity)),
        }
    }
}

/// The observer facade every instrumented component holds.
///
/// All emission funnels through [`Obs::emit_with`], which takes a
/// closure so the disabled path never even constructs the event.
pub struct Obs {
    on: bool,
    sink: Option<Box<dyn TraceSink>>,
    counts: [u64; EventKind::ALL.len()],
    timers: PhaseTimers,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("on", &self.on)
            .field("events", &self.total_events())
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::off()
    }
}

impl Obs {
    /// The disabled observer (every instrumented type's default).
    pub fn off() -> Self {
        Obs {
            on: false,
            sink: None,
            counts: [0; EventKind::ALL.len()],
            timers: PhaseTimers::new(),
        }
    }

    /// An enabled observer retaining the last `capacity` events.
    pub fn recording(capacity: usize) -> Self {
        Obs::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// An enabled observer with a custom sink.
    pub(crate) fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Obs {
            on: true,
            sink: Some(sink),
            counts: [0; EventKind::ALL.len()],
            timers: PhaseTimers::new(),
        }
    }

    /// Is observation enabled?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Emit an event, constructing it only when enabled.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> ObsEvent) {
        if self.on {
            self.emit(f());
        }
    }

    /// Emit an already-constructed event.
    pub fn emit(&mut self, ev: ObsEvent) {
        if !self.on {
            return;
        }
        let idx = ev.kind().index();
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        if let Some(sink) = &mut self.sink {
            sink.record(&ev);
        }
    }

    /// Start timing a phase. When disabled this skips the clock syscall
    /// and returns an inert token, so `phase_end` records nothing.
    #[inline]
    pub fn phase_start(&self, now: SimTime) -> PhaseToken {
        if self.on {
            PhaseToken::start(now)
        } else {
            PhaseToken::inert()
        }
    }

    /// Finish timing a phase started with [`Obs::phase_start`].
    #[inline]
    pub fn phase_end(&mut self, phase: Phase, token: PhaseToken, now: SimTime) {
        if self.on {
            self.timers.record(phase, token, now);
        }
    }

    /// How many times `kind` fired.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts.get(kind.index()).copied().unwrap_or(0)
    }

    /// Total events emitted.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Non-zero event counts, in schema order.
    pub fn event_counts(&self) -> Vec<EventCount> {
        EventKind::ALL
            .iter()
            .filter(|k| self.count(**k) > 0)
            .map(|k| EventCount {
                kind: k.name().to_string(),
                count: self.count(*k),
            })
            .collect()
    }

    /// Summaries of every phase that recorded spans.
    pub fn phase_summaries(&self) -> Vec<PhaseSummary> {
        self.timers.summaries()
    }

    /// The sink's retained events (empty when off or write-through).
    pub fn snapshot_events(&self) -> Vec<ObsEvent> {
        self.sink.as_ref().map(|s| s.snapshot()).unwrap_or_default()
    }

    /// Fill a report's `phases` and `events` sections from this observer.
    pub fn fill_report(&self, report: &mut RunReport) {
        report.phases = self.phase_summaries();
        report.events = self.event_counts();
    }

    /// Wrap in the shared handle cloneable components hold.
    pub fn into_shared(self) -> SharedObs {
        Rc::new(RefCell::new(self))
    }
}

/// The handle held by components that are themselves `Clone` (e.g. the
/// distributed maxmin solver): cheap to clone, absent by default.
pub type SharedObs = Rc<RefCell<Obs>>;

#[cfg(test)]
mod tests {
    use super::*;
    use arm_net::ids::{CellId, ConnId};

    fn admit(sec: u64, admitted: bool) -> ObsEvent {
        ObsEvent::AdmitDecision {
            t: SimTime::from_secs(sec),
            conn: ConnId(1),
            cell: CellId(2),
            cause: if admitted {
                AdmitCause::Admitted
            } else {
                AdmitCause::Blocked
            },
        }
    }

    #[test]
    fn off_is_inert_and_allocation_free() {
        let mut obs = Obs::off();
        assert!(!obs.is_on());
        let mut constructed = false;
        obs.emit_with(|| {
            constructed = true;
            admit(1, true)
        });
        assert!(!constructed, "closure must not run when off");
        let tok = obs.phase_start(SimTime::from_secs(1));
        assert!(tok.wall.is_none(), "no clock syscall when off");
        obs.phase_end(Phase::Admission, tok, SimTime::from_secs(2));
        assert_eq!(obs.total_events(), 0);
        assert!(obs.event_counts().is_empty());
        assert!(obs.phase_summaries().is_empty());
        assert!(obs.snapshot_events().is_empty());
    }

    #[test]
    fn recording_counts_and_retains() {
        let mut obs = Obs::recording(8);
        obs.emit_with(|| admit(1, true));
        obs.emit_with(|| admit(2, false));
        assert_eq!(obs.count(EventKind::AdmitDecision), 2);
        assert_eq!(obs.total_events(), 2);
        let counts = obs.event_counts();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].kind, "AdmitDecision");
        assert_eq!(counts[0].count, 2);
        assert_eq!(obs.snapshot_events().len(), 2);
    }

    #[test]
    fn phase_timing_round_trip() {
        let mut obs = Obs::recording(1);
        let tok = obs.phase_start(SimTime::from_secs(10));
        obs.phase_end(Phase::Handoff, tok, SimTime::from_secs(11));
        let sums = obs.phase_summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].phase, "handoff");
        assert_eq!(sums[0].spans, 1);
        assert!((sums[0].sim_us.max - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn config_builds_matching_observer() {
        assert!(!ObsConfig::default().build().expect("build").is_on());
        let ring = ObsConfig {
            enabled: true,
            ring_capacity: 4,
            jsonl_path: None,
        };
        assert!(ring.build().expect("build").is_on());
    }

    #[test]
    fn fill_report_populates_sections() {
        let mut obs = Obs::recording(4);
        obs.emit_with(|| admit(1, true));
        let mut r = RunReport::new("test", "unit");
        obs.fill_report(&mut r);
        assert_eq!(r.events.len(), 1);
        let json = r.to_json().expect("serialize");
        assert_eq!(RunReport::from_json(&json).expect("parse"), r);
    }
}
