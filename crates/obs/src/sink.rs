//! Trace sinks: where emitted events go.
//!
//! Two implementations cover the repo's needs: [`RingSink`] retains the
//! last `N` events in memory (tests, differential runs, post-mortem on
//! an invariant failure) and [`JsonlSink`] streams every event as one
//! JSON line to a writer (artifacts, offline analysis). Sinks observe —
//! they never mutate model state and are not consulted by it, which is
//! what makes the observation-off bit-identicality guarantee cheap
//! to uphold.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::ObsEvent;

/// A consumer of emitted events.
pub(crate) trait TraceSink {
    /// Accept one event.
    fn record(&mut self, ev: &ObsEvent);

    /// The retained events, oldest first (empty for write-through sinks).
    fn snapshot(&self) -> Vec<ObsEvent> {
        Vec::new()
    }
}

/// Keeps the most recent `capacity` events in memory.
#[derive(Clone, Debug, Default)]
pub(crate) struct RingSink {
    capacity: usize,
    buf: VecDeque<ObsEvent>,
}

impl RingSink {
    /// A ring retaining at most `capacity` events (0 retains nothing).
    pub(crate) fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(1024)),
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &ObsEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev.clone());
    }

    fn snapshot(&self) -> Vec<ObsEvent> {
        self.buf.iter().cloned().collect()
    }
}

/// Streams each event as one JSON line.
///
/// I/O errors are swallowed, not propagated: observation must never
/// turn into a control-plane failure mid-run.
#[derive(Debug)]
pub(crate) struct JsonlSink<W: Write> {
    w: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer.
    pub(crate) fn new(w: W) -> Self {
        JsonlSink { w }
    }
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) a JSONL file at `path`.
    pub(crate) fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &ObsEvent) {
        if let Ok(line) = serde_json::to_string(ev) {
            let _ = writeln!(self.w, "{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_net::ids::{CellId, ConnId};
    use arm_sim::time::SimTime;

    fn ev(sec: u64) -> ObsEvent {
        ObsEvent::AdmitDecision {
            t: SimTime::from_secs(sec),
            conn: ConnId(1),
            cell: CellId(2),
            cause: crate::AdmitCause::Admitted,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut s = RingSink::new(2);
        s.record(&ev(1));
        s.record(&ev(2));
        s.record(&ev(3));
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap, vec![ev(2), ev(3)]);
    }

    #[test]
    fn zero_capacity_ring_only_counts() {
        let mut s = RingSink::new(0);
        s.record(&ev(1));
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn jsonl_writes_one_parseable_line_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(&ev(1));
        s.record(&ev(2));
        let text = String::from_utf8(s.w).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let back: ObsEvent = serde_json::from_str(line).expect("parseable");
            assert_eq!(back, ev(i as u64 + 1));
        }
    }
}
