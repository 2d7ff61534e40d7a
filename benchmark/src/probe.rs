//! Spans recorded from the benchmark's own files, around the calls
//! into each layer, and the ledger that reduces them.
//!
//! The workloads are generic over [`Probe`]: `bench` instantiates them
//! with [`NoProbe`] (every call compiles to nothing, so the end-to-end
//! numbers carry no tracing cost) and `bench-traced` with [`Recorder`],
//! which keeps every span in memory and writes them out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of an open span. Opaque to the workloads.
#[derive(Clone, Copy)]
pub struct SpanToken(usize);

/// What a workload calls at each layer boundary.
pub trait Probe {
    /// Spans opened from now on belong to operation `index` of the
    /// current pass.
    fn set_event(&mut self, index: u64);
    /// Open a span as a child of the innermost open one.
    fn start(&mut self, name: &'static str) -> SpanToken;
    /// Close a span.
    fn end(&mut self, tok: SpanToken);
    /// Close a span under another name (a line that turned out to be a
    /// rejection is accounted separately from an accepted event).
    fn end_as(&mut self, tok: SpanToken, name: &'static str);
    /// A new pass begins. Makes room for `spans` more spans, so that
    /// recording one never allocates inside a span that counts
    /// allocations.
    fn begin_pass(&mut self, spans: usize);
}

/// The probe of the untraced binary.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn set_event(&mut self, _: u64) {}
    #[inline(always)]
    fn start(&mut self, _: &'static str) -> SpanToken {
        SpanToken(0)
    }
    #[inline(always)]
    fn end(&mut self, _: SpanToken) {}
    #[inline(always)]
    fn end_as(&mut self, _: SpanToken, _: &'static str) {}
    #[inline(always)]
    fn begin_pass(&mut self, _: usize) {}
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.journal`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The identifier all spans of one operation share: the pass
    /// number in the high 32 bits, the operation's index in the low.
    pub event_id: u64,
    /// Heap allocations made while the span was open (children
    /// included).
    pub allocs: u64,
}

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    alloc_count: fn() -> u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u64,
    event: u64,
}

impl Recorder {
    /// `alloc_count` reads the process's allocation counter (the
    /// traced binary installs `arm-alloc-counter` as its allocator).
    pub fn new(alloc_count: fn() -> u64) -> Self {
        Recorder {
            epoch: Instant::now(),
            alloc_count,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            event: 0,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Write the spans as JSONL `{name,start_ns,end_ns,parent,event_id}`.
    pub fn flush_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"event_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.event_id
            )?;
        }
        out.flush()
    }
}

impl Probe for Recorder {
    fn set_event(&mut self, index: u64) {
        self.event = (self.pass << 32) | index;
    }

    fn start(&mut self, name: &'static str) -> SpanToken {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            event_id: self.event,
            allocs: (self.alloc_count)(),
        });
        self.open.push(idx);
        // Read the clock last, so the recorder's own work is outside.
        self.spans[idx].start_ns = self.now_ns();
        SpanToken(idx)
    }

    fn end(&mut self, tok: SpanToken) {
        let end_ns = self.now_ns();
        let allocs = (self.alloc_count)();
        let s = &mut self.spans[tok.0];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        debug_assert_eq!(
            self.open.last(),
            Some(&tok.0),
            "spans close innermost first"
        );
        self.open.pop();
    }

    fn end_as(&mut self, tok: SpanToken, name: &'static str) {
        self.end(tok);
        self.spans[tok.0].name = name;
    }

    fn begin_pass(&mut self, spans: usize) {
        self.pass += 1;
        self.spans.reserve(spans);
        self.open.reserve(16);
    }
}

/// What the ledger knows about one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LedgerRow {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub busy_ns: u64,
    /// Busy time minus the part child spans cover.
    pub self_ns: u64,
    /// Summed allocations (children included).
    pub allocs: u64,
}

impl LedgerRow {
    /// Mean duration, nanoseconds; 0 when the name never occurred.
    pub fn ns_per(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.count as f64
        }
    }

    /// Mean allocations per span.
    pub fn allocs_per(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.allocs as f64 / self.count as f64
        }
    }
}

/// Spans reduced to one row per name.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    rows: BTreeMap<&'static str, LedgerRow>,
}

impl Ledger {
    /// Reduce every span of a recorder (parent indices point into
    /// `spans` itself).
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        let mut ledger = Ledger::default();
        for s in spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if let Some(p) = s.parent {
                child_ns[p] += dur;
            }
        }
        for (s, covered) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let row = ledger.rows.entry(s.name).or_default();
            row.count += 1;
            row.busy_ns += dur;
            row.self_ns += dur.saturating_sub(*covered);
            row.allocs += s.allocs;
        }
        ledger
    }

    /// The row of `name` (all zero when it never occurred).
    pub fn row(&self, name: &str) -> LedgerRow {
        self.rows.get(name).copied().unwrap_or_default()
    }

    /// Every row, by name.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, LedgerRow)> + '_ {
        self.rows.iter().map(|(n, r)| (*n, *r))
    }

    /// Summed busy time of `names`, nanoseconds.
    pub fn busy_ns_of(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.row(n).busy_ns).sum()
    }

    /// The share of `wall_ns` (the timed loop) that the spans called
    /// `outer` do not account for: the loop's own bookkeeping plus
    /// whatever the spans miss. `outer` must name spans that never
    /// nest in one another, or their time is counted twice.
    pub fn residual_share(&self, wall_ns: u64, outer: &[&str]) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        wall_ns.saturating_sub(self.busy_ns_of(outer)) as f64 / wall_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            event_id: 0,
            allocs: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // event[0..100] { parse[0..10], apply[10..90] { refresh[20..70] } }
        let spans = [
            span("event", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("apply", 10, 90, Some(0)),
            span("refresh", 20, 70, Some(2)),
        ];
        let l = Ledger::from_spans(&spans);
        assert_eq!(l.row("event").busy_ns, 100);
        assert_eq!(l.row("event").self_ns, 10);
        assert_eq!(l.row("apply").self_ns, 30);
        assert_eq!(l.row("refresh").self_ns, 50);
        assert_eq!(l.row("missing"), LedgerRow::default());
        // Self times partition the root: 10 + 10 + 30 + 50.
        let total: u64 = l.rows().map(|(_, r)| r.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn residual_is_what_the_layer_spans_miss() {
        let spans = [
            span("event", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("apply", 10, 90, Some(0)),
        ];
        let l = Ledger::from_spans(&spans);
        // Loop wall 120: 10 + 80 accounted, 30 not.
        assert_eq!(l.residual_share(120, &["parse", "apply"]), 0.25);
        assert_eq!(l.residual_share(0, &["parse"]), 0.0);
    }

    #[test]
    fn recorder_nests_and_renames() {
        fn zero() -> u64 {
            0
        }
        let mut r = Recorder::new(zero);
        r.begin_pass(8);
        r.set_event(7);
        let outer = r.start("event");
        let inner = r.start("server.parse");
        r.end(inner);
        r.end_as(outer, "server.reject");
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "server.reject");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].event_id, (1 << 32) | 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        r.flush_jsonl(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"name\":\"server.reject\",\"start_ns\":"));
        assert!(text.contains("\"parent\":null,\"event_id\":4294967303}"));
    }
}
