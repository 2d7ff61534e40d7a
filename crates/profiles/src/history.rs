//! Bounded handoff history.
//!
//! The profile server "maintains the following information about the last
//! `N_pP` handoffs from each cell … for that portable" and "the last
//! `N_pC` handoffs of the cell" (§3.4.3). [`HandoffHistory`] is the
//! bounded FIFO both profile kinds aggregate from; [`CountedHistory`] is
//! the cell profile's, with the per-`next` tallies its predictions read
//! kept resident instead of recounted per query.
//!
//! These rings are most of a checkpoint, and between two checkpoints
//! only a tenth of their rows are new. So a ring keeps the encoded text
//! of its older rows ([`HandoffHistory::cache_rows`]) and a checkpoint
//! copies that text instead of encoding the rows again (DESIGN.md
//! §10.2).

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

use arm_net::ids::{CellId, PortableId};
use arm_sim::{Audited, SimTime};
use serde::{Deserialize, JsonWriter, Serialize};

/// One observed handoff: the portable moved `prev → cur → next` (where
/// `prev` may be unknown for a portable's first movement).
///
/// Encoded as a row, `[portable, prev|null, cur, next, time]`: five
/// numbers, no keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HandoffEvent {
    /// Who moved.
    pub portable: PortableId,
    /// The cell before the cell being left (None on first movement).
    pub prev: Option<CellId>,
    /// The cell being left.
    pub cur: CellId,
    /// The cell being entered.
    pub next: CellId,
    /// When.
    pub time: SimTime,
}

impl Serialize for HandoffEvent {
    fn to_value(&self) -> serde::Value {
        wire::HandoffEvent::from(*self).to_value()
    }
    fn write_json(&self, out: &mut JsonWriter) {
        wire::HandoffEvent::from(*self).write_json(out);
    }
}

impl Deserialize for HandoffEvent {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        wire::HandoffEvent::from_value(v).map(Self::from)
    }
    /// The row as the writer spells it is read in one pass
    /// ([`JsonReader::uint_row`](serde::JsonReader::uint_row)). Any other
    /// spelling, and a row whose ids do not fit a `u32` or whose `null`
    /// is not in the `prev` slot, is read by the derived codec, which
    /// accepts it or says why not; so the pass accepts a subset of what
    /// that codec accepts, with the same values.
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        let row = r.uint_row(|[portable, prev, cur, next, time]| {
            let id = |slot: Option<u64>| slot.and_then(|u| u32::try_from(u).ok());
            Some(HandoffEvent {
                portable: PortableId(id(portable)?),
                prev: match prev {
                    None => None,
                    Some(_) => Some(CellId(id(prev)?)),
                },
                cur: CellId(id(cur)?),
                next: CellId(id(next)?),
                time: SimTime::from_ticks(time?),
            })
        });
        match row {
            Some(ev) => Ok(ev),
            None => wire::HandoffEvent::read_json(r).map(Self::from),
        }
    }
}

/// The documents' spelling of a [`HandoffEvent`](super::HandoffEvent)
/// and a [`HandoffHistory`](super::HandoffHistory), under their names so
/// the derive's error texts carry them.
mod wire {
    use std::collections::VecDeque;

    use arm_net::ids::{CellId, PortableId};
    use arm_sim::SimTime;

    /// `[portable, prev|null, cur, next, time]`.
    #[derive(serde::Serialize, serde::Deserialize)]
    pub(super) struct HandoffEvent(PortableId, Option<CellId>, CellId, CellId, SimTime);

    impl From<super::HandoffEvent> for HandoffEvent {
        fn from(e: super::HandoffEvent) -> Self {
            HandoffEvent(e.portable, e.prev, e.cur, e.next, e.time)
        }
    }

    impl From<HandoffEvent> for super::HandoffEvent {
        fn from(HandoffEvent(portable, prev, cur, next, time): HandoffEvent) -> Self {
            super::HandoffEvent {
                portable,
                prev,
                cur,
                next,
                time,
            }
        }
    }

    #[derive(serde::Serialize, serde::Deserialize)]
    pub(super) struct HandoffHistory {
        pub(super) cap: usize,
        pub(super) events: VecDeque<super::HandoffEvent>,
        pub(super) total_recorded: u64,
    }
}

/// A FIFO of the most recent `cap` handoff events.
#[derive(Clone, Debug)]
pub struct HandoffHistory {
    cap: usize,
    events: VecDeque<HandoffEvent>,
    total_recorded: u64,
    /// The encoded rows of the oldest retained events. Derived, never
    /// serialised: a decoded history starts with none, and a clone
    /// carries the original's, which describe its events too.
    rows: RowCache,
}

/// The encoded rows of a [`HandoffHistory`]'s oldest `lens.len()`
/// retained events.
///
/// Invariant: `lens.len()` is at most the number of retained events,
/// and `text[start..]` is, for each of the oldest `lens.len()` of them
/// in order, a `,` and then exactly the text
/// [`HandoffEvent::write_json`] writes for it; `lens` holds those
/// pieces' byte lengths, comma included. Only
/// [`HandoffHistory::cache_rows`] appends (after every event it has
/// already encoded), and only an eviction removes (the oldest), which
/// is what keeps the text and the ring in step.
#[derive(Clone, Debug, Default)]
struct RowCache {
    text: String,
    /// Where the first live piece starts: the bytes before it belong to
    /// evicted events, and are dropped once they outweigh the live ones.
    start: usize,
    lens: VecDeque<u8>,
}

impl RowCache {
    /// How many of the oldest events have their rows here.
    fn len(&self) -> usize {
        self.lens.len()
    }

    /// The cached rows joined by commas: the live pieces with the first
    /// one's comma cut off.
    fn rows(&self) -> &str {
        self.text.get(self.start + 1..).unwrap_or_default()
    }

    /// Forget the oldest cached row (the ring evicted its event), if
    /// there is one.
    fn pop_front(&mut self) {
        if let Some(len) = self.lens.pop_front() {
            self.start += usize::from(len);
            // Compact once the dead prefix is at least as long as what
            // is live: the live bytes moved are never more than the dead
            // bytes dropped, each of which was evicted once.
            if self.start * 2 >= self.text.len() {
                self.text.drain(..self.start);
                self.start = 0;
            }
        }
    }

    /// Encode `events` — the retained events after the cached ones,
    /// oldest first — onto the end.
    fn extend<'a>(&mut self, events: impl Iterator<Item = &'a HandoffEvent>) {
        let mut out = JsonWriter::from(std::mem::take(&mut self.text));
        for ev in events {
            let from = out.len();
            out.raw(",");
            ev.write_json(&mut out);
            // `,[` + four u32s + a u64 + four `,` + `]` is 67 bytes.
            let len = u8::try_from(out.len() - from)
                .invariant("an encoded handoff row is at most 67 bytes");
            self.lens.push_back(len);
        }
        self.text = out.into_string();
    }
}

// The document is `{"cap":…,"events":[rows…],"total_recorded":…}`,
// the derived codec of `wire::HandoffHistory`. `to_value` builds that
// tree from the events alone — the oracle `write_json` is tested
// against — and `write_json` copies the cached rows as one slice and
// encodes only the rest.
impl Serialize for HandoffHistory {
    fn to_value(&self) -> serde::Value {
        wire::HandoffHistory {
            cap: self.cap,
            events: self.events.clone(),
            total_recorded: self.total_recorded,
        }
        .to_value()
    }
    fn write_json(&self, out: &mut JsonWriter) {
        out.raw("{\"cap\":");
        out.uint(self.cap as u64);
        out.raw(",\"events\":[");
        let cached = self.rows.len();
        out.raw(self.rows.rows());
        for (i, ev) in self.events.range(cached..).enumerate() {
            if cached + i > 0 {
                out.raw(",");
            }
            ev.write_json(out);
        }
        out.raw("],\"total_recorded\":");
        out.uint(self.total_recorded);
        out.raw("}");
    }
}

impl Deserialize for HandoffHistory {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        wire::HandoffHistory::from_value(v)?.try_into()
    }
    /// The derived codec's loop over the keys (the first of two equal
    /// keys counts, an unknown key is skipped), except that `events`
    /// after `cap` is read into a ring sized as `HandoffHistory::new`
    /// sizes one, and refused at row `cap + 1` before that row is read.
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        if !r.begin_object()? {
            return Err(r.wrong_shape("HandoffHistory: expected object"));
        }
        let (mut cap, mut events, mut total_recorded) = (None, None, None);
        let mut last = None;
        while let Some(i) = r.field(&["cap", "events", "total_recorded"], last)? {
            match i {
                0 if cap.is_none() => cap = Some(usize::read_json(r)?),
                1 if events.is_none() => events = Some(read_events(r, cap)?),
                2 if total_recorded.is_none() => total_recorded = Some(u64::read_json(r)?),
                _ => r.skip_value()?,
            }
            last = Some(i);
        }
        let missing = |field| serde::Error::missing_field(field, "HandoffHistory");
        wire::HandoffHistory {
            cap: cap.ok_or_else(|| missing("cap"))?,
            events: events.ok_or_else(|| missing("events"))?,
            total_recorded: total_recorded.ok_or_else(|| missing("total_recorded"))?,
        }
        .try_into()
    }
}

/// A history's `events`, read with its `cap` known (`None`: not yet
/// read, and the events decode as any `VecDeque` does). A ring of the
/// first `cap.min(1024)` rows is reserved up front, so a restored
/// ring's first `record` does not grow it, and a document that holds
/// more rows than `cap` is refused at the first one too many, however
/// many follow.
fn read_events(
    r: &mut serde::JsonReader<'_>,
    cap: Option<usize>,
) -> Result<VecDeque<HandoffEvent>, serde::Error> {
    let Some(cap) = cap else {
        return VecDeque::read_json(r);
    };
    if !r.begin_array()? {
        return VecDeque::read_json(r);
    }
    let mut events = VecDeque::with_capacity(cap.min(1024));
    while r.array_next(events.is_empty())? {
        if events.len() == cap {
            return Err(too_many(cap + 1, cap));
        }
        events.push_back(HandoffEvent::read_json(r)?);
    }
    Ok(events)
}

/// The refusal of a history holding `events` rows where `cap` fit.
fn too_many(events: usize, cap: usize) -> serde::Error {
    serde::Error::custom(format!("HandoffHistory: {events} events exceed cap {cap}"))
}

/// A decoded history must be one [`HandoffHistory::record`] can keep
/// bounded: with `cap == 0` or more events than `cap` its eviction
/// (`len == cap`) never fires again, and the ring — and a cell's tallies
/// with it — would grow without limit.
impl TryFrom<wire::HandoffHistory> for HandoffHistory {
    type Error = serde::Error;

    fn try_from(w: wire::HandoffHistory) -> Result<Self, serde::Error> {
        if w.cap == 0 {
            return Err(serde::Error::custom("HandoffHistory: cap must be positive"));
        }
        if w.events.len() > w.cap {
            return Err(too_many(w.events.len(), w.cap));
        }
        if w.total_recorded < w.events.len() as u64 {
            return Err(serde::Error::custom(format!(
                "HandoffHistory: total_recorded {} is below the {} events retained",
                w.total_recorded,
                w.events.len()
            )));
        }
        Ok(HandoffHistory {
            cap: w.cap,
            events: w.events,
            total_recorded: w.total_recorded,
            rows: RowCache::default(),
        })
    }
}

impl HandoffHistory {
    /// History bounded to `cap` events.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0);
        HandoffHistory {
            cap,
            events: VecDeque::with_capacity(cap.min(1024)),
            total_recorded: 0,
            rows: RowCache::default(),
        }
    }

    /// Record an event, evicting (and returning) the oldest when full.
    /// Encodes nothing: an evicted event's cached row is dropped, and
    /// the new event waits for the next [`cache_rows`](Self::cache_rows).
    pub(crate) fn record(&mut self, ev: HandoffEvent) -> Option<HandoffEvent> {
        let evicted = if self.events.len() == self.cap {
            self.rows.pop_front();
            self.events.pop_front()
        } else {
            None
        };
        self.events.push_back(ev);
        self.total_recorded += 1;
        evicted
    }

    /// Encode the rows of the events recorded since the last call, so
    /// that the next [`write_json`](Serialize::write_json) copies every
    /// row instead of encoding it. Changes no answer the history gives
    /// and no byte it writes.
    pub(crate) fn cache_rows(&mut self) {
        let cached = self.rows.len();
        self.rows.extend(self.events.range(cached..));
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &HandoffEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Lifetime count of recorded events (including evicted ones).
    #[cfg(test)]
    pub(crate) fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// The retention bound.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Most common `next` cell among events matching the filter, with its
    /// frequency (count, total-matching).
    pub fn most_common_next<F>(&self, filter: F) -> Option<(CellId, usize, usize)>
    where
        F: Fn(&HandoffEvent) -> bool,
    {
        let mut counts: BTreeMap<CellId, usize> = BTreeMap::new();
        let mut total = 0;
        for ev in self.events.iter().filter(|e| filter(e)) {
            *counts.entry(ev.next).or_insert(0) += 1;
            total += 1;
        }
        counts
            .into_iter()
            .max_by_key(|(c, n)| (*n, Reverse(*c)))
            .map(|(c, n)| (c, n, total))
    }
}

/// The entry with the highest count — the smaller cell id on a tie —
/// with its count and the sum of all counts: what
/// [`HandoffHistory::most_common_next`] computes from a recount, computed
/// from tallies (kept apart from it so each can check the other).
fn majority(counts: impl IntoIterator<Item = (CellId, usize)>) -> Option<(CellId, usize, usize)> {
    let mut total = 0;
    let mut best: Option<(CellId, usize)> = None;
    for (c, n) in counts {
        total += n;
        if best.map_or(true, |(bc, bn)| (n, Reverse(c)) > (bn, Reverse(bc))) {
            best = Some((c, n));
        }
    }
    best.map(|(c, n)| (c, n, total))
}

/// A [`HandoffHistory`] whose events all leave one cell, plus how many
/// of the retained events went to each `next` cell — overall and per
/// `prev` cell. The tallies are what a cell profile's level-2b
/// prediction and transition rows are made of; keeping them here, next
/// to the FIFO whose eviction they must follow, makes those queries
/// O(neighbours) instead of a recount of up to `N_pC` events each.
///
/// The tallies are derived state: incremented on push and decremented
/// on eviction inside [`record`](Self::record), the only mutator of the
/// events ([`cache_rows`](Self::cache_rows) touches only their text);
/// never serialised (the encoding is exactly the inner
/// [`HandoffHistory`]'s); recounted from the events on decode, so a
/// document cannot supply its own. No tally is ever zero.
#[derive(Clone, Debug)]
pub(crate) struct CountedHistory {
    history: HandoffHistory,
    by_prev: BTreeMap<(Option<CellId>, CellId), usize>,
    by_next: BTreeMap<CellId, usize>,
}

impl Serialize for CountedHistory {
    fn to_value(&self) -> serde::Value {
        self.history.to_value()
    }
    fn write_json(&self, out: &mut serde::JsonWriter) {
        self.history.write_json(out);
    }
}

impl Deserialize for CountedHistory {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        HandoffHistory::from_value(v).map(Self::recount)
    }
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        HandoffHistory::read_json(r).map(Self::recount)
    }
}

impl CountedHistory {
    /// A decoded FIFO with its tallies counted from its events.
    fn recount(history: HandoffHistory) -> Self {
        let mut counted = CountedHistory {
            history,
            by_prev: BTreeMap::new(),
            by_next: BTreeMap::new(),
        };
        for ev in &counted.history.events {
            *counted.by_prev.entry((ev.prev, ev.next)).or_insert(0) += 1;
            *counted.by_next.entry(ev.next).or_insert(0) += 1;
        }
        counted
    }

    /// History bounded to `cap` events.
    pub(crate) fn new(cap: usize) -> Self {
        CountedHistory {
            history: HandoffHistory::new(cap),
            by_prev: BTreeMap::new(),
            by_next: BTreeMap::new(),
        }
    }

    /// Record an event, evicting the oldest when full.
    pub(crate) fn record(&mut self, ev: HandoffEvent) {
        if let Some(old) = self.history.record(ev) {
            decrement(&mut self.by_prev, (old.prev, old.next));
            decrement(&mut self.by_next, old.next);
        }
        *self.by_prev.entry((ev.prev, ev.next)).or_insert(0) += 1;
        *self.by_next.entry(ev.next).or_insert(0) += 1;
    }

    /// [`HandoffHistory::cache_rows`] on the FIFO.
    pub(crate) fn cache_rows(&mut self) {
        self.history.cache_rows();
    }

    /// The event FIFO itself.
    pub(crate) fn history(&self) -> &HandoffHistory {
        &self.history
    }

    /// How many retained events whose previous cell was `prev` went to
    /// each `next` cell, ascending by cell.
    pub(crate) fn next_counts_after(
        &self,
        prev: Option<CellId>,
    ) -> impl Iterator<Item = (CellId, usize)> + '_ {
        self.by_prev
            .range((prev, CellId(0))..=(prev, CellId(u32::MAX)))
            .map(|((_, next), n)| (*next, *n))
    }

    /// How many retained events went to each `next` cell, ascending by
    /// cell.
    pub(crate) fn next_counts(&self) -> impl Iterator<Item = (CellId, usize)> + '_ {
        self.by_next.iter().map(|(next, n)| (*next, *n))
    }

    /// [`HandoffHistory::most_common_next`] with the filter
    /// `e.prev == prev`, from the tallies.
    pub(crate) fn most_common_next_after(
        &self,
        prev: Option<CellId>,
    ) -> Option<(CellId, usize, usize)> {
        majority(self.next_counts_after(prev))
    }

    /// [`HandoffHistory::most_common_next`] over every retained event,
    /// from the tallies.
    pub(crate) fn most_common_next(&self) -> Option<(CellId, usize, usize)> {
        majority(self.next_counts())
    }
}

/// Take one off a tally, removing the entry when it reaches zero.
fn decrement<K: Ord>(counts: &mut BTreeMap<K, usize>, key: K) {
    if let std::collections::btree_map::Entry::Occupied(mut e) = counts.entry(key) {
        *e.get_mut() -= 1;
        if *e.get() == 0 {
            e.remove();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(p: u32, prev: Option<u32>, cur: u32, next: u32) -> HandoffEvent {
        HandoffEvent {
            portable: PortableId(p),
            prev: prev.map(CellId),
            cur: CellId(cur),
            next: CellId(next),
            time: SimTime::ZERO,
        }
    }

    #[test]
    fn fifo_eviction() {
        let mut h = HandoffHistory::new(3);
        for i in 0..5 {
            h.record(ev(0, None, i, i + 1));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.total_recorded(), 5);
        let curs: Vec<u32> = h.events().map(|e| e.cur.0).collect();
        assert_eq!(curs, vec![2, 3, 4]);
        assert_eq!(h.capacity(), 3);
    }

    #[test]
    fn most_common_next_with_filter() {
        let mut h = HandoffHistory::new(10);
        h.record(ev(1, Some(0), 1, 2));
        h.record(ev(1, Some(0), 1, 2));
        h.record(ev(1, Some(0), 1, 3));
        h.record(ev(2, Some(0), 1, 3)); // different portable
        let (next, n, total) = h.most_common_next(|e| e.portable == PortableId(1)).unwrap();
        assert_eq!(next, CellId(2));
        assert_eq!(n, 2);
        assert_eq!(total, 3);
        assert!(h
            .most_common_next(|e| e.portable == PortableId(9))
            .is_none());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut h = HandoffHistory::new(10);
        h.record(ev(1, None, 1, 5));
        h.record(ev(1, None, 1, 3));
        // Equal counts: the smaller cell id wins (reverse-id tiebreak).
        let (next, _, _) = h.most_common_next(|_| true).unwrap();
        assert_eq!(next, CellId(3));
    }

    /// The tree writer's text over `to_value()`: the oracle.
    fn tree_text(h: &HandoffHistory) -> String {
        let mut out = JsonWriter::new();
        h.to_value().write_json(&mut out);
        out.into_string()
    }

    fn text(h: &HandoffHistory) -> String {
        let mut out = JsonWriter::new();
        h.write_json(&mut out);
        out.into_string()
    }

    fn decode(text: &str) -> Result<HandoffHistory, serde::Error> {
        let mut r = serde::JsonReader::new(text);
        let h = HandoffHistory::read_json(&mut r)?;
        r.finish().map(|()| h)
    }

    /// A row's text decoded by the one-pass reader, by the derived codec
    /// it falls back to, and through the tree: each the event, or the
    /// error's text.
    fn three_ways(text: &str) -> [Result<HandoffEvent, String>; 3] {
        let read = |f: fn(&mut serde::JsonReader<'_>) -> Result<HandoffEvent, serde::Error>| {
            let mut r = serde::JsonReader::new(text);
            f(&mut r)
                .and_then(|ev| r.finish().map(|()| ev))
                .map_err(|e| e.to_string())
        };
        let mut r = serde::JsonReader::new(text);
        let tree = r
            .value()
            .and_then(|v| r.finish().map(|()| v))
            .and_then(|v| HandoffEvent::from_value(&v))
            .map_err(|e| e.to_string());
        [
            read(HandoffEvent::read_json),
            read(|r| wire::HandoffEvent::read_json(r).map(HandoffEvent::from)),
            tree,
        ]
    }

    /// The one pass reads a subset of the spellings the derived codec
    /// reads, into the same values; everywhere else the codec answers,
    /// so every route gives the same event or the same error text.
    #[test]
    fn every_row_spelling_decodes_as_the_tree_decodes_it() {
        let at = |t: u64| SimTime::from_ticks(t);
        let row = |p, prev: Option<u32>, t| HandoffEvent {
            time: at(t),
            ..ev(p, prev, 2, 3)
        };
        let table: &[(&str, Result<HandoffEvent, &str>)] = &[
            ("[1,null,2,3,4]", Ok(row(1, None, 4))),
            (
                "[1,0,2,3,18446744073709551615]",
                Ok(row(1, Some(0), u64::MAX)),
            ),
            (
                "[4294967295,4294967295,2,3,4]",
                Ok(row(u32::MAX, Some(u32::MAX), 4)),
            ),
            ("[1, null,2,3,4]", Ok(row(1, None, 4))),
            (" [ 1 ,null ,2,3,4 ] ", Ok(row(1, None, 4))),
            ("[-0,null,2,3,4]", Ok(row(0, None, 4))),
            ("[01,null,2,3,04]", Ok(row(1, None, 4))),
            ("[1.0,null,2,3,4]", Ok(row(1, None, 4))),
            ("[1,null,2,3,4e0]", Ok(row(1, None, 4))),
            ("[1,null,2,3,1E1]", Ok(row(1, None, 10))),
            // 2^64 is a float on every route, and saturates into a u64.
            (
                "[1,null,2,3,18446744073709551616]",
                Ok(row(1, None, u64::MAX)),
            ),
            ("[-1,null,2,3,4]", Err("expected u32, got Int(-1)")),
            ("[1,null,2,3,-4]", Err("expected u64, got Int(-4)")),
            ("[1.5,null,2,3,4]", Err("expected u32, got Float(1.5)")),
            (
                "[4294967296,null,2,3,4]",
                Err("u32 out of range: 4294967296"),
            ),
            ("[1,4294967296,2,3,4]", Err("u32 out of range: 4294967296")),
            (
                "[1,null,2,3,184467440737095516160]",
                Err("expected u64, got Float("),
            ),
            ("[null,null,2,3,4]", Err("expected u32, got Null")),
            ("[1,null,null,3,4]", Err("expected u32, got Null")),
            ("[1,null,2,null,4]", Err("expected u32, got Null")),
            ("[1,null,2,3,null]", Err("expected u64, got Null")),
            (
                "[1,null,2,3]",
                Err("HandoffEvent: expected 5-element array"),
            ),
            (
                "[1,null,2,3,4,5]",
                Err("HandoffEvent: expected 5-element array"),
            ),
            ("[1,[],2,3,4]", Err("expected u32, got Array([])")),
            ("[1,null,2,3,4", Err("expected `,` or `]` at byte 13")),
            ("[1,null,2,3,", Err("unexpected character at byte 12")),
            ("[1,nul,2,3,4]", Err("unexpected character at byte 3")),
            ("{}", Err("HandoffEvent: expected 5-element array")),
        ];
        for (text, want) in table {
            let [fast, derived, tree] = three_ways(text);
            assert_eq!(fast, derived, "{text}");
            assert_eq!(fast, tree, "{text}");
            match want {
                Ok(ev) => assert_eq!(fast.as_ref(), Ok(ev), "{text}"),
                Err(why) => {
                    let err = fast.as_ref().err().map(String::as_str).unwrap_or_default();
                    assert!(err.contains(why), "{text}: {err}");
                }
            }
        }

        // A row as the 128th bracket is read; as the 129th it is refused
        // with the tree's text.
        for open in [serde::json::MAX_DEPTH - 1, serde::json::MAX_DEPTH] {
            let text = format!("{}[1,null,2,3,4]{}", "[".repeat(open), "]".repeat(open));
            let fast =
                |decode: fn(&mut serde::JsonReader<'_>) -> Result<HandoffEvent, serde::Error>| {
                    let mut r = serde::JsonReader::new(&text);
                    for _ in 0..open {
                        assert_eq!(r.begin_array(), Ok(true));
                    }
                    decode(&mut r).map_err(|e| e.to_string())
                };
            let mut tree = serde::JsonReader::new(&text)
                .value()
                .map_err(|e| e.to_string());
            for _ in 0..open {
                tree = tree.map(|v| v.as_array().expect("nested")[0].clone());
            }
            let tree = tree.and_then(|v| HandoffEvent::from_value(&v).map_err(|e| e.to_string()));
            let got = fast(HandoffEvent::read_json);
            assert_eq!(
                got,
                fast(|r| wire::HandoffEvent::read_json(r).map(HandoffEvent::from))
            );
            assert_eq!(got, tree, "{open}");
            if open < serde::json::MAX_DEPTH {
                assert_eq!(got, Ok(row(1, None, 4)));
            } else {
                assert_eq!(got, Err(format!("nesting deeper than 128 at byte {open}")));
            }
        }
    }

    /// A ring decoded with its `cap` first is sized as `new` sizes one,
    /// so the first `record` after a restore does not grow it; one whose
    /// `events` come first decodes as any `VecDeque` does. Either way it
    /// is the same history.
    #[test]
    fn a_decoded_ring_is_sized_from_its_cap() {
        // Four rows: what a `Vec` grown row by row holds with no room left.
        let rows = "[[1,null,2,3,4],[1,2,3,4,5],[1,3,4,5,6],[1,4,5,6,7]]";
        for (doc, sized) in [
            (
                format!(r#"{{"cap":500,"events":{rows},"total_recorded":9}}"#),
                true,
            ),
            (
                format!(r#"{{"events":{rows},"cap":500,"total_recorded":9}}"#),
                false,
            ),
            (
                format!(r#"{{"cap":5000,"events":{rows},"total_recorded":9}}"#),
                true,
            ),
        ] {
            let mut h = decode(&doc).expect("decodes");
            assert_eq!(text(&h), tree_text(&h));
            let reserved = h.events.capacity();
            if sized {
                assert!(reserved >= h.cap.min(1024), "{doc}: {reserved}");
            }
            h.record(ev(1, Some(3), 4, 5));
            assert_eq!(h.events.capacity() == reserved, sized, "{doc}");
        }
    }

    #[test]
    fn a_handoff_is_a_row() {
        let mut h = HandoffHistory::new(3);
        h.record(ev(4, None, 1, 2));
        h.record(ev(4, Some(1), 2, 3));
        let want = r#"{"cap":3,"events":[[4,null,1,2,0],[4,1,2,3,0]],"total_recorded":2}"#;
        assert_eq!(tree_text(&h), want);
        assert_eq!(text(&h), want);
        h.cache_rows();
        assert_eq!(text(&h), want);
    }

    #[test]
    fn a_document_outside_the_bounds_is_refused() {
        let row = "[1,null,2,3,4]";
        for (doc, why) in [
            (
                r#"{"cap":0,"events":[],"total_recorded":0}"#.to_string(),
                "cap must be positive",
            ),
            (
                format!(r#"{{"cap":1,"events":[{row},{row}],"total_recorded":2}}"#),
                "2 events exceed cap 1",
            ),
            (
                format!(r#"{{"cap":2,"events":[{row},{row}],"total_recorded":1}}"#),
                "total_recorded 1 is below the 2 events retained",
            ),
        ] {
            let err = decode(&doc)
                .err()
                .map(|e| e.to_string())
                .unwrap_or_default();
            assert!(err.contains(why), "{doc}: {err}");
            let tree: serde::Value = serde::JsonReader::new(&doc).value().expect("well-formed");
            assert!(HandoffHistory::from_value(&tree).is_err(), "{doc}");
        }
        assert!(decode(r#"{"cap":2,"events":[[1,null,2,3,4]],"total_recorded":9}"#).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Rows spelt every way a hand or a hostile author might — each
        /// slot any magnitude, in or out of its type's range, canonical or
        /// not, four to six of them — decode by the one pass exactly as
        /// by the derived codec (the same event or the same error text),
        /// and to the same event as through the tree, or are refused by
        /// both. (Their error texts may differ: on a row of the wrong
        /// length with a bad slot, or a malformed one with a mistyped
        /// slot, the tree reports what it meets first, the typed read
        /// what it does.) About one row in twelve is canonical and in
        /// range, so the one pass reads it; one in ten is accepted.
        #[test]
        fn row_spellings_decode_alike(
            // (value, shift: the slot's number is `value >> shift`, so
            //  every magnitude comes up; spelling: 0–8 not canonical,
            //  9–23 a small number, 24–31 the number itself)
            slots in proptest::collection::vec((0u64..u64::MAX, 0u32..64, 0u8..32), 6),
            // (0: four slots, 1: six, else five; where a space goes, if
            //  anywhere; 0: unterminated)
            (arity, space, close) in (0u8..8, 0usize..160, 0u8..16),
        ) {
            let arity = match arity {
                0 => 4,
                1 => 6,
                _ => 5,
            };
            let mut text = String::from("[");
            for (i, (value, shift, spelling)) in slots.iter().take(arity).enumerate() {
                if i > 0 {
                    text.push(',');
                }
                let v = value >> shift;
                text.push_str(&match spelling {
                    0 => "null".to_string(),
                    1 => format!("-{v}"),
                    2 => format!("0{v}"),
                    3 => format!("{v}.0"),
                    4 => format!("{v}e0"),
                    5 => format!("{v}0000000000"),
                    6 => format!("\"{v}\""),
                    7 => format!("[{v}]"),
                    8 => "null".to_string(),
                    9..=23 => (v % 1000).to_string(),
                    _ => v.to_string(),
                });
            }
            if close > 0 {
                text.push(']');
            }
            if space < text.len() {
                text.insert(space, ' ');
            }
            let [fast, derived, tree] = three_ways(&text);
            proptest::prop_assert_eq!(&fast, &derived, "{}", text);
            if fast.is_ok() || tree.is_ok() {
                proptest::prop_assert_eq!(&fast, &tree, "{}", text);
            }
        }
    }

    proptest::proptest! {
        /// Whatever interleaving of records, row caching, clones and
        /// round trips a history sees, its text is the tree writer's over
        /// its events, and a cold copy's (one that has cached nothing).
        #[test]
        fn cached_text_equals_the_tree(
            cap in 1usize..7,
            // (step: 0–3 record, 4–5 cache, 6 clone, 7 round trip;
            //  portable; prev: 0 = unknown, else cell prev-1; cur; next; time)
            steps in proptest::collection::vec(
                (0u8..8, 0u32..3, 0u32..4, 0u32..3, 0u32..3, 0u64..1_000_000_000_000),
                0..60,
            ),
        ) {
            let mut h = HandoffHistory::new(cap);
            for (step, p, prev, cur, next, t) in steps {
                match step {
                    0..=3 => {
                        h.record(HandoffEvent {
                            portable: PortableId(p),
                            prev: prev.checked_sub(1).map(CellId),
                            cur: CellId(cur),
                            next: CellId(next),
                            time: SimTime::from_ticks(t),
                        });
                    }
                    4 | 5 => h.cache_rows(),
                    6 => h = h.clone(),
                    _ => h = decode(&text(&h)).expect("decodes"),
                }
                let warm = text(&h);
                proptest::prop_assert_eq!(&warm, &tree_text(&h));
                let cold = HandoffHistory::from_value(&h.to_value()).expect("decodes");
                proptest::prop_assert_eq!(cold.rows.len(), 0);
                proptest::prop_assert_eq!(&warm, &text(&cold));
                proptest::prop_assert!(h.rows.len() <= h.len());
                let live: usize = h.rows.lens.iter().map(|n| usize::from(*n)).sum();
                proptest::prop_assert_eq!(live, h.rows.text.len() - h.rows.start);
            }
        }

        /// Over any record sequence on a small cap (so eviction runs),
        /// the tallies answer what a recount of the retained events
        /// answers, hold no zero, and are rebuilt — not read — on decode.
        #[test]
        fn tallies_equal_a_recount(
            cap in 1usize..7,
            // (prev: 0 = unknown, else cell prev-1; next)
            moves in proptest::collection::vec((0u32..4, 0u32..4), 0..40),
        ) {
            let mut h = CountedHistory::new(cap);
            for (i, (prev, next)) in moves.into_iter().enumerate() {
                h.record(ev(i as u32, prev.checked_sub(1), 9, next));
                let recount = |keep: &dyn Fn(&HandoffEvent) -> bool| {
                    let mut m: BTreeMap<CellId, usize> = BTreeMap::new();
                    for e in h.history().events().filter(|e| keep(e)) {
                        *m.entry(e.next).or_insert(0) += 1;
                    }
                    m
                };
                proptest::prop_assert_eq!(
                    h.next_counts().collect::<BTreeMap<_, _>>(),
                    recount(&|_| true)
                );
                proptest::prop_assert_eq!(
                    h.most_common_next(),
                    h.history().most_common_next(|_| true)
                );
                for prev in [None, Some(0), Some(1), Some(2), Some(7)].map(|p| p.map(CellId)) {
                    proptest::prop_assert_eq!(
                        h.next_counts_after(prev).collect::<BTreeMap<_, _>>(),
                        recount(&|e| e.prev == prev)
                    );
                    proptest::prop_assert_eq!(
                        h.most_common_next_after(prev),
                        h.history().most_common_next(|e| e.prev == prev)
                    );
                }
                proptest::prop_assert!(h.by_prev.values().chain(h.by_next.values()).all(|n| *n > 0));
                proptest::prop_assert_eq!(h.by_next.values().sum::<usize>(), h.history().len());

                // The encoding is the FIFO's alone, and survives a round trip.
                let doc = h.to_value();
                proptest::prop_assert_eq!(&doc, &h.history().to_value());
                let back = CountedHistory::from_value(&doc).expect("decodes");
                proptest::prop_assert_eq!(&back.by_prev, &h.by_prev);
                proptest::prop_assert_eq!(&back.by_next, &h.by_next);
                proptest::prop_assert_eq!(&back.to_value(), &doc);
                // Tallies smuggled into the document are not believed.
                let serde::Value::Object(mut fields) = doc else {
                    panic!("a history encodes as an object");
                };
                let forged: BTreeMap<CellId, usize> = [(CellId(3), 99)].into();
                fields.push(("by_next".to_string(), forged.to_value()));
                fields.push(("by_prev".to_string(), serde::Value::Null));
                let back = CountedHistory::from_value(&serde::Value::Object(fields)).expect("decodes");
                proptest::prop_assert_eq!(&back.by_prev, &h.by_prev);
                proptest::prop_assert_eq!(&back.by_next, &h.by_next);
            }
        }
    }
}
