//! One change log: which ids changed since a reader last looked.
//!
//! Every walk that costs what changed rather than what exists (the claim
//! refresh, the adaptation round, the apply step, the `B_dyn` folds) reads
//! one [`ChangeLog`] per kind of change (DESIGN §7). A writer
//! [`log`](ChangeLog::log)s an id; each of the log's `R` readers
//! [`read`](ChangeLog::read)s the ids logged since its own last read,
//! ascending and each once, and an `all` bit that says "everything counts
//! as changed". That bit is set for every reader when the log is built,
//! decoded (a decoded owner builds a new one) or cloned, and by
//! [`set_all`](ChangeLog::set_all); a reader that never read holds no
//! entries and its first read says `all`.
//!
//! Two cadences share the type. A log with one reader is drained: the
//! read hands its buffer over and keeps nothing. A log with two readers
//! keeps each entry until both have passed it, so a reader that reads
//! rarely (the adaptation round) sees every id logged since its cursor
//! while the other (the refresh) reads at every event. A *dense* log
//! also stamps each id with the epoch of its last log, so a reader that
//! asks about one id at a time keeps a stamp per id instead of a cursor
//! (a dispatch memo, a lounge spread) and compares it with
//! [`epoch`](ChangeLog::epoch).

/// What a [`ChangeLog`] was told and what it handed out since it was
/// built, decoded or cloned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Ids logged, repeats included.
    pub logged: u64,
    /// Ids handed to readers, summed over reads and readers.
    pub drained: u64,
    /// Logged ids no read handed out on their own: repeats folded into
    /// an id already held, and ids logged while no reader held entries
    /// (its next read says `all`).
    pub absorbed: u64,
}

/// One reader's position.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    /// The entries before this one are read; `None` before the first
    /// read, while the reader holds no entry.
    at: Option<usize>,
    /// Everything counts as changed at the next read.
    all: bool,
}

const FRESH: Cursor = Cursor {
    at: None,
    all: true,
};

/// Ids that changed, for `R` readers each with its own cursor (the
/// module doc has the contract).
#[derive(Debug)]
pub struct ChangeLog<I, const R: usize = 1> {
    /// Entries not yet read by every reader that holds entries, in the
    /// order logged. A sparse log may hold an id more than once.
    ids: Vec<I>,
    /// Dense log: per id slot, the epoch of its last log (0: never).
    /// Empty for a sparse log.
    stamps: Vec<u64>,
    /// Ids logged so far: the epoch of the last log.
    epoch: u64,
    /// `epoch` at the last read by any reader: a dense id stamped after
    /// it is already held past every cursor.
    read_at: u64,
    readers: [Cursor; R],
    traffic: Traffic,
}

/// A copy is a new log to every reader: it holds nothing and says
/// `all`. Epochs carry over, so a stamp taken from the original still
/// compares.
impl<I: Copy + Ord + Into<usize>, const R: usize> Clone for ChangeLog<I, R> {
    fn clone(&self) -> Self {
        ChangeLog {
            ids: Vec::new(),
            stamps: self.stamps.clone(),
            epoch: self.epoch,
            read_at: self.epoch,
            readers: [FRESH; R],
            traffic: Traffic::default(),
        }
    }
}

/// An empty sparse log.
impl<I: Copy + Ord + Into<usize>, const R: usize> Default for ChangeLog<I, R> {
    fn default() -> Self {
        Self::sparse()
    }
}

impl<I: Copy + Ord + Into<usize>, const R: usize> ChangeLog<I, R> {
    /// A sparse log: it keeps no table per id, and folds repeats when it
    /// fills and at each read.
    pub fn sparse() -> Self {
        Self::dense(0)
    }

    /// A dense log over the ids `0..ids`: it logs an id at most once
    /// between reads and keeps every id's [`epoch`](Self::epoch). For ids
    /// the process issues densely (`CellId`, `LinkId`, `ConnId`), never
    /// for a `PortableId`: that is whatever an input line names (any
    /// `u32`), so no table is sized from one.
    pub fn dense(ids: usize) -> Self {
        ChangeLog {
            ids: Vec::new(),
            stamps: vec![0; ids],
            epoch: 0,
            read_at: 0,
            readers: [FRESH; R],
            traffic: Traffic::default(),
        }
    }

    /// Record that `id` changed.
    pub fn log(&mut self, id: I) {
        self.traffic.logged += 1;
        self.epoch += 1;
        let held_before = !self.stamps.is_empty()
            && std::mem::replace(&mut self.stamps[id.into()], self.epoch) > self.read_at;
        if held_before || self.readers.iter().all(|r| r.at.is_none()) {
            self.traffic.absorbed += 1;
            return;
        }
        if self.ids.len() == self.ids.capacity() && self.stamps.is_empty() {
            self.compact();
        }
        self.ids.push(id);
    }

    /// Every reader's next read says `all`.
    pub fn set_all(&mut self) {
        for r in &mut self.readers {
            r.all = true;
        }
    }

    /// Hand `reader` the ids logged since its last read, ascending and
    /// each once, in `into` (its old contents dropped). True if
    /// everything counts as changed for it: the log was built, decoded or
    /// cloned, or [`set_all`](Self::set_all) was called, since its last
    /// read, or it never read. A log with one reader hands its buffer
    /// over: the two trade places, so neither allocates in steady state.
    pub fn read(&mut self, reader: usize, into: &mut Vec<I>) -> bool {
        into.clear();
        self.read_at = self.epoch;
        let Cursor { at, all } = std::mem::replace(&mut self.readers[reader], FRESH);
        match at {
            Some(_) if R == 1 => std::mem::swap(into, &mut self.ids),
            Some(from) => into.extend_from_slice(&self.ids[from..]),
            None => {}
        }
        self.readers[reader] = Cursor {
            at: Some(self.ids.len()),
            all: false,
        };
        let n = into.len();
        into.sort_unstable();
        into.dedup();
        self.traffic.absorbed += (n - into.len()) as u64;
        self.traffic.drained += into.len() as u64;
        self.trim();
        all
    }

    /// Drop the entries every reader that holds entries has read.
    fn trim(&mut self) {
        let held = self.readers.iter().filter_map(|r| r.at).min();
        let done = held.unwrap_or(self.ids.len()).min(self.ids.len());
        if done > 0 {
            self.ids.drain(..done);
            for at in self.readers.iter_mut().filter_map(|r| r.at.as_mut()) {
                *at -= done;
            }
        }
    }

    /// Fold repeats out of each stretch between cursors, so that a log
    /// no reader drains for a while stays within twice the distinct ids
    /// logged in it.
    fn compact(&mut self) {
        let len = self.ids.len();
        let (mut from, mut kept) = (0, 0);
        while from < len {
            let to = self
                .readers
                .iter()
                .filter_map(|r| r.at)
                .filter(|&at| at > from)
                .min()
                .unwrap_or(len);
            self.ids[from..to].sort_unstable();
            let mut last = None;
            for k in from..to {
                let id = self.ids[k];
                if last != Some(id) {
                    self.ids[kept] = id;
                    kept += 1;
                    last = Some(id);
                }
            }
            for at in self.readers.iter_mut().filter_map(|r| r.at.as_mut()) {
                if *at == to {
                    *at = kept;
                }
            }
            from = to;
        }
        self.traffic.absorbed += (len - kept) as u64;
        self.ids.truncate(kept);
    }

    /// The epoch of `id`'s last log (0 if never): it moves exactly when
    /// `id` is logged. A dense log's only; a sparse log keeps none.
    pub fn epoch(&self, id: I) -> u64 {
        self.stamps[id.into()]
    }

    /// The entries some reader has not read yet, in the order logged.
    pub fn held(&self) -> &[I] {
        &self.ids
    }

    /// What the log was told and handed out.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }
}
