//! Dense-index arenas for the hot path.
//!
//! The solver kernels and control-plane paths want flat `Vec`s indexed
//! by small dense integers, but the system's external identifiers
//! ([`LinkId`](crate::ids::LinkId), [`ConnId`](crate::ids::ConnId)) are
//! sparse from any one engine's point of view: ids are never reused, so a
//! long-running manager's live connections are a thin slice of the ids
//! it has handed out. The [`DenseInterner`] bridges the two worlds: it
//! interns external ids into dense `u32` *slots* with stable free-list
//! reuse, so per-slot state can live in parallel `Vec`s that are touched
//! with plain indexing instead of `BTreeMap` walks.
//!
//! ## Determinism contract
//!
//! * Slot assignment depends only on the *sequence* of
//!   [`intern`](DenseInterner::intern)/[`release`](DenseInterner::release)
//!   calls: fresh slots are handed out in increasing order and retired
//!   slots are reused lowest-first. Two engines fed the same call
//!   sequence assign identical slots.
//! * Iteration ([`iter`](DenseInterner::iter)) is in ascending
//!   *external* id order — never slot order — so float summation
//!   sequences keyed on iteration stay independent of interning history.
//! * A released slot's external mapping dies with it: re-interning the
//!   same external id later may land on any free slot, and a recycled
//!   slot never aliases live state (checked by the arena property
//!   tests).
//!
//! Slot numbers never reach a snapshot: the one resident holder of an
//! interner, the maxmin engine, is a cache outside every persistent
//! format and starts empty after a restore — see DESIGN.md §14.2.

use std::collections::{BTreeMap, BTreeSet};

/// Insert `x` into the ascending `set`; false, and nothing changed,
/// when it is already there.
pub fn sorted_insert<T: Ord>(set: &mut Vec<T>, x: T) -> bool {
    let at = set.binary_search(&x);
    if let Err(at) = at {
        set.insert(at, x);
    }
    at.is_err()
}

/// Remove `x` from the ascending `set`; false, and nothing changed, when
/// it is not there.
pub fn sorted_remove<T: Ord>(set: &mut Vec<T>, x: &T) -> bool {
    let at = set.binary_search(x);
    if let Ok(at) = at {
        set.remove(at);
    }
    at.is_ok()
}

/// An id ↔ dense-slot interner with stable free-list reuse.
///
/// Not serialized anywhere: persistent formats keep external ids, and
/// the engine that owns an interner is rebuilt from the network by its
/// first round after a restore.
#[derive(Clone, Debug)]
pub struct DenseInterner<I: Copy + Ord + core::fmt::Debug> {
    /// External → slot. Ordered, so [`Self::iter`] walks external order.
    fwd: BTreeMap<I, u32>,
    /// Slot → external. Only meaningful for live slots.
    rev: Vec<I>,
    /// Slot liveness (false = retired, awaiting reuse).
    live: Vec<bool>,
    /// Retired slots; reused lowest-first for determinism.
    free: BTreeSet<u32>,
}

// Manual impl: the derive would demand `I: Default`, which the id
// newtypes deliberately do not implement.
impl<I: Copy + Ord + core::fmt::Debug> Default for DenseInterner<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Copy + Ord + core::fmt::Debug> DenseInterner<I> {
    /// An empty interner.
    pub fn new() -> Self {
        DenseInterner {
            fwd: BTreeMap::new(),
            rev: Vec::new(),
            live: Vec::new(),
            free: BTreeSet::new(),
        }
    }

    /// The dense slot for `id`, allocating one (lowest retired slot
    /// first, then a fresh slot) if the id is not interned yet.
    pub fn intern(&mut self, id: I) -> u32 {
        if let Some(s) = self.fwd.get(&id) {
            return *s;
        }
        let slot = match self.free.pop_first() {
            Some(s) => {
                self.rev[s as usize] = id;
                self.live[s as usize] = true;
                s
            }
            None => {
                #[expect(clippy::panic, reason = "invariant: arena slot overflow")]
                let s = u32::try_from(self.rev.len()).unwrap_or_else(|_| {
                    panic!("invariant: arena slot overflow");
                });
                self.rev.push(id);
                self.live.push(true);
                s
            }
        };
        self.fwd.insert(id, slot);
        slot
    }

    /// The dense slot for `id`, if interned.
    #[inline]
    pub fn get(&self, id: I) -> Option<u32> {
        self.fwd.get(&id).copied()
    }

    /// The external id occupying `slot`. Panics on a retired or
    /// out-of-range slot — callers index with slots they own.
    #[inline]
    pub fn external(&self, slot: u32) -> I {
        debug_assert!(
            self.live.get(slot as usize).copied().unwrap_or(false),
            "external() on dead slot {slot}"
        );
        self.rev[slot as usize]
    }

    /// Is `slot` currently assigned?
    #[inline]
    pub fn is_live(&self, slot: u32) -> bool {
        self.live.get(slot as usize).copied().unwrap_or(false)
    }

    /// Retire `id`, returning its freed slot. The slot goes onto the
    /// free list and may be handed to a *different* id later.
    pub fn release(&mut self, id: I) -> Option<u32> {
        let slot = self.fwd.remove(&id)?;
        self.live[slot as usize] = false;
        self.free.insert(slot);
        Some(slot)
    }

    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.fwd.len()
    }

    /// True when no id is interned.
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }

    /// Total slots ever allocated (live + retired). Parallel `Vec`s
    /// sized to this are indexable by every slot the interner can hand
    /// out without further bounds growth.
    pub fn slot_count(&self) -> usize {
        self.rev.len()
    }

    /// The largest live id, if any.
    pub fn last(&self) -> Option<I> {
        self.fwd.last_key_value().map(|(k, _)| *k)
    }

    /// Live `(external, slot)` pairs in ascending external order.
    pub fn iter(&self) -> impl Iterator<Item = (I, u32)> + '_ {
        self.fwd.iter().map(|(k, v)| (*k, *v))
    }

    /// Drop all ids and retire all slots, keeping allocated capacity.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.fwd.clear();
        self.rev.clear();
        self.live.clear();
        self.free.clear();
    }

    /// Internal-consistency check for tests: forward and reverse
    /// mappings agree, free list and liveness agree, slots are unique.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.rev.len() != self.live.len() {
            return Err("rev/live length mismatch".to_string());
        }
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        for (id, slot) in &self.fwd {
            if !seen.insert(*slot) {
                return Err(format!("slot {slot} assigned twice"));
            }
            if !self.live.get(*slot as usize).copied().unwrap_or(false) {
                return Err(format!("{id:?} maps to dead slot {slot}"));
            }
            if self.rev[*slot as usize] != *id {
                return Err(format!(
                    "rev[{slot}] = {:?} but fwd says {id:?}",
                    self.rev[*slot as usize]
                ));
            }
            if self.free.contains(slot) {
                return Err(format!("live slot {slot} on the free list"));
            }
        }
        for s in &self.free {
            if self.live.get(*s as usize).copied().unwrap_or(true) {
                return Err(format!("free slot {s} marked live"));
            }
        }
        let dead = (0..self.rev.len() as u32)
            .filter(|s| !self.live[*s as usize])
            .count();
        if dead != self.free.len() {
            return Err(format!(
                "{dead} dead slots but {} on the free list",
                self.free.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConnId;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut a: DenseInterner<ConnId> = DenseInterner::new();
        assert_eq!(a.intern(ConnId(40)), 0);
        assert_eq!(a.intern(ConnId(7)), 1);
        assert_eq!(a.intern(ConnId(40)), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.external(0), ConnId(40));
        assert_eq!(a.get(ConnId(7)), Some(1));
        assert_eq!(a.get(ConnId(8)), None);
        a.check_invariants().unwrap();
    }

    #[test]
    fn release_recycles_lowest_slot_first() {
        let mut a: DenseInterner<ConnId> = DenseInterner::new();
        for i in 0..4 {
            a.intern(ConnId(i));
        }
        assert_eq!(a.release(ConnId(2)), Some(2));
        assert_eq!(a.release(ConnId(0)), Some(0));
        assert_eq!(a.release(ConnId(0)), None, "double release is a no-op");
        // Lowest retired slot is reused first.
        assert_eq!(a.intern(ConnId(99)), 0);
        assert_eq!(a.intern(ConnId(100)), 2);
        // Exhausted free list grows fresh slots again.
        assert_eq!(a.intern(ConnId(101)), 4);
        assert_eq!(a.slot_count(), 5);
        a.check_invariants().unwrap();
    }

    #[test]
    fn iteration_is_external_order_not_slot_order() {
        let mut a: DenseInterner<ConnId> = DenseInterner::new();
        a.intern(ConnId(9)); // slot 0
        a.intern(ConnId(1)); // slot 1
        a.intern(ConnId(5)); // slot 2
        let order: Vec<(ConnId, u32)> = a.iter().collect();
        assert_eq!(order, vec![(ConnId(1), 1), (ConnId(5), 2), (ConnId(9), 0)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut a: DenseInterner<ConnId> = DenseInterner::new();
        a.intern(ConnId(1));
        a.release(ConnId(1));
        a.intern(ConnId(2));
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.slot_count(), 0);
        assert_eq!(a.intern(ConnId(3)), 0);
        a.check_invariants().unwrap();
    }
}
