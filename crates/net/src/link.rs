//! Per-link reservation ledgers.
//!
//! A [`LinkState`] tracks, for one capacity resource `l`:
//!
//! * the link speed `C_l`,
//! * **allocations** for ongoing connections: each connection `i` holds a
//!   guaranteed floor `b_min,i` and a current allocation
//!   `b_alloc,i ∈ [b_min,i, b_max,i]` (the upper bound is enforced by the
//!   caller, which knows the QoS request),
//! * **advance reservations** `b_resv,l`: bandwidth set aside for predicted
//!   handoffs. Claims are named — per-connection claims for
//!   profile-predicted handoffs, per-cell aggregate claims from the lounge
//!   algorithms, and the dynamically adjustable pool `B_dyn` of §4.3 —
//!   so each reservation algorithm can adjust its own claims without
//!   trampling the others,
//! * **buffer space** allocations (Table 2's buffer column).
//!
//! The paper's central quantity, the *excess available bandwidth*
//! `b'_av,l := C_l − b_resv,l − Σ_i b_min,i` (§5.2), falls directly out of
//! the ledger.
//!
//! ## Feasibility invariant
//!
//! `Σ_i b_alloc,i + b_resv,l ≤ C_l` at all times (checked in debug builds
//! and by `check_invariants`). Operations that would violate it fail with
//! [`LedgerError`] instead of silently overcommitting.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::ids::{CellId, ConnId};

/// Who owns an advance-reservation claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResvClaim {
    /// Profile-predicted handoff of one specific connection.
    Conn(ConnId),
    /// An aggregate claim made on behalf of cell `c`'s reservation
    /// policy: a lounge algorithm (meeting room rule (a) on `c`'s own
    /// link, rule (b) / cafeteria / default on its neighbours' links),
    /// the stale-profile even spread, or the aggregate and
    /// static-fraction strategies. Written only by the manager's claim
    /// refresh; a handoff into or out of `c` may draw it down.
    Cell(CellId),
    /// The dynamically adjustable pool `B_dyn` for unforeseen events
    /// (sudden movement of static portables), §4.3.
    DynPool,
    /// Capacity currently lost to wireless channel error — the paper's
    /// "time-varying effective capacity of the wireless link". Installed
    /// by the channel monitor; not consumable by handoffs.
    Channel,
    /// Capacity made unavailable by an injected link failure. Installed
    /// by the resource manager's fault path (sized to the full link
    /// speed; `set_claim` caps it to whatever headroom exists) so a dead
    /// link admits nothing new; not consumable by handoffs and preserved
    /// across claim refreshes until the link is restored.
    Outage,
}

/// One connection's slice of the link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alloc {
    /// Guaranteed floor `b_min` (kbps).
    pub b_min: f64,
    /// Current allocation (kbps), `≥ b_min`.
    pub b_alloc: f64,
    /// Reserved buffer space (kilobits).
    pub buffer: f64,
}

/// Ledger operation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// The operation would overcommit the link (`Σ b_alloc + b_resv > C`).
    Overcommitted,
    /// The connection is not allocated on this link.
    UnknownConn,
    /// The connection is already allocated on this link.
    DuplicateConn,
    /// An allocation below the connection's floor was requested.
    BelowFloor,
    /// Buffer pool exhausted.
    BufferExhausted,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Overcommitted => write!(f, "link would be overcommitted"),
            LedgerError::UnknownConn => write!(f, "connection not allocated on link"),
            LedgerError::DuplicateConn => write!(f, "connection already allocated on link"),
            LedgerError::BelowFloor => write!(f, "allocation below b_min"),
            LedgerError::BufferExhausted => write!(f, "buffer pool exhausted"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Where a ledger stands in its history of writes
/// ([`LinkState::revision`]). Two readings are equal only if they were
/// taken of the same ledger with no write between them: every ledger —
/// built, decoded or cloned — starts a lineage no other ledger in the
/// process shares, and every write counts one more within it. A ledger
/// swapped in under a reader that kept a reading therefore never
/// matches that reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Revision {
    lineage: u64,
    writes: u64,
}

impl Revision {
    /// The start of a lineage no other ledger has.
    fn fresh() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(0);
        Revision {
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            writes: 0,
        }
    }
}

/// Reservation and allocation state of one link.
///
/// Both tables are flat `Vec`s sorted by key — allocations by `ConnId`,
/// advance claims by `ResvClaim` — with binary-searched lookups and
/// in-place inserts/removals that reuse capacity, so neither the
/// steady-state admission round trip nor a claim refresh allocates. Each
/// iterates (and serializes) in the same ascending order as the
/// `BTreeMap` it replaced.
///
/// Every `&mut self` method moves the [`revision`](Self::revision) —
/// failed operations too — so a reader that saw revision `r` knows the
/// ledger has not been written since if it still reads `r`. The revision
/// is not serialised: a decoded ledger, like a built or cloned one,
/// starts a [`Revision`] lineage of its own.
#[derive(Debug)]
pub struct LinkState {
    capacity: f64,
    buffer_capacity: f64,
    allocs: Vec<(ConnId, Alloc)>,
    advance: Vec<(ResvClaim, f64)>,
    sum_b_min: f64,
    sum_b_alloc: f64,
    sum_resv: f64,
    sum_buffer: f64,
    rev: Revision,
}

/// A copy with the same bits and a lineage of its own, so that it can
/// never be taken for the original at a reading of the original's.
impl Clone for LinkState {
    fn clone(&self) -> Self {
        LinkState {
            allocs: self.allocs.clone(),
            advance: self.advance.clone(),
            rev: Revision::fresh(),
            ..*self
        }
    }
}

// Snapshot support. Manual impls because `buffer_capacity` defaults to
// `f64::INFINITY` ("effectively unlimited pool"), and the vendored JSON
// writer lowers non-finite floats to `null` — which a derived `f64`
// deserializer would reject. The unlimited pool is therefore encoded
// explicitly as `null` and restored as `INFINITY`, keeping the
// serialize → deserialize → re-serialize cycle byte-identical.
//
// The two sorted-`Vec` tables serialize exactly like the `BTreeMap`s
// they replaced: the vendored serde encodes maps as arrays of
// `[key, value]` pairs and tuples as arrays, and each table is kept
// ascending by key — so snapshot bytes and the committed schema
// fingerprints are unchanged. Deserialize re-sorts the allocations
// defensively and reads the claims through a map, so a hand-edited
// snapshot cannot smuggle in an unordered table, and duplicate claim
// keys resolve as a map resolves them (the last one wins).
impl Serialize for LinkState {
    fn to_value(&self) -> serde::Value {
        let buffer_capacity = if self.buffer_capacity.is_finite() {
            self.buffer_capacity.to_value()
        } else {
            serde::Value::Null
        };
        serde::Value::Object(vec![
            ("capacity".to_string(), self.capacity.to_value()),
            ("buffer_capacity".to_string(), buffer_capacity),
            ("allocs".to_string(), self.allocs.to_value()),
            ("advance".to_string(), self.advance.to_value()),
            ("sum_b_min".to_string(), self.sum_b_min.to_value()),
            ("sum_b_alloc".to_string(), self.sum_b_alloc.to_value()),
            ("sum_resv".to_string(), self.sum_resv.to_value()),
            ("sum_buffer".to_string(), self.sum_buffer.to_value()),
        ])
    }
    /// The text of [`to_value`](Serialize::to_value)'s tree, with no tree
    /// built: that tree is kept as the oracle this is tested against.
    fn write_json(&self, out: &mut serde::JsonWriter) {
        out.raw("{\"capacity\":");
        out.f64(self.capacity);
        out.raw(",\"buffer_capacity\":");
        if self.buffer_capacity.is_finite() {
            out.f64(self.buffer_capacity);
        } else {
            out.raw("null");
        }
        out.raw(",\"allocs\":");
        self.allocs.write_json(out);
        out.raw(",\"advance\":");
        self.advance.write_json(out);
        out.raw(",\"sum_b_min\":");
        out.f64(self.sum_b_min);
        out.raw(",\"sum_b_alloc\":");
        out.f64(self.sum_b_alloc);
        out.raw(",\"sum_resv\":");
        out.f64(self.sum_resv);
        out.raw(",\"sum_buffer\":");
        out.f64(self.sum_buffer);
        out.raw("}");
    }
}

impl Deserialize for LinkState {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        wire::LinkState::from_value(v)?.try_into()
    }
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        wire::LinkState::read_json(r)?.try_into()
    }
}

/// The fields of a [`LinkState`](super::LinkState) as the document
/// spells them, under its name so the derive's error texts carry it.
mod wire {
    use super::{Alloc, BTreeMap, ConnId, ResvClaim};

    #[derive(serde::Deserialize)]
    pub(super) struct LinkState {
        pub(super) capacity: f64,
        /// `null` is the unlimited pool.
        pub(super) buffer_capacity: Option<f64>,
        pub(super) allocs: Vec<(ConnId, Alloc)>,
        pub(super) advance: BTreeMap<ResvClaim, f64>,
        pub(super) sum_b_min: f64,
        pub(super) sum_b_alloc: f64,
        pub(super) sum_resv: f64,
        pub(super) sum_buffer: f64,
    }
}

impl TryFrom<wire::LinkState> for LinkState {
    type Error = serde::Error;

    fn try_from(mut w: wire::LinkState) -> Result<Self, serde::Error> {
        if !w.capacity.is_finite() || w.capacity <= 0.0 {
            return Err(serde::Error::custom(
                "LinkState: capacity must be positive and finite",
            ));
        }
        w.allocs.sort_unstable_by_key(|(c, _)| *c);
        Ok(LinkState {
            capacity: w.capacity,
            buffer_capacity: w.buffer_capacity.unwrap_or(f64::INFINITY),
            allocs: w.allocs,
            advance: w.advance.into_iter().collect(),
            sum_b_min: w.sum_b_min,
            sum_b_alloc: w.sum_b_alloc,
            sum_resv: w.sum_resv,
            sum_buffer: w.sum_buffer,
            rev: Revision::fresh(),
        })
    }
}

/// Numerical slack for float accounting; a millionth of a kbps.
const EPS: f64 = 1e-6;

impl LinkState {
    /// A fresh ledger for a link of the given capacity, with an
    /// effectively unlimited buffer pool.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "link capacity must be positive");
        LinkState {
            capacity,
            buffer_capacity: f64::INFINITY,
            allocs: Vec::new(),
            advance: Vec::new(),
            sum_b_min: 0.0,
            sum_b_alloc: 0.0,
            sum_resv: 0.0,
            sum_buffer: 0.0,
            rev: Revision::fresh(),
        }
    }

    /// Bound the buffer pool (kilobits).
    pub fn with_buffer_capacity(mut self, b: f64) -> Self {
        self.bump();
        self.buffer_capacity = b;
        self
    }

    /// Where the ledger stands in its history of writes: equal readings
    /// bracket no write (see [`Revision`]).
    pub fn revision(&self) -> Revision {
        self.rev
    }

    #[inline]
    fn bump(&mut self) {
        self.rev.writes = self.rev.writes.wrapping_add(1);
    }

    /// The four running sums as bits: `Σ b_min`, `Σ b_alloc`, `b_resv`,
    /// `Σ buffer`.
    pub fn sum_bits(&self) -> [u64; 4] {
        [
            self.sum_b_min.to_bits(),
            self.sum_b_alloc.to_bits(),
            self.sum_resv.to_bits(),
            self.sum_buffer.to_bits(),
        ]
    }

    /// Link speed `C_l`.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Total advance-reserved bandwidth `b_resv,l`.
    pub fn b_resv(&self) -> f64 {
        self.sum_resv
    }

    /// Sum of allocation floors `Σ b_min,i`.
    pub fn sum_b_min(&self) -> f64 {
        self.sum_b_min
    }

    /// Sum of current allocations `Σ b_alloc,i`.
    pub fn sum_b_alloc(&self) -> f64 {
        self.sum_b_alloc
    }

    /// The paper's excess available bandwidth
    /// `b'_av,l = C_l − b_resv,l − Σ b_min,i`. May be negative after a
    /// capacity drop — §5.3's signal that re-negotiation is required.
    pub fn excess_available(&self) -> f64 {
        self.capacity - self.sum_resv - self.sum_b_min
    }

    /// Iterate over ongoing connections and their allocations,
    /// ascending by `ConnId`.
    pub fn allocs(&self) -> impl Iterator<Item = (ConnId, &Alloc)> {
        self.allocs.iter().map(|(k, v)| (*k, v))
    }

    /// Position of `conn` in the sorted allocation table.
    #[inline]
    fn pos(&self, conn: ConnId) -> Result<usize, usize> {
        self.allocs.binary_search_by_key(&conn, |(c, _)| *c)
    }

    /// Allocation of one connection, if present.
    pub fn alloc(&self, conn: ConnId) -> Option<&Alloc> {
        self.pos(conn).ok().map(|i| &self.allocs[i].1)
    }

    // ------------------------------------------------------------------
    // Admission / release
    // ------------------------------------------------------------------

    /// Can a new connection with floor `b_min` pass the Table 2 bandwidth
    /// test on this link? (`b_min ≤ C_l − b_resv,l − Σ b_min,i`.)
    pub fn admits(&self, b_min: f64) -> bool {
        b_min <= self.excess_available() + EPS
    }

    /// Like [`admits`](Self::admits), but allowing the connection to
    /// consume its own advance-reservation claim (the handoff case: "the
    /// connection handoff is able to use the advance reserved resources").
    pub fn admits_with_claim(&self, conn: ConnId, b_min: f64) -> bool {
        let own = self.claim(ResvClaim::Conn(conn));
        b_min <= self.excess_available() + own + EPS
    }

    /// Admit a connection at its floor. Fails if the bandwidth test fails
    /// or the connection is already present.
    pub fn admit(&mut self, conn: ConnId, b_min: f64, buffer: f64) -> Result<(), LedgerError> {
        self.admit_inner(conn, b_min, buffer, false)
    }

    /// Admit a handing-off connection, consuming (releasing) its own
    /// advance claim first.
    pub fn admit_handoff(
        &mut self,
        conn: ConnId,
        b_min: f64,
        buffer: f64,
    ) -> Result<(), LedgerError> {
        self.admit_inner(conn, b_min, buffer, true)
    }

    fn admit_inner(
        &mut self,
        conn: ConnId,
        b_min: f64,
        buffer: f64,
        consume_claim: bool,
    ) -> Result<(), LedgerError> {
        self.bump();
        assert!(b_min >= 0.0 && buffer >= 0.0);
        let Err(at) = self.pos(conn) else {
            return Err(LedgerError::DuplicateConn);
        };
        let admissible = if consume_claim {
            self.admits_with_claim(conn, b_min)
        } else {
            self.admits(b_min)
        };
        if !admissible {
            return Err(LedgerError::Overcommitted);
        }
        if self.sum_buffer + buffer > self.buffer_capacity + EPS {
            return Err(LedgerError::BufferExhausted);
        }
        if consume_claim {
            self.release_claim(ResvClaim::Conn(conn));
        }
        // `release_claim` never touches `allocs`, so `at` is still the
        // right insertion point. A `Vec::insert` within capacity is a
        // memmove — no heap traffic on the warm churn path.
        self.allocs.insert(
            at,
            (
                conn,
                Alloc {
                    b_min,
                    b_alloc: b_min,
                    buffer,
                },
            ),
        );
        self.sum_b_min += b_min;
        self.sum_b_alloc += b_min;
        self.sum_buffer += buffer;
        // Resource conflict (§5.2 case b): the floor fits but connections
        // adapted above their floors are in the way. Squeeze their excess
        // proportionally — the maxmin adaptation round the caller runs next
        // will redistribute what remains fairly.
        self.squeeze_to_fit();
        self.debug_check();
        Ok(())
    }

    /// Reduce above-floor allocations proportionally until
    /// `Σ b_alloc ≤ C_l`. Admission tests guarantee floors alone fit, so
    /// this always succeeds.
    fn squeeze_to_fit(&mut self) {
        let overflow = self.sum_b_alloc - self.capacity;
        if overflow <= EPS {
            return;
        }
        let total_excess: f64 = self
            .allocs
            .iter()
            .map(|(_, a)| a.b_alloc - a.b_min)
            .sum::<f64>();
        debug_assert!(
            total_excess + EPS >= overflow,
            "floors alone overflow the link"
        );
        if total_excess <= 0.0 {
            return;
        }
        let scale = ((total_excess - overflow) / total_excess).max(0.0);
        let mut new_sum = 0.0;
        for (_, a) in self.allocs.iter_mut() {
            a.b_alloc = a.b_min + (a.b_alloc - a.b_min) * scale;
            new_sum += a.b_alloc;
        }
        self.sum_b_alloc = new_sum;
    }

    /// Release a connection entirely, returning its allocation.
    pub fn release(&mut self, conn: ConnId) -> Result<Alloc, LedgerError> {
        self.bump();
        let at = self.pos(conn).map_err(|_| LedgerError::UnknownConn)?;
        let alloc = self.allocs.remove(at).1;
        self.sum_b_min -= alloc.b_min;
        self.sum_b_alloc -= alloc.b_alloc;
        self.sum_buffer -= alloc.buffer;
        self.clamp_sums();
        self.debug_check();
        Ok(alloc)
    }

    /// Set a connection's current allocation (adaptation). Must be at
    /// least its floor and must keep the link feasible. Decreases are
    /// always allowed (they can only improve feasibility); increases must
    /// fit beside the advance reservations.
    pub fn set_alloc(&mut self, conn: ConnId, b_alloc: f64) -> Result<(), LedgerError> {
        self.bump();
        let at = self.pos(conn).map_err(|_| LedgerError::UnknownConn)?;
        let cur = &self.allocs[at].1;
        if b_alloc + EPS < cur.b_min {
            return Err(LedgerError::BelowFloor);
        }
        let new_sum = self.sum_b_alloc - cur.b_alloc + b_alloc;
        let increasing = b_alloc > cur.b_alloc;
        if increasing && new_sum + self.sum_resv > self.capacity + EPS {
            return Err(LedgerError::Overcommitted);
        }
        self.sum_b_alloc = new_sum;
        self.allocs[at].1.b_alloc = b_alloc;
        self.debug_check();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Advance reservations
    // ------------------------------------------------------------------

    /// Position of `key` in the sorted claim table.
    #[inline]
    fn claim_pos(&self, key: ResvClaim) -> Result<usize, usize> {
        self.advance.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// Current size of one claim (0 if absent).
    pub fn claim(&self, key: ResvClaim) -> f64 {
        self.claim_pos(key).map_or(0.0, |i| self.advance[i].1)
    }

    /// Set a claim to an absolute amount, replacing any previous amount
    /// under the same key. The amount is granted even if it pushes the
    /// link into negative excess — the paper's algorithms deliberately
    /// over-reserve and then resolve conflicts by squeezing allocations —
    /// but never beyond what squeezing could recover: the grant is capped
    /// so that `Σ b_min + b_resv ≤ C_l`. Returns the granted amount.
    pub fn set_claim(&mut self, key: ResvClaim, amount: f64) -> f64 {
        self.bump();
        assert!(amount >= 0.0);
        let at = self.claim_pos(key);
        let old = at.map_or(0.0, |i| self.advance[i].1);
        let headroom = (self.capacity - self.sum_b_min - (self.sum_resv - old)).max(0.0);
        let granted = amount.min(headroom);
        if granted <= EPS {
            if let Ok(i) = at {
                self.advance.remove(i);
            }
            self.sum_resv -= old;
        } else {
            match at {
                Ok(i) => self.advance[i].1 = granted,
                Err(i) => self.advance.insert(i, (key, granted)),
            }
            self.sum_resv += granted - old;
        }
        self.clamp_sums();
        granted
    }

    /// Remove a claim entirely, returning the released amount.
    pub fn release_claim(&mut self, key: ResvClaim) -> f64 {
        self.bump();
        match self.claim_pos(key) {
            Ok(i) => {
                let v = self.advance.remove(i).1;
                self.sum_resv -= v;
                self.clamp_sums();
                v
            }
            Err(_) => 0.0,
        }
    }

    /// Release every claim `keep` rejects, in one pass. The released
    /// amounts leave `b_resv` in ascending key order, each followed by
    /// the same drift clamp — bit for bit what calling
    /// [`release_claim`](Self::release_claim) on each of those keys in
    /// that order does, without collecting them first.
    pub fn retain_claims(&mut self, mut keep: impl FnMut(ResvClaim) -> bool) {
        self.bump();
        let mut released = false;
        // `Vec::retain` visits in order, and the table is ascending.
        self.advance.retain(|(k, v)| {
            if keep(*k) {
                return true;
            }
            released = true;
            self.sum_resv -= *v;
            if self.sum_resv < 0.0 && self.sum_resv > -EPS {
                self.sum_resv = 0.0;
            }
            false
        });
        if released {
            // The other three sums, which `release_claim` also clamps.
            self.clamp_sums();
        }
    }

    /// Iterate over advance claims.
    pub fn claims(&self) -> impl Iterator<Item = (ResvClaim, f64)> + '_ {
        self.advance.iter().map(|(k, v)| (*k, *v))
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Verify ledger internal consistency; used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let b_min: f64 = self.allocs.iter().map(|(_, a)| a.b_min).sum();
        let b_alloc: f64 = self.allocs.iter().map(|(_, a)| a.b_alloc).sum();
        let buffer: f64 = self.allocs.iter().map(|(_, a)| a.buffer).sum();
        let resv: f64 = self.advance.iter().map(|(_, v)| v).sum();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs() + b.abs());
        for (name, fresh, kept) in [
            ("sum_b_min", b_min, self.sum_b_min),
            ("sum_b_alloc", b_alloc, self.sum_b_alloc),
            ("sum_buffer", buffer, self.sum_buffer),
            ("sum_resv", resv, self.sum_resv),
        ] {
            if !close(fresh, kept) {
                return Err(format!("{name} drift: {fresh} vs {kept}"));
            }
        }
        for (c, a) in &self.allocs {
            if a.b_alloc + EPS < a.b_min {
                return Err(format!("{c:?} allocated below floor"));
            }
        }
        let tol = 1e-6 * (1.0 + self.capacity);
        // Physical: actual transmissions never exceed the link speed.
        if b_alloc > self.capacity + tol {
            return Err(format!(
                "allocations {} exceed capacity {}",
                b_alloc, self.capacity
            ));
        }
        // Guarantee feasibility: every floor plus every advance claim can
        // be honoured simultaneously (claims are capped to ensure this).
        if b_min + resv > self.capacity + tol {
            return Err(format!(
                "floors {} + resv {} > capacity {}",
                b_min, resv, self.capacity
            ));
        }
        Ok(())
    }

    fn clamp_sums(&mut self) {
        // Guard against float drift pushing sums slightly negative.
        if self.sum_b_min < 0.0 && self.sum_b_min > -EPS {
            self.sum_b_min = 0.0;
        }
        if self.sum_b_alloc < 0.0 && self.sum_b_alloc > -EPS {
            self.sum_b_alloc = 0.0;
        }
        if self.sum_resv < 0.0 && self.sum_resv > -EPS {
            self.sum_resv = 0.0;
        }
        if self.sum_buffer < 0.0 && self.sum_buffer > -EPS {
            self.sum_buffer = 0.0;
        }
    }

    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        #[expect(
            clippy::panic,
            reason = "invariant: every ledger op keeps the link consistent"
        )]
        if let Err(e) = self.check_invariants() {
            panic!("invariant: ledger invariant violated: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(i: u32) -> ConnId {
        ConnId(i)
    }

    #[test]
    fn admit_and_release() {
        let mut l = LinkState::new(100.0);
        assert!(l.admits(60.0));
        l.admit(cid(1), 60.0, 5.0).unwrap();
        assert_eq!(l.sum_b_min(), 60.0);
        assert_eq!(l.excess_available(), 40.0);
        assert!(!l.admits(50.0));
        assert!(l.admits(40.0));
        assert_eq!(l.admit(cid(1), 10.0, 0.0), Err(LedgerError::DuplicateConn));
        assert_eq!(l.admit(cid(2), 50.0, 0.0), Err(LedgerError::Overcommitted));
        let a = l.release(cid(1)).unwrap();
        assert_eq!(a.b_min, 60.0);
        assert_eq!(l.excess_available(), 100.0);
        assert_eq!(l.release(cid(1)), Err(LedgerError::UnknownConn));
    }

    #[test]
    fn adaptation_between_floor_and_capacity() {
        let mut l = LinkState::new(100.0);
        l.admit(cid(1), 20.0, 0.0).unwrap();
        l.admit(cid(2), 20.0, 0.0).unwrap();
        l.set_alloc(cid(1), 60.0).unwrap();
        assert_eq!(l.sum_b_alloc(), 80.0);
        // excess_available ignores allocations above floors (it's the
        // pool being divided), so it stays at C − Σ b_min.
        assert_eq!(l.excess_available(), 60.0);
        assert_eq!(l.set_alloc(cid(2), 50.0), Err(LedgerError::Overcommitted));
        assert_eq!(l.set_alloc(cid(1), 10.0), Err(LedgerError::BelowFloor));
        assert_eq!(l.set_alloc(cid(9), 10.0), Err(LedgerError::UnknownConn));
        l.set_alloc(cid(1), 20.0).unwrap();
        l.set_alloc(cid(2), 80.0).unwrap();
        assert_eq!(l.sum_b_alloc(), 100.0);
    }

    #[test]
    fn advance_claims_reduce_admissibility() {
        let mut l = LinkState::new(100.0);
        let granted = l.set_claim(ResvClaim::DynPool, 10.0);
        assert_eq!(granted, 10.0);
        l.set_claim(ResvClaim::Conn(cid(7)), 30.0);
        assert_eq!(l.b_resv(), 40.0);
        assert!(!l.admits(70.0));
        assert!(l.admits(60.0));
        // The predicted connection itself may consume its claim.
        assert!(l.admits_with_claim(cid(7), 90.0));
        l.admit_handoff(cid(7), 90.0, 0.0).unwrap();
        assert_eq!(l.claim(ResvClaim::Conn(cid(7))), 0.0);
        assert_eq!(l.b_resv(), 10.0);
        assert_eq!(l.sum_b_min(), 90.0);
    }

    #[test]
    fn handoff_uses_only_its_own_claim() {
        let mut l = LinkState::new(100.0);
        l.set_claim(ResvClaim::Conn(cid(1)), 50.0);
        // A different connection cannot use conn 1's claim.
        assert!(!l.admits_with_claim(cid(2), 60.0));
        assert_eq!(
            l.admit_handoff(cid(2), 60.0, 0.0),
            Err(LedgerError::Overcommitted)
        );
        assert!(l.admits_with_claim(cid(2), 50.0));
    }

    #[test]
    fn claim_replacement_and_release() {
        let mut l = LinkState::new(100.0);
        l.set_claim(ResvClaim::Cell(CellId(3)), 30.0);
        l.set_claim(ResvClaim::Cell(CellId(3)), 10.0);
        assert_eq!(l.b_resv(), 10.0);
        assert_eq!(l.claim(ResvClaim::Cell(CellId(3))), 10.0);
        assert_eq!(l.release_claim(ResvClaim::Cell(CellId(3))), 10.0);
        assert_eq!(l.release_claim(ResvClaim::Cell(CellId(3))), 0.0);
        assert_eq!(l.b_resv(), 0.0);
        // Setting a claim to zero removes it.
        l.set_claim(ResvClaim::DynPool, 5.0);
        l.set_claim(ResvClaim::DynPool, 0.0);
        assert_eq!(l.claims().count(), 0);
    }

    #[test]
    fn retain_claims_is_release_claim_key_by_key() {
        // Amounts chosen so the running float sum depends on the order
        // and on each intermediate clamp.
        let claims = [
            (ResvClaim::Conn(cid(4)), 0.1),
            (ResvClaim::Conn(cid(2)), 0.7),
            (ResvClaim::Cell(CellId(1)), 1e-6 + 1e-9),
            (ResvClaim::DynPool, 33.3),
            (ResvClaim::Channel, 12.5),
            (ResvClaim::Outage, 3.0),
        ];
        let mut one = LinkState::new(100.0);
        for (k, v) in claims {
            one.set_claim(k, v);
        }
        let mut all = one.clone();
        let keep = |k: ResvClaim| matches!(k, ResvClaim::Channel | ResvClaim::Outage);
        let doomed: Vec<ResvClaim> = one.claims().map(|(k, _)| k).filter(|k| !keep(*k)).collect();
        for k in doomed {
            one.release_claim(k);
        }
        all.retain_claims(keep);
        assert_eq!(
            one.claims().collect::<Vec<_>>(),
            all.claims().collect::<Vec<_>>()
        );
        assert_eq!(
            one.claims().map(|(k, _)| k).collect::<Vec<_>>(),
            [ResvClaim::Channel, ResvClaim::Outage],
            "the two claims the refresh does not own survive the wipe"
        );
        assert_eq!(one.b_resv().to_bits(), all.b_resv().to_bits());
        // Nothing to release: nothing moves.
        let before = all.b_resv().to_bits();
        all.retain_claims(|_| true);
        assert_eq!(all.b_resv().to_bits(), before);
    }

    #[test]
    fn claims_capped_at_squeezable_headroom() {
        let mut l = LinkState::new(100.0);
        l.admit(cid(1), 40.0, 0.0).unwrap();
        l.set_alloc(cid(1), 90.0).unwrap();
        // Headroom above floors is 60 even though only 10 is unallocated:
        // conflict resolution can squeeze conn 1 back to its floor.
        let granted = l.set_claim(ResvClaim::Cell(CellId(0)), 80.0);
        assert_eq!(granted, 60.0);
        assert!(l.check_invariants().is_ok());
        // While the claim transiently overlaps conn 1's excess allocation,
        // a further allocation increase is refused...
        assert_eq!(l.set_alloc(cid(1), 95.0), Err(LedgerError::Overcommitted));
        // ...but squeezing back toward the floor always succeeds.
        l.set_alloc(cid(1), 40.0).unwrap();
        assert!(l.check_invariants().is_ok());
    }

    #[test]
    fn buffer_pool_enforced() {
        let mut l = LinkState::new(100.0).with_buffer_capacity(10.0);
        l.admit(cid(1), 10.0, 8.0).unwrap();
        assert_eq!(
            l.admit(cid(2), 10.0, 5.0),
            Err(LedgerError::BufferExhausted)
        );
        l.admit(cid(2), 10.0, 2.0).unwrap();
    }

    #[test]
    fn negative_excess_signals_renegotiation() {
        let mut l = LinkState::new(100.0);
        l.admit(cid(1), 80.0, 0.0).unwrap();
        // A capacity drop is modelled by a claim the channel monitor puts
        // on the link (see arm-qos::adaptation); excess goes negative.
        l.set_claim(ResvClaim::DynPool, 20.0);
        assert!(l.excess_available() <= 0.0);
    }
}
