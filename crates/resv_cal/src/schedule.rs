//! The slotted reservation store.
//!
//! A [`SlottedSchedule`] answers one question — *how much of link `l`
//! is already promised away in slot `s`?* — and everything else
//! (admission, co-allocation, lifecycle) is built on that query. Slots
//! are the manager's reservation slots (`ManagerConfig::slot` wide);
//! the booked resources are directed links, wired or wireless.

use std::collections::BTreeMap;

use arm_net::ids::LinkId;
use serde::{Deserialize, Serialize};

/// Slot index: sim-time ticks divided by the slot width.
pub type SlotIndex = u64;

/// Numerical slack for float accounting; a millionth of a kbps (the
/// same tolerance the link ledgers use).
const EPS: f64 = 1e-6;

/// Version stamp embedded in every serialized schedule. Bump on any
/// change to the field set of [`SlottedSchedule`] or [`Reservation`].
/// v2 keys the store by [`LinkId`] (the `Cell` resource is gone) and
/// drops the never-read `moldable`/`deadline` reservation fields.
pub const CAL_SCHEMA_VERSION: u32 = 2;

/// Identity of one reservation record (monotonic per store).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReservationId(pub u64);

impl std::fmt::Display for ReservationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identity of one co-allocation group (monotonic per store).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u64);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Lifecycle of a reservation.
///
/// ```text
/// Requested ──confirm──▶ Confirmed ──roll (start reached)──▶ Active
///     │                      │                                  │
///     └──────── release / roll-past-start ──▶ Expired           │
///                            └── release ──▶ Released ◀─────────┘
///                                            (roll past end ⇒ Expired)
/// ```
///
/// Only `Requested`/`Confirmed`/`Active` reservations book capacity;
/// `Released`/`Expired` are terminal and contribute nothing (the
/// no-leak invariant pinned by `tests/prop.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ReservationState {
    /// Admission-checked and holding capacity, awaiting confirmation.
    Requested,
    /// Committed; will activate when the slot clock reaches `start`.
    Confirmed,
    /// The slot clock is inside `[start, end)`.
    Active,
    /// Explicitly cancelled before running to completion. Terminal.
    Released,
    /// Ran past `end` (or was never confirmed by `start`). Terminal.
    Expired,
}

impl ReservationState {
    /// Does this state hold booked capacity?
    pub fn is_booked(self) -> bool {
        matches!(
            self,
            ReservationState::Requested | ReservationState::Confirmed | ReservationState::Active
        )
    }

    /// Stable lowercase label (used in reports and errors).
    pub fn name(self) -> &'static str {
        match self {
            ReservationState::Requested => "requested",
            ReservationState::Confirmed => "confirmed",
            ReservationState::Active => "active",
            ReservationState::Released => "released",
            ReservationState::Expired => "expired",
        }
    }
}

/// Which workload produced a reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResvOrigin {
    /// A moldable bulk-transfer booking.
    BulkTransfer,
    /// A leg of a co-allocated multi-link group.
    CoAllocation,
}

/// One typed reservation record.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    /// Store-assigned identity.
    pub id: ReservationId,
    /// The link capacity is booked on.
    pub link: LinkId,
    /// First booked slot (inclusive).
    pub start: SlotIndex,
    /// One past the last booked slot (exclusive; `end > start`).
    pub end: SlotIndex,
    /// Booked rate per slot (kbps).
    pub kbps: f64,
    /// Co-allocation group membership (all-or-nothing siblings).
    pub group: Option<GroupId>,
    /// Which algorithm/workload produced it.
    pub origin: ResvOrigin,
    /// Lifecycle position.
    pub state: ReservationState,
}

impl Reservation {
    /// Does this reservation book capacity on `link` in `slot`?
    pub fn books(&self, slot: SlotIndex, link: LinkId) -> bool {
        self.state.is_booked() && self.link == link && self.start <= slot && slot < self.end
    }
}

/// Typed admission/lifecycle failures. Every path that cannot book
/// returns one of these — the store never panics on caller input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScheduleError {
    /// `start >= end`: nothing to book.
    EmptySlotRange {
        /// Requested first slot.
        start: SlotIndex,
        /// Requested end slot.
        end: SlotIndex,
    },
    /// The booking starts before the store's current slot.
    StartsInPast {
        /// Requested first slot.
        start: SlotIndex,
        /// The store's slot clock.
        current: SlotIndex,
    },
    /// The requested rate is NaN, infinite, or negative.
    BadRate {
        /// The offending rate.
        kbps: f64,
    },
    /// Some slot lacks the headroom for the requested rate.
    Insufficient {
        /// The constraining link.
        link: LinkId,
        /// The first slot that cannot fit the request.
        slot: SlotIndex,
        /// Headroom remaining in that slot (kbps).
        headroom: f64,
        /// Rate that was asked for (kbps).
        needed: f64,
    },
    /// A moldable request cannot fit even fully stretched to its
    /// deadline.
    DeadlineUnmet {
        /// First link of the path the booking was attempted on.
        link: LinkId,
        /// First slot of the attempted window.
        start: SlotIndex,
        /// The deadline that bounded the stretch.
        deadline: SlotIndex,
    },
    /// No reservation with this id exists.
    UnknownReservation(ReservationId),
    /// The requested lifecycle transition is not legal from the
    /// reservation's current state.
    BadTransition {
        /// The reservation.
        id: ReservationId,
        /// Its current state.
        from: ReservationState,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::EmptySlotRange { start, end } => {
                write!(f, "empty slot range [{start}, {end})")
            }
            ScheduleError::StartsInPast { start, current } => {
                write!(f, "slot {start} is before the current slot {current}")
            }
            ScheduleError::BadRate { kbps } => write!(f, "rate {kbps} is not a finite ≥0 kbps"),
            ScheduleError::Insufficient {
                link,
                slot,
                headroom,
                needed,
            } => write!(
                f,
                "link:{} slot {slot}: {needed} kbps needed, {headroom} kbps free",
                link.0
            ),
            ScheduleError::DeadlineUnmet {
                link,
                start,
                deadline,
            } => write!(
                f,
                "link:{}: no duration in [{start}, {deadline}] fits the volume",
                link.0
            ),
            ScheduleError::UnknownReservation(id) => write!(f, "unknown reservation {id}"),
            ScheduleError::BadTransition { id, from } => {
                write!(f, "reservation {id} cannot leave state {}", from.name())
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Why a serialized schedule could not be produced or loaded (the same
/// shape as `arm_core::SnapshotError`, kept local so the store stands
/// alone).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CalendarError {
    /// The artifact was written by a different schema version.
    SchemaMismatch {
        /// Version found in the artifact.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The artifact is not valid JSON or not a valid schedule object.
    Parse(String),
    /// The decoded store fails an internal consistency check.
    Invalid(String),
}

impl std::fmt::Display for CalendarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalendarError::SchemaMismatch { found, expected } => {
                write!(f, "calendar schema {found} != supported {expected}")
            }
            CalendarError::Parse(m) => write!(f, "calendar parse error: {m}"),
            CalendarError::Invalid(m) => write!(f, "calendar failed validation: {m}"),
        }
    }
}

impl std::error::Error for CalendarError {}

/// Outcome of an atomic co-allocation.
#[must_use]
#[derive(Clone, Debug, PartialEq)]
pub struct CoAllocOutcome {
    /// The group tying the legs together.
    pub group: GroupId,
    /// The booked legs, in the caller's leg order.
    pub ids: Vec<ReservationId>,
}

/// What a slot roll did (the manager installs/releases link claims and
/// emits observability events from this).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RollReport {
    /// Reservations that entered `Active` this roll.
    pub activated: Vec<ReservationId>,
    /// Reservations that entered `Expired` this roll (ran past their
    /// end, or were never confirmed by their start).
    pub expired: Vec<ReservationId>,
}

/// The time-indexed reservation store. See the crate docs for the
/// determinism contract; see [`Self::request`] and
/// [`Self::co_allocate`] for the two booking flavours.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlottedSchedule {
    /// Schema stamp, always [`CAL_SCHEMA_VERSION`] when written by this
    /// build.
    schema: u32,
    /// Per-slot capacity of each registered link (kbps). Unregistered
    /// links are unconstrained.
    capacities: BTreeMap<LinkId, f64>,
    /// Every reservation ever taken, keyed (and folded) in id order.
    reservations: BTreeMap<ReservationId, Reservation>,
    /// Co-allocation groups → member reservations.
    groups: BTreeMap<GroupId, Vec<ReservationId>>,
    /// Next [`ReservationId`] to assign.
    next_id: u64,
    /// Next [`GroupId`] to assign.
    next_group: u64,
    /// The slot clock (monotonic; advanced by [`Self::roll_to`]).
    current_slot: SlotIndex,
}

impl Default for SlottedSchedule {
    fn default() -> Self {
        SlottedSchedule::new()
    }
}

impl SlottedSchedule {
    /// An empty store at slot 0.
    pub fn new() -> Self {
        SlottedSchedule {
            schema: CAL_SCHEMA_VERSION,
            capacities: BTreeMap::new(),
            reservations: BTreeMap::new(),
            groups: BTreeMap::new(),
            next_id: 0,
            next_group: 0,
            current_slot: 0,
        }
    }

    // ------------------------------------------------------------------
    // Capacity registration & queries
    // ------------------------------------------------------------------

    /// Register (or update) the per-slot capacity of a link.
    /// Non-finite or negative capacities are ignored (the link
    /// stays/becomes unconstrained is *not* what we want — they leave
    /// the previous registration untouched).
    pub fn set_capacity(&mut self, link: LinkId, kbps: f64) {
        if kbps.is_finite() && kbps >= 0.0 {
            self.capacities.insert(link, kbps);
        }
    }

    /// The registered per-slot capacity, or `None` if unconstrained.
    pub fn capacity(&self, link: LinkId) -> Option<f64> {
        self.capacities.get(&link).copied()
    }

    /// Total booked rate on `link` in `slot`, folded over the live
    /// reservations in id order (see the crate-level determinism
    /// contract — this is deliberately *not* a cached total).
    pub fn booked(&self, slot: SlotIndex, link: LinkId) -> f64 {
        let mut total = 0.0;
        for r in self.reservations.values() {
            if r.books(slot, link) {
                total += r.kbps;
            }
        }
        total
    }

    /// Capacity still free on `link` in `slot` (`∞` when the link is
    /// unconstrained).
    pub fn headroom(&self, slot: SlotIndex, link: LinkId) -> f64 {
        match self.capacities.get(&link) {
            Some(cap) => cap - self.booked(slot, link),
            None => f64::INFINITY,
        }
    }

    /// The store's slot clock.
    pub fn current_slot(&self) -> SlotIndex {
        self.current_slot
    }

    /// Look up one reservation.
    pub fn reservation(&self, id: ReservationId) -> Option<&Reservation> {
        self.reservations.get(&id)
    }

    /// All reservations, in id order.
    pub fn reservations(&self) -> impl Iterator<Item = &Reservation> {
        self.reservations.values()
    }

    /// The members of a co-allocation group, in booking order.
    pub fn group(&self, g: GroupId) -> Option<&[ReservationId]> {
        self.groups.get(&g).map(Vec::as_slice)
    }

    /// Count of reservations currently holding capacity.
    pub fn live_count(&self) -> usize {
        self.reservations
            .values()
            .filter(|r| r.state.is_booked())
            .count()
    }

    // ------------------------------------------------------------------
    // Booking
    // ------------------------------------------------------------------

    fn validate_range(&self, start: SlotIndex, end: SlotIndex) -> Result<(), ScheduleError> {
        if start >= end {
            return Err(ScheduleError::EmptySlotRange { start, end });
        }
        if start < self.current_slot {
            return Err(ScheduleError::StartsInPast {
                start,
                current: self.current_slot,
            });
        }
        Ok(())
    }

    /// A bookable rate is a finite, non-negative kbps.
    pub fn validate_rate(kbps: f64) -> Result<(), ScheduleError> {
        if !kbps.is_finite() || kbps < 0.0 {
            return Err(ScheduleError::BadRate { kbps });
        }
        Ok(())
    }

    /// Would a booking of `kbps` on `link` over `[start, end)` fit, on
    /// top of everything already booked plus `extra` kbps the caller
    /// is stacking on the same link (intra-group accumulation)?
    fn fits(
        &self,
        link: LinkId,
        start: SlotIndex,
        end: SlotIndex,
        kbps: f64,
        extra: f64,
    ) -> Result<(), ScheduleError> {
        if self.capacities.contains_key(&link) {
            for slot in start..end {
                let headroom = self.headroom(slot, link) - extra;
                if kbps > headroom + EPS {
                    return Err(ScheduleError::Insufficient {
                        link,
                        slot,
                        headroom,
                        needed: kbps,
                    });
                }
            }
        }
        Ok(())
    }

    /// Install a draft record, assigning it the next id (the draft's
    /// `id` field is overwritten).
    fn insert(&mut self, draft: Reservation) -> ReservationId {
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        self.reservations.insert(id, Reservation { id, ..draft });
        id
    }

    /// Admission-checked fixed booking: `kbps` on `link` for every
    /// slot in `[start, end)`. The new reservation holds capacity in
    /// state [`ReservationState::Requested`] until
    /// [confirmed](Self::confirm) or [released](Self::release).
    pub fn request(
        &mut self,
        link: LinkId,
        start: SlotIndex,
        end: SlotIndex,
        kbps: f64,
        origin: ResvOrigin,
    ) -> Result<ReservationId, ScheduleError> {
        self.validate_range(start, end)?;
        Self::validate_rate(kbps)?;
        self.fits(link, start, end, kbps, 0.0)?;
        Ok(self.insert(Reservation {
            id: ReservationId(0),
            link,
            start,
            end,
            kbps,
            group: None,
            origin,
            state: ReservationState::Requested,
        }))
    }

    /// Atomic co-allocation: book every `(link, kbps)` leg for
    /// `[start, end)` or book nothing. Legs stacking on the same
    /// link are accumulated in leg order during the feasibility
    /// pass, so a group cannot overcommit a shared link against itself.
    /// All legs are booked directly in [`ReservationState::Confirmed`]
    /// (a group is a commitment, not a quote). `origin` labels the
    /// workload (a molded bulk transfer keeps `BulkTransfer` even
    /// though its path legs form a group).
    pub fn co_allocate(
        &mut self,
        legs: &[(LinkId, f64)],
        start: SlotIndex,
        end: SlotIndex,
        origin: ResvOrigin,
    ) -> Result<CoAllocOutcome, ScheduleError> {
        self.validate_range(start, end)?;
        for (_, kbps) in legs {
            Self::validate_rate(*kbps)?;
        }
        // Feasibility pass over all legs before any booking.
        let mut stacked: BTreeMap<LinkId, f64> = BTreeMap::new();
        for (link, kbps) in legs {
            let extra = stacked.get(link).copied().unwrap_or(0.0);
            self.fits(*link, start, end, *kbps, extra)?;
            stacked.insert(*link, extra + *kbps);
        }
        let group = GroupId(self.next_group);
        self.next_group += 1;
        let mut ids = Vec::with_capacity(legs.len());
        for (link, kbps) in legs {
            ids.push(self.insert(Reservation {
                id: ReservationId(0),
                link: *link,
                start,
                end,
                kbps: *kbps,
                group: Some(group),
                origin,
                state: ReservationState::Confirmed,
            }));
        }
        self.groups.insert(group, ids.clone());
        Ok(CoAllocOutcome { group, ids })
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    fn transition(
        &mut self,
        id: ReservationId,
        allowed: &[ReservationState],
        to: ReservationState,
    ) -> Result<(), ScheduleError> {
        let r = self
            .reservations
            .get_mut(&id)
            .ok_or(ScheduleError::UnknownReservation(id))?;
        if !allowed.contains(&r.state) {
            return Err(ScheduleError::BadTransition { id, from: r.state });
        }
        r.state = to;
        Ok(())
    }

    /// `Requested → Confirmed`.
    pub fn confirm(&mut self, id: ReservationId) -> Result<(), ScheduleError> {
        self.transition(
            id,
            &[ReservationState::Requested],
            ReservationState::Confirmed,
        )
    }

    /// Cancel: any capacity-holding state → `Released`. Releasing one
    /// leg of a co-allocated group releases its siblings too — the
    /// group was admitted all-or-nothing and is torn down the same way.
    pub fn release(&mut self, id: ReservationId) -> Result<(), ScheduleError> {
        let group = self
            .reservations
            .get(&id)
            .ok_or(ScheduleError::UnknownReservation(id))?
            .group;
        self.transition(
            id,
            &[
                ReservationState::Requested,
                ReservationState::Confirmed,
                ReservationState::Active,
            ],
            ReservationState::Released,
        )?;
        if let Some(g) = group {
            let siblings = self.groups.get(&g).cloned().unwrap_or_default();
            for s in siblings {
                if s != id {
                    // Siblings already terminal are left as they are.
                    let _ = self.transition(
                        s,
                        &[
                            ReservationState::Requested,
                            ReservationState::Confirmed,
                            ReservationState::Active,
                        ],
                        ReservationState::Released,
                    );
                }
            }
        }
        Ok(())
    }

    /// Advance the slot clock to `slot`, activating confirmed
    /// reservations whose window has opened and expiring those whose
    /// window has closed (or that were never confirmed in time).
    /// Rolling backwards is a no-op (the clock is monotonic).
    pub fn roll_to(&mut self, slot: SlotIndex) -> RollReport {
        let mut report = RollReport::default();
        if slot < self.current_slot {
            return report;
        }
        self.current_slot = slot;
        for r in self.reservations.values_mut() {
            match r.state {
                ReservationState::Requested => {
                    if r.start <= slot {
                        // Never confirmed by its start: the held
                        // capacity goes back.
                        r.state = ReservationState::Expired;
                        report.expired.push(r.id);
                    }
                }
                ReservationState::Confirmed => {
                    if r.end <= slot {
                        r.state = ReservationState::Expired;
                        report.expired.push(r.id);
                    } else if r.start <= slot {
                        r.state = ReservationState::Active;
                        report.activated.push(r.id);
                    }
                }
                ReservationState::Active => {
                    if r.end <= slot {
                        r.state = ReservationState::Expired;
                        report.expired.push(r.id);
                    }
                }
                ReservationState::Released | ReservationState::Expired => {}
            }
        }
        report
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Serialize: [`Self::validate`], then one pass straight to text.
    /// Fails with [`CalendarError::Invalid`] when validation fails or a
    /// float in the store is NaN or ±∞ (a `null` no `f64` decodes).
    pub fn to_json(&self) -> Result<String, CalendarError> {
        self.validate()?;
        serde_json::to_string_finite(self).map_err(|e| CalendarError::Invalid(e.to_string()))
    }

    /// Parse a serialized schedule, checking the schema version before
    /// decoding the body (version skew reports as
    /// [`CalendarError::SchemaMismatch`], not a missing-field error).
    pub fn from_json(s: &str) -> Result<Self, CalendarError> {
        let v = serde_json::parse_value(s).map_err(|e| CalendarError::Parse(e.to_string()))?;
        let schema = v
            .get("schema")
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| CalendarError::Parse("missing or non-integer `schema` field".into()))?;
        if schema != u64::from(CAL_SCHEMA_VERSION) {
            return Err(CalendarError::SchemaMismatch {
                found: schema as u32,
                expected: CAL_SCHEMA_VERSION,
            });
        }
        let store: SlottedSchedule =
            serde::Deserialize::from_value(&v).map_err(|e| CalendarError::Parse(e.to_string()))?;
        store.validate()?;
        Ok(store)
    }

    /// Internal consistency: schema matches, ids below the counters,
    /// every capacitated link within capacity in every booked slot,
    /// group members mutually consistent.
    pub fn validate(&self) -> Result<(), CalendarError> {
        if self.schema != CAL_SCHEMA_VERSION {
            return Err(CalendarError::SchemaMismatch {
                found: self.schema,
                expected: CAL_SCHEMA_VERSION,
            });
        }
        for (id, r) in &self.reservations {
            if *id != r.id {
                return Err(CalendarError::Invalid(format!(
                    "reservation {id} keyed under wrong id"
                )));
            }
            if r.id.0 >= self.next_id {
                return Err(CalendarError::Invalid(format!(
                    "reservation {id} at or above next_id {}",
                    self.next_id
                )));
            }
            if r.start >= r.end {
                return Err(CalendarError::Invalid(format!(
                    "reservation {id} has empty range"
                )));
            }
            if !r.kbps.is_finite() || r.kbps < 0.0 {
                return Err(CalendarError::Invalid(format!(
                    "reservation {id} has bad rate {}",
                    r.kbps
                )));
            }
            if let Some(g) = r.group {
                if !self
                    .groups
                    .get(&g)
                    .is_some_and(|members| members.contains(id))
                {
                    return Err(CalendarError::Invalid(format!(
                        "reservation {id} claims group {g} that does not list it"
                    )));
                }
            }
        }
        for (g, members) in &self.groups {
            for m in members {
                if !self
                    .reservations
                    .get(m)
                    .is_some_and(|r| r.group == Some(*g))
                {
                    return Err(CalendarError::Invalid(format!(
                        "group {g} lists {m} which does not point back"
                    )));
                }
            }
        }
        // Capacity honoured in every slot any live reservation touches.
        for r in self.reservations.values() {
            if !r.state.is_booked() || !self.capacities.contains_key(&r.link) {
                continue;
            }
            let cap = self.capacities.get(&r.link).copied().unwrap_or(0.0);
            for slot in r.start..r.end {
                let total = self.booked(slot, r.link);
                if total > cap + EPS {
                    return Err(CalendarError::Invalid(format!(
                        "link:{} slot {slot}: booked {total} exceeds capacity {cap}",
                        r.link.0
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_booking_lifecycle() {
        let mut s = SlottedSchedule::new();
        s.set_capacity(LinkId(0), 100.0);
        let id = s
            .request(LinkId(0), 2, 4, 60.0, ResvOrigin::BulkTransfer)
            .expect("fits");
        assert_eq!(s.booked(2, LinkId(0)), 60.0);
        assert_eq!(s.booked(1, LinkId(0)), 0.0);
        assert_eq!(s.booked(4, LinkId(0)), 0.0);
        s.confirm(id).expect("requested -> confirmed");
        assert!(matches!(
            s.confirm(id),
            Err(ScheduleError::BadTransition { .. })
        ));
        let roll = s.roll_to(2);
        assert_eq!(roll.activated, vec![id]);
        assert_eq!(
            s.reservation(id).expect("exists").state,
            ReservationState::Active
        );
        let roll = s.roll_to(4);
        assert_eq!(roll.expired, vec![id]);
        assert_eq!(s.booked(2, LinkId(0)), 0.0, "expired books nothing");
    }

    #[test]
    fn admission_respects_capacity() {
        let mut s = SlottedSchedule::new();
        s.set_capacity(LinkId(1), 100.0);
        s.request(LinkId(1), 0, 3, 70.0, ResvOrigin::BulkTransfer)
            .expect("fits");
        let err = s
            .request(LinkId(1), 2, 5, 40.0, ResvOrigin::BulkTransfer)
            .expect_err("slot 2 has only 30 free");
        assert!(matches!(err, ScheduleError::Insufficient { slot: 2, .. }));
        // Outside the contended window it fits.
        s.request(LinkId(1), 3, 5, 40.0, ResvOrigin::BulkTransfer)
            .expect("fits after the first booking ends");
    }

    #[test]
    fn unregistered_resource_is_unconstrained() {
        let mut s = SlottedSchedule::new();
        s.request(LinkId(9), 0, 2, 1e9, ResvOrigin::BulkTransfer)
            .expect("no capacity registered");
        assert_eq!(s.headroom(0, LinkId(9)), f64::INFINITY);
    }

    #[test]
    fn co_allocation_is_atomic() {
        let mut s = SlottedSchedule::new();
        s.set_capacity(LinkId(0), 100.0);
        s.set_capacity(LinkId(1), 30.0);
        // Leg 2 exceeds link 1's capacity — nothing must be booked.
        let err = s
            .co_allocate(
                &[(LinkId(0), 50.0), (LinkId(1), 40.0)],
                0,
                3,
                ResvOrigin::CoAllocation,
            )
            .expect_err("link 1 too small");
        assert!(matches!(
            err,
            ScheduleError::Insufficient {
                link: LinkId(1),
                ..
            }
        ));
        assert_eq!(s.live_count(), 0, "atomicity: no partial booking");
        // A feasible group books every leg as Confirmed.
        let out = s
            .co_allocate(
                &[(LinkId(0), 50.0), (LinkId(1), 20.0)],
                0,
                3,
                ResvOrigin::CoAllocation,
            )
            .expect("fits");
        assert_eq!(out.ids.len(), 2);
        for id in &out.ids {
            assert_eq!(
                s.reservation(*id).expect("exists").state,
                ReservationState::Confirmed
            );
        }
        assert_eq!(s.group(out.group), Some(out.ids.as_slice()));
    }

    #[test]
    fn co_allocation_stacks_same_resource_legs() {
        let mut s = SlottedSchedule::new();
        s.set_capacity(LinkId(0), 100.0);
        // Two 60s on the same link must be rejected together.
        let err = s
            .co_allocate(
                &[(LinkId(0), 60.0), (LinkId(0), 60.0)],
                0,
                2,
                ResvOrigin::CoAllocation,
            )
            .expect_err("120 > 100 within one group");
        assert!(matches!(err, ScheduleError::Insufficient { .. }));
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn releasing_one_leg_releases_the_group() {
        let mut s = SlottedSchedule::new();
        s.set_capacity(LinkId(0), 100.0);
        let out = s
            .co_allocate(
                &[(LinkId(0), 10.0), (LinkId(0), 20.0)],
                0,
                2,
                ResvOrigin::CoAllocation,
            )
            .expect("fits");
        s.release(out.ids[0]).expect("release");
        for id in &out.ids {
            assert_eq!(
                s.reservation(*id).expect("exists").state,
                ReservationState::Released
            );
        }
        assert_eq!(s.booked(0, LinkId(0)), 0.0);
    }

    #[test]
    fn unconfirmed_request_expires_at_start() {
        let mut s = SlottedSchedule::new();
        let id = s
            .request(LinkId(0), 1, 3, 10.0, ResvOrigin::BulkTransfer)
            .expect("fits");
        let roll = s.roll_to(1);
        assert_eq!(roll.expired, vec![id]);
        assert_eq!(
            s.reservation(id).expect("exists").state,
            ReservationState::Expired
        );
    }

    #[test]
    fn past_bookings_rejected() {
        let mut s = SlottedSchedule::new();
        s.roll_to(5);
        assert!(matches!(
            s.request(LinkId(0), 4, 6, 1.0, ResvOrigin::BulkTransfer),
            Err(ScheduleError::StartsInPast { .. })
        ));
        assert!(matches!(
            s.request(LinkId(0), 3, 3, 1.0, ResvOrigin::BulkTransfer),
            Err(ScheduleError::EmptySlotRange { .. })
        ));
        assert!(matches!(
            s.request(LinkId(0), 5, 6, f64::NAN, ResvOrigin::BulkTransfer),
            Err(ScheduleError::BadRate { .. })
        ));
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut s = SlottedSchedule::new();
        s.set_capacity(LinkId(3), 640.0);
        s.set_capacity(LinkId(2), 1000.0);
        let a = s
            .request(LinkId(3), 1, 4, 28.5, ResvOrigin::BulkTransfer)
            .expect("fits");
        s.confirm(a).expect("confirm");
        let _ = s
            .co_allocate(
                &[(LinkId(3), 10.0), (LinkId(2), 12.25)],
                3,
                6,
                ResvOrigin::CoAllocation,
            )
            .expect("fits");
        s.roll_to(2);
        let json = s.to_json().expect("serialize");
        let back = SlottedSchedule::from_json(&json).expect("parse");
        assert_eq!(back, s);
        assert_eq!(back.to_json().expect("serialize"), json);
    }

    /// `to_json` validates, then writes once; the two states it must
    /// refuse are one `validate()` names and one only the writer sees.
    #[test]
    fn invalid_and_non_finite_stores_are_refused_on_write() {
        let mut s = SlottedSchedule::new();
        s.set_capacity(LinkId(0), 100.0);
        let id = s
            .request(LinkId(0), 2, 4, 60.0, ResvOrigin::BulkTransfer)
            .expect("fits");
        assert!(s.to_json().is_ok());

        let mut empty_range = s.clone();
        empty_range.reservations.get_mut(&id).expect("booked").end = 2;
        match empty_range.to_json() {
            Err(CalendarError::Invalid(why)) => assert!(why.contains("empty range"), "{why}"),
            other => panic!("want Invalid, got {other:?}"),
        }

        // An unbounded capacity honours every booking, so `validate()`
        // passes; as JSON it would be a `null` no `f64` decodes.
        let mut unbounded = s;
        unbounded.capacities.insert(LinkId(1), f64::INFINITY);
        assert!(unbounded.validate().is_ok());
        match unbounded.to_json() {
            Err(CalendarError::Invalid(why)) => {
                assert!(why.contains("1 non-finite float"), "{why}");
                assert!(why.contains("\"capacities\":"), "{why}");
            }
            other => panic!("want Invalid, got {other:?}"),
        }
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let s = SlottedSchedule::new();
        let json = s.to_json().expect("serialize");
        // A future version, and the previous one (cell-keyed store).
        for skew in [CAL_SCHEMA_VERSION + 1, 1] {
            let doctored = json.replacen(
                &format!("\"schema\":{CAL_SCHEMA_VERSION}"),
                &format!("\"schema\":{skew}"),
                1,
            );
            match SlottedSchedule::from_json(&doctored) {
                Err(CalendarError::SchemaMismatch { found, expected }) => {
                    assert_eq!(found, skew);
                    assert_eq!(expected, CAL_SCHEMA_VERSION);
                }
                other => panic!("expected SchemaMismatch, got {other:?}"),
            }
        }
        assert!(matches!(
            SlottedSchedule::from_json("not json"),
            Err(CalendarError::Parse(_))
        ));
    }
}
