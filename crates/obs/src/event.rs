//! The typed event taxonomy.
//!
//! Every observable state change in the manager/maxmin/reservation
//! pipeline maps to exactly one [`ObsEvent`] variant carrying the
//! sim-time it happened at, the ids involved, and a typed cause for
//! the *why* ([`AdmitCause`], [`HandoffCause`], [`Fault`]). The taxonomy is deliberately closed: sinks,
//! counters, and the report schema all enumerate [`EventKind`], so a
//! new event class is an explicit schema change, never an ad-hoc
//! format string (see DESIGN.md §9).

use arm_net::ids::{CellId, ConnId, LinkId, PortableId, ZoneId};
use arm_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Where a consumed advance-reservation claim was drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClaimSource {
    /// The destination cell's per-cell claim.
    CellTo,
    /// The origin cell's per-cell claim (corridor overlap).
    CellFrom,
    /// The shared dynamic pool `B_dyn`.
    DynPool,
}

impl ClaimSource {
    /// Stable lowercase label (used in reports).
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            ClaimSource::CellTo => "cell-to",
            ClaimSource::CellFrom => "cell-from",
            ClaimSource::DynPool => "dyn-pool",
        }
    }
}

/// Why an admission decision went the way it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmitCause {
    /// A new connection was admitted.
    Admitted,
    /// A new connection was blocked.
    Blocked,
    /// A re-negotiation's new bounds were admitted.
    RenegotiateAccepted,
    /// A re-negotiation was refused; the connection keeps its old bounds.
    RenegotiateRejected,
}

/// How a handoff's signalling went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandoffCause {
    /// Signalled: advance claims were usable.
    Completed,
    /// The signalling was lost: plain admission at the destination.
    SignallingFailed,
}

/// An injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// A link failed.
    LinkFailed(LinkId),
    /// A failed link came back.
    LinkRestored(LinkId),
    /// A zone's profile server stopped answering.
    ProfileServerDown(ZoneId),
    /// A zone's profile server recovered.
    ProfileServerUp(ZoneId),
    /// The distributed protocol lost a control packet.
    ControlPacketLost,
}

/// One structured trace event.
///
/// Variants correspond 1:1 to the decision points named in the paper's
/// pipeline: admission (§5), maxmin adaptation rounds (§4), the
/// distributed protocol's ADVERTISE/UPDATE exchange, handoffs and the
/// claims they consume (§6), reservation slot rolls and dispatch
/// (§6.4), and injected faults (chaos harness).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// An admission decision for a new connection request.
    AdmitDecision {
        /// Sim-time of the decision.
        t: SimTime,
        /// The requesting connection (as assigned, even when blocked).
        conn: ConnId,
        /// The cell the portable requested from.
        cell: CellId,
        /// What was decided, and for which kind of request.
        cause: AdmitCause,
    },
    /// One maxmin re-solve over the network.
    MaxminRound {
        /// Sim-time of the round.
        t: SimTime,
        /// Connections whose rates were recomputed this round.
        conns_resolved: u64,
        /// Connections whose cached rates were reused.
        conns_reused: u64,
    },
    /// The distributed protocol sent an ADVERTISE packet.
    AdvertiseSent {
        /// Sim-time of the send.
        t: SimTime,
        /// The connection the advertisement is for.
        conn: ConnId,
        /// The link the packet targets.
        link: LinkId,
        /// The advertised rate (kbps).
        rate_kbps: f64,
    },
    /// The distributed protocol received an UPDATE (or ADVERTISE reply).
    UpdateRecv {
        /// Sim-time of the receive.
        t: SimTime,
        /// The connection the update is for.
        conn: ConnId,
        /// The link the packet came from.
        link: LinkId,
        /// The carried rate (kbps).
        rate_kbps: f64,
    },
    /// A handoff attempt finished.
    HandoffOutcome {
        /// Sim-time of the outcome.
        t: SimTime,
        /// The moving portable.
        portable: PortableId,
        /// The cell it left.
        from: CellId,
        /// The cell it entered.
        to: CellId,
        /// Connections that survived the handoff.
        carried: u64,
        /// Connections dropped by the handoff.
        dropped: u64,
        /// Whether the handoff was signalled.
        cause: HandoffCause,
    },
    /// A handoff drew bandwidth down from an advance-reservation claim.
    ClaimConsumed {
        /// Sim-time of the drawdown.
        t: SimTime,
        /// The cell whose claim was consumed.
        cell: CellId,
        /// The connection the bandwidth now backs.
        conn: ConnId,
        /// How much was drawn (kbps).
        kbps: f64,
        /// Which pool it came from.
        source: ClaimSource,
    },
    /// The reservation slot clock rolled to a new slot.
    ReservationSlotRolled {
        /// Sim-time of the roll.
        t: SimTime,
        /// The slot index just entered.
        slot: u64,
    },
    /// The §6.4 dispatcher chose a reservation strategy for a portable.
    ReservationDispatch {
        /// Sim-time of the decision.
        t: SimTime,
        /// The portable being dispatched for.
        portable: PortableId,
        /// The decision, as its stable label (e.g. `per-connection`,
        /// `class-policy`).
        decision: String,
    },
    /// The chaos/fault layer injected a fault.
    FaultInjected {
        /// Sim-time of the injection.
        t: SimTime,
        /// What was injected, and where.
        fault: Fault,
    },
    /// The server ingestion layer rejected one input line. The stream
    /// always continues past a rejection — this event (plus the
    /// server's rejection counter) is how the skip is surfaced instead
    /// of aborting.
    IngestRejected {
        /// Sim-time of the last accepted event when the line arrived.
        t: SimTime,
        /// Stable reason slug (`malformed`, `non-finite`,
        /// `negative-rate`, `out-of-order`, `too-far-ahead`,
        /// `unknown-entity`, `invalid-parameter`).
        reason: String,
        /// Human-readable detail (offending field or parser message).
        detail: String,
    },
}

/// Discriminant-only view of [`ObsEvent`], for counting and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// [`ObsEvent::AdmitDecision`].
    AdmitDecision,
    /// [`ObsEvent::MaxminRound`].
    MaxminRound,
    /// [`ObsEvent::AdvertiseSent`].
    AdvertiseSent,
    /// [`ObsEvent::UpdateRecv`].
    UpdateRecv,
    /// [`ObsEvent::HandoffOutcome`].
    HandoffOutcome,
    /// [`ObsEvent::ClaimConsumed`].
    ClaimConsumed,
    /// [`ObsEvent::ReservationSlotRolled`].
    ReservationSlotRolled,
    /// [`ObsEvent::ReservationDispatch`].
    ReservationDispatch,
    /// [`ObsEvent::FaultInjected`].
    FaultInjected,
    /// [`ObsEvent::IngestRejected`].
    IngestRejected,
}

impl EventKind {
    /// Every kind, in schema order.
    pub const ALL: [EventKind; 10] = [
        EventKind::AdmitDecision,
        EventKind::MaxminRound,
        EventKind::AdvertiseSent,
        EventKind::UpdateRecv,
        EventKind::HandoffOutcome,
        EventKind::ClaimConsumed,
        EventKind::ReservationSlotRolled,
        EventKind::ReservationDispatch,
        EventKind::FaultInjected,
        EventKind::IngestRejected,
    ];

    /// Stable name (matches the `ObsEvent` variant and report schema).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::AdmitDecision => "AdmitDecision",
            EventKind::MaxminRound => "MaxminRound",
            EventKind::AdvertiseSent => "AdvertiseSent",
            EventKind::UpdateRecv => "UpdateRecv",
            EventKind::HandoffOutcome => "HandoffOutcome",
            EventKind::ClaimConsumed => "ClaimConsumed",
            EventKind::ReservationSlotRolled => "ReservationSlotRolled",
            EventKind::ReservationDispatch => "ReservationDispatch",
            EventKind::FaultInjected => "FaultInjected",
            EventKind::IngestRejected => "IngestRejected",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            EventKind::AdmitDecision => 0,
            EventKind::MaxminRound => 1,
            EventKind::AdvertiseSent => 2,
            EventKind::UpdateRecv => 3,
            EventKind::HandoffOutcome => 4,
            EventKind::ClaimConsumed => 5,
            EventKind::ReservationSlotRolled => 6,
            EventKind::ReservationDispatch => 7,
            EventKind::FaultInjected => 8,
            EventKind::IngestRejected => 9,
        }
    }
}

impl ObsEvent {
    /// This event's kind.
    pub(crate) fn kind(&self) -> EventKind {
        match self {
            ObsEvent::AdmitDecision { .. } => EventKind::AdmitDecision,
            ObsEvent::MaxminRound { .. } => EventKind::MaxminRound,
            ObsEvent::AdvertiseSent { .. } => EventKind::AdvertiseSent,
            ObsEvent::UpdateRecv { .. } => EventKind::UpdateRecv,
            ObsEvent::HandoffOutcome { .. } => EventKind::HandoffOutcome,
            ObsEvent::ClaimConsumed { .. } => EventKind::ClaimConsumed,
            ObsEvent::ReservationSlotRolled { .. } => EventKind::ReservationSlotRolled,
            ObsEvent::ReservationDispatch { .. } => EventKind::ReservationDispatch,
            ObsEvent::FaultInjected { .. } => EventKind::FaultInjected,
            ObsEvent::IngestRejected { .. } => EventKind::IngestRejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trip_and_indexing() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn events_serialize_and_round_trip() {
        let ev = ObsEvent::AdmitDecision {
            t: SimTime::from_secs(3),
            conn: ConnId(7),
            cell: CellId(2),
            cause: AdmitCause::Blocked,
        };
        let json = serde_json::to_string(&ev).expect("serializable");
        assert!(json.contains("AdmitDecision"), "{json}");
        let back: ObsEvent = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, ev);
        assert_eq!(back.kind(), EventKind::AdmitDecision);
    }

    #[test]
    fn claim_source_labels() {
        assert_eq!(ClaimSource::CellTo.name(), "cell-to");
        assert_eq!(ClaimSource::DynPool.name(), "dyn-pool");
    }
}
