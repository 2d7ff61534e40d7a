//! The manager's one way in: the events [`ResourceManager::apply`]
//! takes ([`ManagerEvent`]), what it refuses ([`Refused`]) and what it
//! decided ([`Outcome`]).
//!
//! [`ResourceManager::apply`]: crate::ResourceManager::apply

use std::fmt;

use arm_net::flowspec::{QosRequest, SpecError};
use arm_net::ids::{CellId, ConnId, LinkId, PortableId, ZoneId};
use arm_qos::Rejection;
use arm_sim::SimTime;

/// One event for the manager: the paper's appear, request, handoff,
/// teardown, re-negotiation and channel change (§4–§5), the injected
/// faults, and the slot boundary. Connections are addressed by their
/// portable, which holds at most one open connection at a time. Ticks
/// are events like the others: each caller decides when its slots roll.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ManagerEvent {
    /// A portable appears (powers on) in a cell.
    Appear {
        /// Event time.
        t: SimTime,
        /// The portable.
        portable: PortableId,
        /// Where it appears.
        cell: CellId,
    },
    /// A tracked portable with no open connection asks for one (§5.1).
    Request {
        /// Event time.
        t: SimTime,
        /// The requesting portable.
        portable: PortableId,
        /// The connection's bounds.
        qos: QosRequest,
    },
    /// A tracked portable hands off into `to`.
    Move {
        /// Event time.
        t: SimTime,
        /// The moving portable.
        portable: PortableId,
        /// The destination cell.
        to: CellId,
    },
    /// The portable's open connection ends normally.
    Terminate {
        /// Event time.
        t: SimTime,
        /// The portable whose connection ends.
        portable: PortableId,
    },
    /// The portable's open connection asks for new bounds (§4.2); on
    /// refusal it keeps its old ones.
    Renegotiate {
        /// Event time.
        t: SimTime,
        /// The portable whose connection re-negotiates.
        portable: PortableId,
        /// The new bounds.
        qos: QosRequest,
    },
    /// The cell's wireless channel now carries `fraction` of its
    /// nominal capacity (§2.1), `0 < fraction ≤ 1`.
    ChannelChange {
        /// Event time.
        t: SimTime,
        /// The cell.
        cell: CellId,
        /// Effective capacity fraction.
        fraction: f64,
    },
    /// A link fails.
    LinkDown {
        /// Event time.
        t: SimTime,
        /// The link.
        link: LinkId,
    },
    /// A failed link comes back.
    LinkUp {
        /// Event time.
        t: SimTime,
        /// The link.
        link: LinkId,
    },
    /// A zone's profile server stops answering.
    ProfileServerDown {
        /// Event time.
        t: SimTime,
        /// The zone.
        zone: ZoneId,
    },
    /// A zone's profile server recovers.
    ProfileServerUp {
        /// Event time.
        t: SimTime,
        /// The zone.
        zone: ZoneId,
    },
    /// The portable's next handoff loses its signalling. Valid for any
    /// portable: the mark waits until (if ever) it hands off.
    FailNextHandoff {
        /// Event time.
        t: SimTime,
        /// The portable.
        portable: PortableId,
    },
    /// A slot boundary ([`crate::SLOT`]).
    SlotTick {
        /// The boundary.
        t: SimTime,
    },
}

impl ManagerEvent {
    /// When the event happens.
    pub fn time(&self) -> SimTime {
        let mut ev = *self;
        *ev.time_mut()
    }

    /// When the event happens, to move it in time.
    pub fn time_mut(&mut self) -> &mut SimTime {
        match self {
            ManagerEvent::Appear { t, .. }
            | ManagerEvent::Request { t, .. }
            | ManagerEvent::Move { t, .. }
            | ManagerEvent::Terminate { t, .. }
            | ManagerEvent::Renegotiate { t, .. }
            | ManagerEvent::ChannelChange { t, .. }
            | ManagerEvent::LinkDown { t, .. }
            | ManagerEvent::LinkUp { t, .. }
            | ManagerEvent::ProfileServerDown { t, .. }
            | ManagerEvent::ProfileServerUp { t, .. }
            | ManagerEvent::FailNextHandoff { t, .. }
            | ManagerEvent::SlotTick { t } => t,
        }
    }
}

/// What an applied event decided, and whether it opened an eqn 2
/// adaptation round.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct Outcome {
    /// The decision.
    pub decision: Decision,
    /// Whether the event ran an adaptation round.
    pub round_ran: bool,
}

/// The decision part of an [`Outcome`].
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// A `Request` admitted, or a `Renegotiate`'s new bounds accepted.
    Admitted(ConnId),
    /// A `Request` or a `Renegotiate` refused by a Table 2 test, which
    /// names the row and the link ([`Rejection::test`],
    /// [`Rejection::link`]).
    Blocked(Rejection),
    /// A `Move`: the connections its handoff dropped, and whether its
    /// signalling was lost.
    Handoff {
        /// Connections dropped.
        dropped: Vec<ConnId>,
        /// The handoff ran without signalling (`FailNextHandoff`).
        signalling_failed: bool,
    },
    /// A `ChannelChange`: the connections the fade dropped.
    Faded {
        /// Connections dropped.
        dropped: Vec<ConnId>,
    },
    /// Any other event.
    Applied,
}

/// Why [`ResourceManager::check`](crate::ResourceManager::check)
/// refused an event. A refused event changes nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum Refused {
    /// No such cell, link or zone.
    Unknown {
        /// `"cell"`, `"link"` or `"zone"`.
        what: &'static str,
        /// The id named.
        id: u32,
        /// How many there are.
        have: usize,
    },
    /// The portable never appeared.
    Untracked(PortableId),
    /// A move to the cell the portable is in.
    SameCell(PortableId, CellId),
    /// A rate or fraction is NaN or infinite.
    NonFinite {
        /// Which field.
        what: &'static str,
    },
    /// A rate is zero or negative.
    NonPositive {
        /// Which field.
        what: &'static str,
        /// Its value.
        value: f64,
    },
    /// `b_max < b_min`, as `(b_min, b_max)`.
    Inverted(f64, f64),
    /// A bound other than the rates is invalid.
    BadQos(SpecError),
    /// A channel fraction outside `(0, 1]`.
    BadFraction(f64),
    /// A `Request` from a portable that already holds an open connection.
    Connected(PortableId),
    /// A `Terminate` or `Renegotiate` from a portable with none open.
    NotConnected(PortableId),
    /// An `Appear` for a portable that still holds an open connection.
    StillConnected(PortableId),
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Refused::Unknown { what, id, have } => write!(f, "{what} {id} (have {have})"),
            Refused::Untracked(p) => write!(f, "portable {} (not tracked)", p.0),
            Refused::SameCell(p, c) => write!(f, "portable {} is already in cell {}", p.0, c.0),
            Refused::NonFinite { what } => write!(f, "{what} is not finite"),
            Refused::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            Refused::Inverted(lo, hi) => write!(f, "inverted bounds: b_max {hi} < b_min {lo}"),
            Refused::BadQos(e) => write!(f, "invalid QoS request: {e}"),
            Refused::BadFraction(x) => write!(f, "channel fraction {x} outside (0, 1]"),
            Refused::Connected(p) => write!(f, "portable {} already has an open connection", p.0),
            Refused::NotConnected(p) => write!(f, "portable {} has no open connection", p.0),
            Refused::StillConnected(p) => write!(f, "portable {} still holds a connection", p.0),
        }
    }
}

impl std::error::Error for Refused {}

/// `id` names one of the `have` cells, links or zones (`what`).
pub(crate) fn known(what: &'static str, id: u32, have: usize) -> Result<(), Refused> {
    if (id as usize) < have {
        Ok(())
    } else {
        Err(Refused::Unknown { what, id, have })
    }
}

/// A request's bounds: each rate finite and positive, floor first,
/// then not inverted — the order a server line's fields have always
/// been checked in, so a hostile line keeps its slug — then the rest of
/// [`QosRequest::validate`] (delay, jitter, loss, envelope).
pub(crate) fn check_qos(qos: &QosRequest) -> Result<(), Refused> {
    for (what, v) in [("b_min_kbps", qos.b_min), ("b_max_kbps", qos.b_max)] {
        if !v.is_finite() {
            return Err(Refused::NonFinite { what });
        }
        if v <= 0.0 {
            return Err(Refused::NonPositive { what, value: v });
        }
    }
    if qos.b_max < qos.b_min {
        return Err(Refused::Inverted(qos.b_min, qos.b_max));
    }
    qos.validate().map_err(Refused::BadQos)
}
