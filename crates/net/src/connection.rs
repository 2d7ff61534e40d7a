//! Connection lifecycle records.
//!
//! A connection is one QoS-bounded flow between two endpoints, one (or
//! both) of which is a portable on a wireless cell. The record keeps the
//! negotiated bounds, the current route and the current end-to-end
//! allocated rate; per-link numbers live in the link ledgers. A record
//! exists exactly while its connection is live: `Network::finish` and
//! `Network::mark_blocked` take it out of the table.

use arm_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::flowspec::QosRequest;
use crate::ids::{CellId, ConnId, NodeId, PortableId};
use crate::routing::Route;

/// One QoS-bounded flow.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Connection {
    /// Identifier.
    pub id: ConnId,
    /// The portable this connection belongs to (determines static/mobile
    /// policy and which cell's medium it consumes).
    pub portable: PortableId,
    /// The cell the portable was in when the connection was admitted or
    /// last handed off.
    pub cell: CellId,
    /// Fixed wired endpoint (e.g. a server on the backbone). The wireless
    /// endpoint is implied by `cell`.
    pub(crate) remote: NodeId,
    /// Negotiated QoS bounds.
    pub qos: QosRequest,
    /// Current route (wireless hop first when the portable is the source).
    pub route: Route,
    /// Current end-to-end allocated rate (kbps), in
    /// `[qos.b_min, qos.b_max]`.
    pub b_current: f64,
    /// Admission time.
    pub started: SimTime,
}

impl Connection {
    /// A freshly admitted connection at its minimum rate.
    pub fn new(
        id: ConnId,
        portable: PortableId,
        cell: CellId,
        remote: NodeId,
        qos: QosRequest,
        route: Route,
        started: SimTime,
    ) -> Self {
        Connection {
            id,
            portable,
            cell,
            remote,
            qos,
            route,
            b_current: qos.b_min,
            started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowspec::QosRequest;

    fn conn(b_min: f64, b_max: f64) -> Connection {
        Connection::new(
            ConnId(0),
            PortableId(0),
            CellId(0),
            NodeId(0),
            QosRequest::bandwidth(b_min, b_max),
            Route::trivial(NodeId(0)),
            SimTime::ZERO,
        )
    }

    #[test]
    fn starts_at_minimum_rate() {
        let c = conn(16.0, 64.0);
        assert_eq!(c.b_current, 16.0);
    }
}
