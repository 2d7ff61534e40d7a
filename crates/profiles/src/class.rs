//! The cell taxonomy (§3.4.1, Table 1).
//!
//! For an indoor environment, cells divide into three classes by
//! location — **office**, **corridor**, **lounge** — and lounges divide
//! further by activity into **meeting room** (handoff spikes at meeting
//! start/end), **cafeteria** (slow time-varying activity) and **default**
//! (uniformly/randomly distributed activity).

use serde::{Deserialize, Serialize};

/// Lounge activity subclass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoungeKind {
    /// Bursts of handoffs at the start and conclusion of meetings; a
    /// booking calendar drives deterministic advance reservation.
    MeetingRoom,
    /// Slow time-varying handoff profile; a least-squares linear
    /// predictor estimates the next slot's handoffs.
    Cafeteria,
    /// Random time-varying profile; one-step-memory prediction plus the
    /// probabilistic reservation algorithm of §6.3.
    Default,
}

/// Location-dependent cell class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellClass {
    /// A cell with a small set of 'regular' occupants; reserves in
    /// advance only for its occupants.
    Office,
    /// Users move linearly through; next cell is predictable from the
    /// previous cell.
    Corridor,
    /// Many non-regular users; behaviour aggregated, not per-user.
    Lounge(LoungeKind),
}

impl CellClass {
    /// Table 1's characterisation of the class's handoff activity.
    pub fn handoff_activity(&self) -> &'static str {
        match self {
            CellClass::Office => "predictable",
            CellClass::Corridor => "predictable linear movement",
            CellClass::Lounge(LoungeKind::MeetingRoom) => "spikes",
            CellClass::Lounge(LoungeKind::Cafeteria) => "slow time-varying",
            CellClass::Lounge(LoungeKind::Default) => "uniformly distributed",
        }
    }

    /// Does this class track individual regular occupants?
    pub fn tracks_occupants(&self) -> bool {
        matches!(self, CellClass::Office)
    }
}

impl std::fmt::Display for CellClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellClass::Office => write!(f, "office"),
            CellClass::Corridor => write!(f, "corridor"),
            CellClass::Lounge(LoungeKind::MeetingRoom) => write!(f, "lounge/meeting-room"),
            CellClass::Lounge(LoungeKind::Cafeteria) => write!(f, "lounge/cafeteria"),
            CellClass::Lounge(LoungeKind::Default) => write!(f, "lounge/default"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_properties() {
        assert!(CellClass::Office.tracks_occupants());
        assert!(!CellClass::Corridor.tracks_occupants());
        assert_eq!(CellClass::Office.handoff_activity(), "predictable");
        assert_eq!(
            CellClass::Lounge(LoungeKind::MeetingRoom).handoff_activity(),
            "spikes"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(CellClass::Office.to_string(), "office");
        assert_eq!(
            CellClass::Lounge(LoungeKind::Default).to_string(),
            "lounge/default"
        );
    }
}
