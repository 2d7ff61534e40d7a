//! The three-level next-cell prediction (§6).
//!
//! 1. **Portable profile**: knowing the previous and current cell, check
//!    the next-predicted-cell triplet. Success ends the search.
//! 2. **Cell profile**: if a neighbouring *office* cell counts the user
//!    among its regular occupants, nominate that office; otherwise
//!    predict from the cell's aggregate handoff history.
//! 3. **Default**: no prediction — the caller falls back to the default
//!    advance-reservation algorithm (§6.3).

use arm_net::ids::{CellId, PortableId};

use crate::cell::CellProfile;
use crate::portable::PortableProfile;

/// Which level produced the prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictionLevel {
    /// Level 1: the portable's own movement history.
    PortableProfile,
    /// Level 2a: a neighbouring office the user regularly occupies.
    OccupantOffice,
    /// Level 2b: the current cell's aggregate handoff history.
    CellAggregate,
    /// Level 3: nothing to go on; use the default reservation algorithm.
    Default,
}

/// A prediction and its provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted next cell (`None` at [`PredictionLevel::Default`]).
    pub cell: Option<CellId>,
    /// Which level produced it.
    pub level: PredictionLevel,
}

/// Run the three-level algorithm.
///
/// `portable_profile` may be absent (e.g. a visitor from another zone
/// whose profile has not been transferred yet); `neighbor_profiles` are
/// the profiles of the current cell's neighbours (for the occupant-office
/// check) — taken as an iterator so a caller that has to look each one
/// up pays for none of them when level 1 answers.
pub fn predict_next_cell<'a>(
    portable: PortableId,
    prev: Option<CellId>,
    cur: CellId,
    portable_profile: Option<&PortableProfile>,
    cell_profile: &CellProfile,
    neighbor_profiles: impl IntoIterator<Item = &'a CellProfile>,
) -> Prediction {
    // Level 1: portable profile.
    if let Some(pp) = portable_profile {
        if let Some(next) = pp.next_predicted(prev, cur) {
            return Prediction {
                cell: Some(next),
                level: PredictionLevel::PortableProfile,
            };
        }
    }
    // Level 2a: neighbouring office with this user as a regular occupant.
    for np in neighbor_profiles {
        if np.class.tracks_occupants() && np.is_occupant(portable) {
            return Prediction {
                cell: Some(np.cell),
                level: PredictionLevel::OccupantOffice,
            };
        }
    }
    aggregate_prediction(prev, cell_profile)
}

impl PredictionLevel {
    /// Does an answer at this level depend on the current cell's handoff
    /// history? Levels 1 and 2a read only the portable's own profile and
    /// data fixed at registration, and they are tried first, so an answer
    /// from either stands whatever the history does; a level-2b or
    /// level-3 answer is
    /// [`ZonedProfiles::aggregate_prediction`](crate::ZonedProfiles::aggregate_prediction)'s.
    pub fn reads_cell_history(self) -> bool {
        matches!(
            self,
            PredictionLevel::CellAggregate | PredictionLevel::Default
        )
    }
}

/// Levels 2b and 3 alone: the cell's aggregate handoff history, else the
/// default. What [`predict_next_cell`] returns when levels 1 and 2a have
/// nothing to say.
pub(crate) fn aggregate_prediction(prev: Option<CellId>, cell_profile: &CellProfile) -> Prediction {
    match cell_profile.predict_next(prev) {
        Some(next) => Prediction {
            cell: Some(next),
            level: PredictionLevel::CellAggregate,
        },
        None => Prediction {
            cell: None,
            level: PredictionLevel::Default,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::CellClass;
    use crate::history::HandoffEvent;
    use arm_sim::SimTime;

    fn hev(p: u32, prev: Option<u32>, cur: u32, next: u32) -> HandoffEvent {
        HandoffEvent {
            portable: PortableId(p),
            prev: prev.map(CellId),
            cur: CellId(cur),
            next: CellId(next),
            time: SimTime::ZERO,
        }
    }

    fn corridor(cell: u32) -> CellProfile {
        CellProfile::with_default_capacity(CellId(cell), CellClass::Corridor)
    }

    #[test]
    fn level1_portable_profile_wins() {
        let mut pp = PortableProfile::with_default_capacity(PortableId(1));
        pp.record(hev(1, Some(0), 5, 9));
        let cp = corridor(5);
        let office = CellProfile::with_default_capacity(CellId(7), CellClass::Office)
            .with_occupants([PortableId(1)]);
        let pred = predict_next_cell(
            PortableId(1),
            Some(CellId(0)),
            CellId(5),
            Some(&pp),
            &cp,
            [&office],
        );
        // The portable's own history beats the occupant-office rule.
        assert_eq!(pred.cell, Some(CellId(9)));
        assert_eq!(pred.level, PredictionLevel::PortableProfile);
    }

    #[test]
    fn level2a_occupant_office() {
        let cp = corridor(5);
        let office = CellProfile::with_default_capacity(CellId(7), CellClass::Office)
            .with_occupants([PortableId(1)]);
        let lounge = CellProfile::with_default_capacity(
            CellId(8),
            CellClass::Lounge(crate::class::LoungeKind::Default),
        );
        let pred = predict_next_cell(
            PortableId(1),
            Some(CellId(0)),
            CellId(5),
            None,
            &cp,
            [&lounge, &office],
        );
        assert_eq!(pred.cell, Some(CellId(7)));
        assert_eq!(pred.level, PredictionLevel::OccupantOffice);
        // A non-occupant does not trigger the office rule.
        let pred2 = predict_next_cell(
            PortableId(2),
            Some(CellId(0)),
            CellId(5),
            None,
            &cp,
            [&lounge, &office],
        );
        assert_ne!(pred2.level, PredictionLevel::OccupantOffice);
    }

    #[test]
    fn level2b_cell_aggregate() {
        let mut cp = corridor(5);
        for i in 0..6 {
            cp.record(hev(i, Some(4), 5, 6));
        }
        let pred = predict_next_cell(PortableId(99), Some(CellId(4)), CellId(5), None, &cp, []);
        assert_eq!(pred.cell, Some(CellId(6)));
        assert_eq!(pred.level, PredictionLevel::CellAggregate);
    }

    #[test]
    fn level3_default_when_nothing_known() {
        let cp = corridor(5);
        let pred = predict_next_cell(PortableId(99), None, CellId(5), None, &cp, []);
        assert_eq!(pred.cell, None);
        assert_eq!(pred.level, PredictionLevel::Default);
    }

    #[test]
    fn empty_portable_profile_falls_through() {
        let pp = PortableProfile::with_default_capacity(PortableId(1));
        let mut cp = corridor(5);
        cp.record(hev(3, Some(4), 5, 6));
        let pred = predict_next_cell(
            PortableId(1),
            Some(CellId(4)),
            CellId(5),
            Some(&pp),
            &cp,
            [],
        );
        assert_eq!(pred.level, PredictionLevel::CellAggregate);
        assert_eq!(pred.cell, Some(CellId(6)));
    }
}
