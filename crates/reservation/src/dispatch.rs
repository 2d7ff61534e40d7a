//! The §6.4 summary dispatcher.
//!
//! Given a mobile portable's three-level prediction and the class of its
//! current cell, decide what kind of advance reservation to make:
//!
//! 1. next-predicted-cell from the **portable profile** ⇒ reserve there;
//! 2. otherwise by **cell class**:
//!    * *office*: a neighbouring office the user occupies ⇒ reserve
//!      there; the user occupies *this* office ⇒ no reservation (they are
//!      expected to stay; the neighbours' `B_dyn` pools cover surprises);
//!      otherwise aggregate history;
//!    * *corridor*: occupant office ⇒ reserve there; otherwise aggregate
//!      history;
//!    * *lounges*: the class's slot-driven policy (meeting calendar,
//!      cafeteria least-squares, default one-step + probabilistic) sizes
//!      an aggregate claim instead of per-portable claims;
//! 3. nothing to go on ⇒ the default (probabilistic) algorithm.

use arm_net::ids::{CellId, PortableId};
use arm_obs::{Obs, ObsEvent};
use arm_profiles::prediction::{Prediction, PredictionLevel};
use arm_profiles::CellClass;
use arm_sim::time::SimTime;
use arm_sim::Audited;

/// What the §6.4 dispatcher tells the resource manager to do for one
/// mobile portable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReservationDecision {
    /// Reserve this portable's connection floors in the named cell.
    PerConnection(CellId),
    /// Make no per-portable reservation (occupant staying put).
    NoReservation,
    /// The current cell's class-level (aggregate) policy covers it.
    ClassPolicy,
    /// No usable information: fall back to the default probabilistic
    /// reservation algorithm.
    DefaultAlgorithm,
}

impl ReservationDecision {
    /// Stable kebab-case label (used in trace events and reports).
    pub fn label(self) -> &'static str {
        match self {
            ReservationDecision::PerConnection(_) => "per-connection",
            ReservationDecision::NoReservation => "no-reservation",
            ReservationDecision::ClassPolicy => "class-policy",
            ReservationDecision::DefaultAlgorithm => "default-algorithm",
        }
    }
}

/// Run the dispatcher.
///
/// `is_occupant_of_current` — is the portable a regular occupant of its
/// *current* cell (meaningful when that cell is an office)?
pub(crate) fn decide(
    current_class: CellClass,
    is_occupant_of_current: bool,
    prediction: Prediction,
) -> ReservationDecision {
    // Rule 1: the portable's own profile always wins.
    if prediction.level == PredictionLevel::PortableProfile {
        return ReservationDecision::PerConnection(
            prediction.cell.invariant("level-1 prediction has a cell"),
        );
    }
    match current_class {
        CellClass::Office => {
            match prediction.level {
                // Rule 2(office).1: neighbouring office occupancy.
                PredictionLevel::OccupantOffice => ReservationDecision::PerConnection(
                    prediction.cell.invariant("occupant prediction has a cell"),
                ),
                // Rule 2(office).2: the portable belongs here.
                _ if is_occupant_of_current => ReservationDecision::NoReservation,
                // Rule 2(office).3: aggregate history.
                PredictionLevel::CellAggregate => ReservationDecision::PerConnection(
                    prediction.cell.invariant("aggregate prediction has a cell"),
                ),
                _ => ReservationDecision::DefaultAlgorithm,
            }
        }
        CellClass::Corridor => match prediction.level {
            PredictionLevel::OccupantOffice | PredictionLevel::CellAggregate => {
                ReservationDecision::PerConnection(
                    prediction.cell.invariant("prediction has a cell"),
                )
            }
            _ => ReservationDecision::DefaultAlgorithm,
        },
        CellClass::Lounge(_) => ReservationDecision::ClassPolicy,
    }
}

/// `decide`, with the outcome emitted as a
/// [`ReservationDispatch`](ObsEvent::ReservationDispatch) trace event.
///
/// The decision is computed first and observed after, so an attached
/// observer can never influence it; with `obs` off this is exactly
/// `decide` plus one branch.
pub fn decide_traced(
    current_class: CellClass,
    is_occupant_of_current: bool,
    prediction: Prediction,
    now: SimTime,
    portable: PortableId,
    obs: &mut Obs,
) -> ReservationDecision {
    let decision = decide(current_class, is_occupant_of_current, prediction);
    obs.emit_with(|| ObsEvent::ReservationDispatch {
        t: now,
        portable,
        decision: decision.label().to_string(),
    });
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_profiles::LoungeKind;

    fn pred(level: PredictionLevel, cell: Option<u32>) -> Prediction {
        Prediction {
            cell: cell.map(CellId),
            level,
        }
    }

    #[test]
    fn portable_profile_beats_everything() {
        for class in [
            CellClass::Office,
            CellClass::Corridor,
            CellClass::Lounge(LoungeKind::MeetingRoom),
        ] {
            let d = decide(class, true, pred(PredictionLevel::PortableProfile, Some(9)));
            assert_eq!(d, ReservationDecision::PerConnection(CellId(9)));
        }
    }

    #[test]
    fn office_occupant_stays_put() {
        let d = decide(
            CellClass::Office,
            true,
            pred(PredictionLevel::Default, None),
        );
        assert_eq!(d, ReservationDecision::NoReservation);
        // Even with an aggregate prediction available, an occupant of the
        // current office makes no advance reservation.
        let d = decide(
            CellClass::Office,
            true,
            pred(PredictionLevel::CellAggregate, Some(4)),
        );
        assert_eq!(d, ReservationDecision::NoReservation);
    }

    #[test]
    fn office_visitor_with_own_office_next_door() {
        let d = decide(
            CellClass::Office,
            false,
            pred(PredictionLevel::OccupantOffice, Some(3)),
        );
        assert_eq!(d, ReservationDecision::PerConnection(CellId(3)));
    }

    #[test]
    fn office_stranger_uses_aggregate_then_default() {
        let d = decide(
            CellClass::Office,
            false,
            pred(PredictionLevel::CellAggregate, Some(7)),
        );
        assert_eq!(d, ReservationDecision::PerConnection(CellId(7)));
        let d = decide(
            CellClass::Office,
            false,
            pred(PredictionLevel::Default, None),
        );
        assert_eq!(d, ReservationDecision::DefaultAlgorithm);
    }

    #[test]
    fn corridor_rules() {
        let d = decide(
            CellClass::Corridor,
            false,
            pred(PredictionLevel::OccupantOffice, Some(2)),
        );
        assert_eq!(d, ReservationDecision::PerConnection(CellId(2)));
        let d = decide(
            CellClass::Corridor,
            false,
            pred(PredictionLevel::CellAggregate, Some(5)),
        );
        assert_eq!(d, ReservationDecision::PerConnection(CellId(5)));
        let d = decide(
            CellClass::Corridor,
            false,
            pred(PredictionLevel::Default, None),
        );
        assert_eq!(d, ReservationDecision::DefaultAlgorithm);
    }

    #[test]
    fn traced_wrapper_matches_decide_and_emits() {
        let mut obs = arm_obs::Obs::recording(8);
        let p = pred(PredictionLevel::PortableProfile, Some(9));
        let d = decide_traced(
            CellClass::Office,
            false,
            p,
            SimTime::from_secs(4),
            PortableId(3),
            &mut obs,
        );
        assert_eq!(d, decide(CellClass::Office, false, p));
        let events = obs.snapshot_events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            ObsEvent::ReservationDispatch {
                t,
                portable,
                decision,
            } => {
                assert_eq!(*t, SimTime::from_secs(4));
                assert_eq!(*portable, PortableId(3));
                assert_eq!(decision, "per-connection");
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Off path: same decision, nothing recorded.
        let mut off = arm_obs::Obs::off();
        let d2 = decide_traced(
            CellClass::Office,
            false,
            p,
            SimTime::from_secs(4),
            PortableId(3),
            &mut off,
        );
        assert_eq!(d2, d);
        assert_eq!(off.total_events(), 0);
    }

    #[test]
    fn lounges_defer_to_class_policy() {
        for kind in [
            LoungeKind::MeetingRoom,
            LoungeKind::Cafeteria,
            LoungeKind::Default,
        ] {
            let d = decide(
                CellClass::Lounge(kind),
                false,
                pred(PredictionLevel::CellAggregate, Some(1)),
            );
            assert_eq!(d, ReservationDecision::ClassPolicy);
        }
    }
}
