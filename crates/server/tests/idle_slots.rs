//! How much of the shipped office week is idle, counted exactly: the
//! slot ticks a server runs over the seed-42 `office_week` stream, how
//! many of the one-minute slots they close held no event, and how many
//! of those came after the third slot of an empty run. Only those last
//! ticks could be skipped by a predictor that advances in closed form
//! once its three-slot window is all zeros (ROADMAP item 16), so they
//! bound what skipping idle gaps can save on this workload.

use arm_server::drill::events_from_scenario;
use arm_server::{ServerConfig, ServerEvent};
use arm_sim::{FaultSchedule, SimTime};

/// The slot ticks `times` (ascending) make a server run, as
/// `Server::apply_event` runs them: one at every slot boundary `s` with
/// `last < s ≤ t` before the event at `t`. A tick closes the slot of the
/// minute before it; it is empty when no event fell in that minute.
/// Returns `(ticks, empty, empty after the third of a run)`.
fn slot_structure(times: &[SimTime]) -> (u64, u64, u64) {
    let slot = arm_core::SLOT.ticks();
    let (mut ticks, mut empty, mut deep) = (0, 0, 0);
    let (mut next, mut run, mut held) = (slot, 0u64, false);
    for t in times {
        while t.ticks() >= next {
            ticks += 1;
            if held {
                run = 0;
            } else {
                empty += 1;
                run += 1;
                if run > 3 {
                    deep += 1;
                }
            }
            held = false;
            next += slot;
        }
        held = true;
    }
    (ticks, empty, deep)
}

#[test]
fn the_office_week_idles_this_many_slots() {
    let cfg = ServerConfig::office(42);
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("a valid scenario");
    let times: Vec<SimTime> = events.iter().map(ServerEvent::time).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "a stream in time order"
    );
    assert_eq!(slot_structure(&times), (2_394, 1_207, 419));
}
