//! Advance-reservation calendar: moldable bulk transfers and atomic
//! multi-link co-allocation over the slotted schedule (DESIGN.md §11).
//!
//! Demonstrates, against the Figure 4 environment with a deliberately
//! tight backbone:
//!
//! 1. a bulk transfer that cannot fit at its requested rate **molds** —
//!    stretching its duration at a lower per-slot rate, conserving
//!    volume, within its deadline;
//! 2. an atomic co-allocation across the full cell-to-cell path that
//!    admits when every leg fits, and
//! 3. the same request at a higher rate **rejected whole** — no leg is
//!    booked when any leg fails (all-or-nothing).
//!
//! The run report carries the calendar's observability stream
//! (`ReservationConfirmed` / `ReservationMolded` /
//! `CoAllocationOutcome`) so CI can assert the schema holds.

use arm_bench::report;
use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_net::ids::CellId;
use arm_obs::{EventKind, Obs, RunReport};
use arm_resv_cal::{ReservationState, ResvOrigin};
use arm_server::drill::events_from_scenario;
use arm_server::{Server, ServerConfig};
use arm_sim::{FaultSchedule, SimDuration, SimTime};

const SEED: u64 = 2026;

/// Figure 4 with a tight 2 Mbps backbone so per-slot scarcity is real:
/// the 800 kbps wireless uplink is the path bottleneck.
fn cfg() -> ServerConfig {
    ServerConfig {
        scenario: Scenario {
            name: "expt-advance".into(),
            environment: EnvSpec::Figure4,
            mobility: MobilitySpec::RandomWalk {
                population: 6,
                mean_dwell_secs: 120,
                span_mins: 15,
            },
            workload: WorkloadSpec::None,
            strategy: Strategy::Paper,
            cell_throughput_kbps: 800.0,
            backbone_kbps: 2_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed: SEED,
        },
        slot: SimDuration::from_mins(1),
        checkpoint_every: 64,
        backlog_capacity: 64,
    }
}

fn main() {
    println!("== Advance reservations: moldable bulk transfers & co-allocation ==\n");
    let cfg = cfg();
    let mut rep = RunReport::new("expt_advance", "advance-reservation-calendar");
    rep.seed = Some(SEED);

    let mut server = Server::new(cfg.clone(), Obs::recording(65_536)).expect("valid scenario");
    let slot = server.mgr.calendar.current_slot();
    let now = SimTime::ZERO;

    // Scarcity fixture: a competing booking holds 500 kbps of the
    // 800 kbps wireless uplink of cell 0 across slots [2, 8).
    let uplink = server.mgr.path_cache().uplink(CellId(0)).expect("uplink")[0];
    let held = server
        .mgr
        .calendar
        .request(uplink, slot + 2, slot + 8, 500.0, ResvOrigin::BulkTransfer)
        .expect("competing booking fits");
    server.mgr.calendar.confirm(held).expect("confirms");
    println!("competing load: 500.0 kbps on {uplink:?}, slots [2, 8)");

    // 1. Moldable bulk transfer: 500 kbps × 2 slots (1000 kbit·s of
    // volume) cannot fit beside the competing load — it must stretch.
    let bulk = server
        .mgr
        .book_bulk_transfer(CellId(0), slot + 2, 2, 500.0, slot + 12, now)
        .expect("bulk transfer molds into the deadline");
    assert!(bulk.molded, "fixture must force a moldable stretch");
    println!(
        "bulk transfer:  wanted 500.0 kbps x 2 slots -> molded to {:.1} kbps x {} slots ({})",
        bulk.rate_kbps, bulk.slots, bulk.group
    );
    rep.notes.push(format!(
        "moldable: 500 kbps x 2 slots molded to {:.1} kbps x {} slots (volume conserved)",
        bulk.rate_kbps, bulk.slots
    ));

    // 2. Atomic co-allocation along the full cell 0 -> cell 2 path,
    // sized to fit the uplink headroom left by the bookings above.
    let admitted = server
        .mgr
        .book_co_allocation(CellId(0), CellId(2), 40.0, slot + 2, slot + 4, now)
        .expect("40 kbps co-allocation admits");
    println!(
        "co-allocation:  40.0 kbps cell0->cell2, slots [2, 4): admitted as {} ({} legs)",
        admitted.group,
        admitted.ids.len()
    );

    // 3. The same path at 100 kbps exceeds the remaining headroom on
    // the shared uplink — rejected whole, nothing booked.
    let live_before = server.mgr.calendar.live_count();
    let rejected =
        server
            .mgr
            .book_co_allocation(CellId(0), CellId(2), 100.0, slot + 2, slot + 4, now);
    assert!(rejected.is_err(), "fixture must force a rejection");
    assert_eq!(
        server.mgr.calendar.live_count(),
        live_before,
        "a rejected group must book nothing"
    );
    if let Err(e) = rejected {
        println!("co-allocation: 100.0 kbps cell0->cell2, slots [2, 4): rejected ({e})");
        rep.notes.push(format!(
            "co-allocation: 40 kbps admitted ({} legs), 100 kbps rejected whole: {e}",
            admitted.ids.len()
        ));
    }

    // Drive the scenario's event stream so slot rolls consume the
    // calendar: bookings activate, expire, and release their claims.
    let events =
        events_from_scenario(&cfg.scenario, &FaultSchedule::empty()).expect("valid scenario");
    for ev in &events {
        server.apply_event(ev).expect("generated events are valid");
    }
    let drained = server
        .mgr
        .calendar
        .reservations()
        .filter(|r| r.state == ReservationState::Expired)
        .count();
    println!(
        "\nslot rolls consumed the calendar: {} reservations expired, {} still live",
        drained,
        server.mgr.calendar.live_count()
    );
    rep.notes.push(format!(
        "slot-roll consumption: {drained} reservations expired after replaying {} events",
        events.len()
    ));

    let obs = &server.mgr.obs;
    let confirmed = obs.count(EventKind::ReservationConfirmed);
    let molded = obs.count(EventKind::ReservationMolded);
    let coalloc = obs.count(EventKind::CoAllocationOutcome);
    assert!(molded >= 1, "report must show a moldable stretch");
    assert!(coalloc >= 2, "report must show the admit/reject pair");
    println!(
        "observed: {confirmed} ReservationConfirmed, {molded} ReservationMolded, \
         {coalloc} CoAllocationOutcome"
    );
    obs.fill_report(&mut rep);
    report::emit_or_warn(&rep);
}
