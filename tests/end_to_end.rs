//! End-to-end reproduction checks: every headline claim of the paper's
//! evaluation, asserted on a full run (these are the same drivers the
//! `expt_*` binaries print from).

use arm_bench::fig5;
use arm_core::driver::fig6::{AdmissionPolicy, Fig6Params};
use arm_core::driver::{fig6, office};

#[test]
fn sec71_office_case_headline() {
    let r = office::run(42);
    // The measured fan-out, exactly.
    let faculty = r.fanout.iter().find(|f| f.0 == "faculty").expect("row");
    assert_eq!(
        (faculty.1, faculty.2, faculty.3),
        (127, 94, 20),
        "faculty fan-out"
    );
    let students = r.fanout.iter().find(|f| f.0 == "students").expect("row");
    assert_eq!((students.1, students.2, students.3), (218, 12, 173));
    let all = r.fanout.iter().find(|f| f.0 == "all").expect("row");
    assert_eq!(all.1, 1384);
    // Conclusion (a): occupants are predictable.
    assert!(r.accuracy["faculty"].hit_rate() > 0.8);
    assert!(r.accuracy["students"].hit_rate() > 0.8);
    // Conclusion (b): brute force is wasteful relative to prediction.
    assert!(r.reserved_cell_seconds["brute-force"] > 4.0 * r.reserved_cell_seconds["prediction"]);
}

#[test]
fn fig5_meeting_room_headline() {
    // Lecture of 35 (paper: 2/0/0) — shape: the meeting algorithm is
    // perfect and brute force loses the most victims overall. (The
    // paper's exact per-algorithm counts are single-draw artefacts;
    // attendee drops number in the low single digits, so the robust
    // ordering counts attendees + walk-bys.)
    let lecture = fig5::compare(35, 42);
    assert!(lecture[0].drops > 0, "brute force");
    assert!(
        lecture[0].drops + lecture[0].walkby_drops > lecture[1].drops + lecture[1].walkby_drops,
        "brute force must hurt more than aggregate"
    );
    assert_eq!(lecture[2].drops, 0, "meeting room");
    assert_eq!(lecture[2].walkby_drops, 0, "meeting room walk-bys");
    // Laboratory of 55 (paper: 7/4/0) — ordering with a nonzero middle.
    let lab = fig5::compare(55, 42);
    assert!(
        lab[0].drops + lab[0].walkby_drops > lab[1].drops + lab[1].walkby_drops,
        "bf {}+{} > agg {}+{}",
        lab[0].drops,
        lab[0].walkby_drops,
        lab[1].drops,
        lab[1].walkby_drops
    );
    assert!(lab[1].drops > 0);
    assert_eq!(lab[2].drops, 0, "meeting room never drops");
    // Figure 5's series shape: classroom arrivals cluster in the window
    // around the start; corridor activity dominates throughout.
    let r = &lab[2];
    let peak = r.into_room.peak_slot().expect("arrivals");
    assert!((19..=32).contains(&peak), "arrival peak at minute {peak}");
    assert!(r.corridor_activity.total() > r.into_room.total());
    // Departures cluster after the end (minute 80+).
    let dep_peak = r.out_of_room.peak_slot().expect("departures");
    assert!(
        (80..=86).contains(&dep_peak),
        "departure peak at {dep_peak}"
    );
}

#[test]
fn fig5_drop_counts_are_pinned_beyond_seed_42() {
    // (attendee drops, walk-by drops, blocks) for brute force,
    // aggregate and the meeting-room algorithm, on two more draws.
    let cases = [
        (1, 35, [(1, 10, 0), (2, 6, 0), (0, 0, 0)]),
        (1, 55, [(9, 42, 0), (7, 41, 0), (0, 0, 0)]),
        (7, 35, [(0, 13, 0), (2, 9, 0), (0, 0, 0)]),
        (7, 55, [(8, 51, 0), (7, 49, 0), (0, 0, 0)]),
    ];
    for (seed, n, want) in cases {
        let got: Vec<_> = fig5::compare(n, seed)
            .iter()
            .map(|r| (r.drops, r.walkby_drops, r.blocks))
            .collect();
        assert_eq!(got, want, "seed {seed}, N={n}");
    }
}

#[test]
fn fig6_probabilistic_algorithm_headline() {
    let params = Fig6Params {
        span_units: 1200.0,
        ..Default::default()
    };
    // The trade-off: as P_QOS loosens along one curve, P_b falls and P_d
    // rises (weakly, given finite-run noise at the extremes).
    let pts = fig6::curve(0.05, &[0.001, 0.01, 0.1, 0.8], params);
    let first = pts.first().expect("points").1;
    let last = pts.last().expect("points").1;
    assert!(first.p_b > last.p_b, "{} vs {}", first.p_b, last.p_b);
    assert!(first.p_d < last.p_d, "{} vs {}", first.p_d, last.p_d);
    // All curves coincide at large P_d (they all become "admit if it
    // fits"): compare two windows at P_QOS = 0.8.
    let a = fig6::curve(0.01, &[0.8], params)[0].1;
    let b = fig6::curve(0.25, &[0.8], params)[0].1;
    assert!((a.p_b - b.p_b).abs() < 0.01);
    assert!((a.p_d - b.p_d).abs() < 0.01);
    // The probabilistic scheme beats no-protection on P_d at its tight
    // end.
    let unprotected = fig6::run(AdmissionPolicy::None, params);
    assert!(first.p_d < unprotected.p_d);
}

#[test]
fn fig6_static_reservation_is_dominated() {
    // The paper's closing claim: "our reservation algorithm outperforms
    // the static reservation algorithm in all scenarios we have
    // simulated" — at comparable blocking, the probabilistic algorithm
    // drops no more.
    let params = Fig6Params {
        span_units: 3000.0,
        ..Default::default()
    };
    let stat = fig6::run(AdmissionPolicy::StaticReservation { reserved: 4.0 }, params);
    // P_d at these operating points is ~4e-4 — tens of drops over the
    // run — so weak dominance is asserted up to the counting noise of a
    // handful of drops (5e-5 ≈ 20 of ~420k handoffs).
    let noise = 5e-5;
    let mut dominated = false;
    for p_qos in [0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001] {
        let p = fig6::run(
            AdmissionPolicy::Probabilistic {
                window_t: 0.05,
                p_qos,
            },
            params,
        );
        if p.p_b <= stat.p_b + 1e-9 && p.p_d <= stat.p_d + noise {
            dominated = true;
            break;
        }
    }
    assert!(
        dominated,
        "some probabilistic point weakly dominates static"
    );
}
