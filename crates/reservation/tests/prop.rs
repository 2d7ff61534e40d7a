//! Property-based tests for the reservation algorithms.

use arm_reservation::cafeteria::{least_squares_params, predict_next, CafeteriaPredictor};
use arm_reservation::meeting::{BookingCalendar, Meeting, MeetingRoomPolicy};
use arm_reservation::probabilistic::{
    binom_pmf, ProbabilisticConfig, ProbabilisticReservation, TypeState,
};
use arm_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Binomial pmfs are distributions with the right mean.
    #[test]
    fn binom_pmf_is_a_distribution(n in 0u32..80, p in 0.0f64..1.0) {
        let pmf = binom_pmf(n, p);
        prop_assert_eq!(pmf.len(), n as usize + 1);
        let sum: f64 = pmf.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let mean: f64 = pmf.iter().enumerate().map(|(k, q)| k as f64 * q).sum();
        prop_assert!((mean - f64::from(n) * p).abs() < 1e-6);
        prop_assert!(pmf.iter().all(|q| *q >= -1e-15));
    }

    /// P_nb is a probability, decreasing in every admitted count and in
    /// the neighbour population.
    #[test]
    fn nonblocking_prob_properties(
        window in 0.01f64..0.5,
        n1 in 0u32..30,
        s1 in 0u32..30,
        n2 in 0u32..6,
        s2 in 0u32..6,
    ) {
        let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(window, 0.01));
        let types = |n1, s1, n2, s2| vec![
            TypeState { b_min: 1.0, mu: 5.0, n_current: n1, s_neighbor: s1 },
            TypeState { b_min: 4.0, mu: 4.0, n_current: n2, s_neighbor: s2 },
        ];
        let t = types(n1, s1, n2, s2);
        let p = solver.nonblocking_prob(&t, &[n1, n2]);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        // One more admitted type-1 connection can only hurt.
        let p_more = solver.nonblocking_prob(&t, &[n1 + 1, n2]);
        prop_assert!(p_more <= p + 1e-12);
        // A larger neighbour population can only hurt.
        let t2 = types(n1, s1 + 5, n2, s2);
        let p_crowded = solver.nonblocking_prob(&t2, &[n1, n2]);
        prop_assert!(p_crowded <= p + 1e-12);
    }

    /// `max_admissible` always meets eqn 6 and is component-maximal.
    #[test]
    fn max_admissible_is_valid_and_maximal(
        window in 0.02f64..0.3,
        p_qos in 0.005f64..0.2,
        n1 in 0u32..20,
        s1 in 0u32..20,
    ) {
        let solver = ProbabilisticReservation::new(ProbabilisticConfig::fig6(window, p_qos));
        let types = vec![
            TypeState { b_min: 1.0, mu: 5.0, n_current: n1, s_neighbor: s1 },
            TypeState { b_min: 4.0, mu: 4.0, n_current: 1, s_neighbor: 1 },
        ];
        let n = solver.max_admissible(&types);
        prop_assert!(n[0] >= n1 && n[1] >= 1);
        // Current population may already break the target (it is a lower
        // bound); only check eqn 6 when we actually grew.
        if n[0] > n1 || n[1] > 1 {
            prop_assert!(
                solver.nonblocking_prob(&types, &n) >= 1.0 - p_qos - 1e-9
            );
        }
        let resv = solver.reserved_bandwidth(&types, &n);
        prop_assert!(resv >= -1e-9);
        prop_assert!(resv <= solver.cfg.capacity + 1e-9);
    }

    /// The closed-form least squares always matches the textbook fit and
    /// extrapolates any exact line exactly.
    #[test]
    fn least_squares_fits_lines(a in -5.0f64..5.0, m in 0.0f64..50.0, t in 2.0f64..100.0) {
        let n0 = a * (t - 2.0) + m;
        let n1 = a * (t - 1.0) + m;
        let n2 = a * t + m;
        let (ga, gm) = least_squares_params(n0, n1, n2, t);
        prop_assert!((ga - a).abs() < 1e-6, "slope {ga} vs {a}");
        prop_assert!((gm - m).abs() < 1e-5, "intercept {gm} vs {m}");
        let pred = predict_next(n0, n1, n2, t);
        let truth = (a * (t + 1.0) + m).max(0.0);
        prop_assert!((pred - truth).abs() < 1e-5);
    }

    /// The sliding predictor never yields negative handoff counts.
    #[test]
    fn cafeteria_predictor_is_nonnegative(samples in prop::collection::vec(0.0f64..40.0, 0..30)) {
        let mut p = CafeteriaPredictor::new();
        for s in samples {
            p.observe(s);
            prop_assert!(p.predict() >= 0.0);
        }
    }

    /// Meeting-policy demands are always nonnegative and bounded by the
    /// booked attendance, whatever the arrival/departure sequence.
    #[test]
    fn meeting_demands_bounded(
        expected in 1u32..60,
        arrivals in 0u32..80,
        departures in 0u32..80,
        query_min in 0u64..200,
    ) {
        let mut cal = BookingCalendar::new();
        cal.book(Meeting {
            t_start: SimTime::from_mins(60),
            t_end: SimTime::from_mins(110),
            expected,
        });
        let mut p = MeetingRoomPolicy::new(cal, 28.0);
        for _ in 0..arrivals {
            p.on_arrival(SimTime::from_mins(55));
        }
        for _ in 0..departures {
            p.on_departure(SimTime::from_mins(111));
        }
        let q = SimTime::from_mins(query_min);
        let room = p.room_demand(q);
        let neigh = p.neighbor_demand(q);
        prop_assert!(room >= 0.0 && neigh >= 0.0);
        prop_assert!(room <= f64::from(expected) * 28.0 + 1e-9);
        prop_assert!(neigh <= f64::from(expected) * 28.0 + 1e-9);
    }
}
