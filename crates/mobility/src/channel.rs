//! Time-varying wireless channel (the paper's §2.1 motivation).
//!
//! "Wireless media are prone to error; thus standard assumptions such as
//! negligible channel error are not true in the wireless scenario" and
//! QoS bounds are "especially meaningful for the time-varying effective
//! capacity of the wireless link".
//!
//! The model is the classic two-state Gilbert–Elliott chain per cell:
//! the medium alternates between a **good** state (full effective
//! capacity) and a **bad** (faded) state where only a fraction of the
//! nominal capacity is usable. Sojourn times are exponential. The
//! generator emits a deterministic, time-sorted event list the resource
//! manager replays against its links.

use std::fmt;

use arm_net::ids::CellId;
use arm_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Rejected channel parameters: `bad_fraction` outside `(0, 1]` (the
/// faded medium must retain *some* capacity and cannot exceed nominal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BadFractionError(pub f64);

impl fmt::Display for BadFractionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad_fraction must be in (0, 1], got {}", self.0)
    }
}

impl std::error::Error for BadFractionError {}

/// One effective-capacity change.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelEvent {
    /// When the state flips.
    pub time: SimTime,
    /// Which cell's medium.
    pub cell: CellId,
    /// New effective fraction of the nominal capacity, in `(0, 1]`.
    pub effective_fraction: f64,
}

/// Gilbert–Elliott parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Mean sojourn in the good state.
    pub mean_good: SimDuration,
    /// Mean sojourn in the bad state.
    pub mean_bad: SimDuration,
    /// Effective capacity fraction while faded.
    pub bad_fraction: f64,
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams {
            mean_good: SimDuration::from_mins(5),
            mean_bad: SimDuration::from_secs(45),
            bad_fraction: 0.6,
        }
    }
}

/// Generate the fade/recover event sequence for one cell over `span`.
/// The medium starts good; events alternate bad/good. Rejects a
/// `bad_fraction` outside `(0, 1]` — parameters arrive from scenario
/// files, so this is an error, not a panic.
pub fn generate(
    cell: CellId,
    params: &ChannelParams,
    span: SimDuration,
    rng: &mut SimRng,
) -> Result<Vec<ChannelEvent>, BadFractionError> {
    if !(params.bad_fraction > 0.0 && params.bad_fraction <= 1.0) {
        return Err(BadFractionError(params.bad_fraction));
    }
    let mut rng = rng.split_index("channel", cell.0 as u64);
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + span;
    loop {
        t += rng.exp_duration(params.mean_good);
        if t >= end {
            break;
        }
        out.push(ChannelEvent {
            time: t,
            cell,
            effective_fraction: params.bad_fraction,
        });
        t += rng.exp_duration(params.mean_bad);
        if t >= end {
            // Recover at the horizon so the run never ends mid-fade.
            out.push(ChannelEvent {
                time: end,
                cell,
                effective_fraction: 1.0,
            });
            break;
        }
        out.push(ChannelEvent {
            time: t,
            cell,
            effective_fraction: 1.0,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_and_ends_recovered() {
        let params = ChannelParams::default();
        let evs = generate(
            CellId(0),
            &params,
            SimDuration::from_mins(120),
            &mut SimRng::new(4),
        )
        .expect("valid params");
        assert!(!evs.is_empty(), "two hours should see some fades");
        // Alternating bad/good, starting bad.
        for (i, e) in evs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(e.effective_fraction, params.bad_fraction);
            } else {
                assert_eq!(e.effective_fraction, 1.0);
            }
        }
        // The last event restores full capacity.
        assert_eq!(evs.last().expect("non-empty").effective_fraction, 1.0);
        // Sorted in time.
        assert!(evs.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn sojourn_means_are_respected() {
        let params = ChannelParams {
            mean_good: SimDuration::from_secs(100),
            mean_bad: SimDuration::from_secs(25),
            bad_fraction: 0.5,
        };
        let evs = generate(
            CellId(0),
            &params,
            SimDuration::from_secs(500_000),
            &mut SimRng::new(9),
        )
        .expect("valid params");
        // Mean bad sojourn ≈ 25 s.
        let mut bad_total = 0.0;
        let mut bad_count = 0;
        for w in evs.windows(2) {
            if w[0].effective_fraction < 1.0 {
                bad_total += w[1].time.since(w[0].time).as_secs_f64();
                bad_count += 1;
            }
        }
        let mean_bad = bad_total / bad_count as f64;
        assert!((mean_bad - 25.0).abs() < 3.0, "mean_bad={mean_bad}");
        // Fade rate ≈ once per 125 s.
        let fades = evs.iter().filter(|e| e.effective_fraction < 1.0).count();
        let rate = 500_000.0 / fades as f64;
        assert!((rate - 125.0).abs() < 10.0, "rate={rate}");
    }

    #[test]
    fn per_cell_streams_are_independent() {
        let params = ChannelParams::default();
        let mut rng = SimRng::new(4);
        let span = SimDuration::from_mins(120);
        let c0 = generate(CellId(0), &params, span, &mut rng).expect("valid params");
        let c1 = generate(CellId(1), &params, span, &mut rng).expect("valid params");
        assert!(!c0.is_empty() && !c1.is_empty());
        assert_ne!(
            c0.first().map(|e| e.time),
            c1.first().map(|e| e.time),
            "distinct fade schedules"
        );
    }

    #[test]
    fn out_of_range_fractions_are_typed_errors() {
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            let params = ChannelParams {
                bad_fraction: bad,
                ..Default::default()
            };
            let err = generate(
                CellId(0),
                &params,
                SimDuration::from_mins(10),
                &mut SimRng::new(1),
            )
            .expect_err("fraction outside (0, 1] must be rejected");
            assert!(err.0.is_nan() && bad.is_nan() || err.0 == bad);
        }
    }
}
