//! The §7.1 office-case experiment.
//!
//! Replays the Figure 4 workweek trace, feeding the profile server, and
//! measures (a) the three-level prediction's accuracy on each C→D
//! traversal, and (b) the bandwidth-time each reservation scheme would
//! waste — quantifying the paper's two conclusions: "deterministic
//! reservation for only the occupants of an office cell is valid" and
//! "brute force advance reservation in all neighboring cells of a current
//! cell is extremely wasteful".

use std::collections::BTreeMap;

use arm_mobility::environment::Figure4;
use arm_mobility::models::office_case::{self, OfficeCaseParams};
use arm_mobility::MobilityTrace;
use arm_net::ids::PortableId;
use arm_profiles::prediction::PredictionLevel;
use arm_profiles::ProfileServer;
use arm_sim::{Audited, SimRng};

/// Accuracy accounting for one population.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    /// Predictions attempted (a prediction existed).
    pub predicted: u64,
    /// Predictions that matched the actual next cell.
    pub correct: u64,
    /// Moves with no prediction (level 3).
    pub unpredicted: u64,
}

impl Accuracy {
    /// Hit rate over attempted predictions.
    pub fn hit_rate(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.correct as f64 / self.predicted as f64
        }
    }
}

/// The experiment's outputs.
#[derive(Clone, Debug)]
pub struct OfficeCaseResult {
    /// Paper-style fan-out counts: (population label, C→D total, →A, →B,
    /// →F/G).
    pub fanout: Vec<(String, usize, usize, usize, usize)>,
    /// Prediction accuracy per population.
    pub accuracy: BTreeMap<String, Accuracy>,
    /// Reserved cell-seconds per scheme (brute force / aggregate /
    /// prediction) — one "cell-second" = one user's floor reserved in one
    /// cell for one second.
    pub reserved_cell_seconds: BTreeMap<String, f64>,
    /// Total dwell that ended in a handoff: one cell held for the whole
    /// of every such dwell. It is the aggregate scheme's bill by
    /// construction, and the denominator of the printed ratios. It is no
    /// lower bound: prediction releases its claim once a portable turns
    /// static, so it bills less.
    pub dwell_cell_seconds: f64,
}

/// Run the workweek with the paper's default counts.
pub fn run(seed: u64) -> OfficeCaseResult {
    run_with(&OfficeCaseParams::default(), seed)
}

/// Run with explicit counts.
pub(crate) fn run_with(params: &OfficeCaseParams, seed: u64) -> OfficeCaseResult {
    let f4 = Figure4::build();
    let mut rng = SimRng::new(seed);
    let trace = office_case::generate(&f4, params, &mut rng);
    analyze(&f4, &trace)
}

/// Analyse an arbitrary Figure 4 trace.
pub(crate) fn analyze(f4: &Figure4, trace: &MobilityTrace) -> OfficeCaseResult {
    let mut server = ProfileServer::new(arm_net::ids::ZoneId(0));
    f4.env.seed_profiles(&mut server);

    let label = |p: PortableId| -> String {
        if p == f4.faculty {
            "faculty".into()
        } else if f4.students.contains(&p) {
            "students".into()
        } else {
            "others".into()
        }
    };

    let mut accuracy: BTreeMap<String, Accuracy> = BTreeMap::new();
    let mut reserved: BTreeMap<String, f64> = BTreeMap::new();
    for k in ["brute-force", "aggregate", "prediction"] {
        reserved.insert(k.into(), 0.0);
    }
    let mut dwell_total = 0.0;

    // Track each portable's dwell start to weigh reservations by time.
    let mut dwell_start: BTreeMap<PortableId, arm_sim::SimTime> = BTreeMap::new();

    for ev in trace.events() {
        let who = label(ev.portable);
        if let Some(from) = ev.from {
            // Score the prediction made while the portable dwelt in
            // `from` (with the context the server had *before* this
            // move was recorded).
            let pred = server.predict_at(
                ev.portable,
                server.context(ev.portable).and_then(|(prev, _)| prev),
                from,
            );
            let acc = accuracy.entry(who.clone()).or_default();
            match pred.level {
                PredictionLevel::Default => acc.unpredicted += 1,
                _ => {
                    acc.predicted += 1;
                    if pred.cell == Some(ev.to) {
                        acc.correct += 1;
                    }
                }
            }
            // Reservation accounting over the dwell that just ended.
            let dwell = ev
                .time
                .saturating_since(dwell_start.get(&ev.portable).copied().unwrap_or(ev.time))
                .as_secs_f64();
            let n_neighbors = f4.env.neighbors(from).count() as f64;
            *reserved.get_mut("brute-force").invariant("seeded") += dwell * n_neighbors;
            // Aggregate spreads one user's worth across neighbours: one
            // cell-equivalent total.
            *reserved.get_mut("aggregate").invariant("seeded") += dwell;
            // The paper's scheme reserves in exactly one cell — and only
            // while the portable is *mobile*: once it dwells past T_th
            // (5 min) it is reclassified static and its claim released
            // (§3.4.2), so long office/corridor sojourns cost nothing.
            if pred.cell.is_some() {
                *reserved.get_mut("prediction").invariant("seeded") += dwell.min(300.0);
            }
            dwell_total += dwell;
            server.record_handoff(
                ev.portable,
                server.context(ev.portable).and_then(|(prev, _)| prev),
                from,
                ev.to,
                ev.time,
            );
        } else {
            server.portable_entered(ev.portable, ev.to);
        }
        dwell_start.insert(ev.portable, ev.time);
    }

    // Fan-out table.
    let mut fanout = Vec::new();
    let pops: Vec<(String, Vec<PortableId>)> = vec![
        ("faculty".into(), vec![f4.faculty]),
        ("students".into(), f4.students.to_vec()),
        ("all".into(), trace.portables()),
    ];
    for (name, members) in pops {
        let count = |from, to| {
            let of = |p: &PortableId| trace.count_transition_of(*p, from, to);
            members.iter().map(of).sum::<usize>()
        };
        fanout.push((
            name,
            count(f4.c, f4.d),
            count(f4.d, f4.a),
            count(f4.e, f4.b),
            count(f4.e, f4.f),
        ));
    }

    OfficeCaseResult {
        fanout,
        accuracy,
        reserved_cell_seconds: reserved,
        dwell_cell_seconds: dwell_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_reproduces_paper_counts() {
        let r = run(42);
        let faculty = r.fanout.iter().find(|f| f.0 == "faculty").expect("row");
        assert_eq!((faculty.1, faculty.2, faculty.3), (127, 94, 20));
        let students = r.fanout.iter().find(|f| f.0 == "students").expect("row");
        assert_eq!((students.1, students.2, students.3), (218, 12, 173));
        let all = r.fanout.iter().find(|f| f.0 == "all").expect("row");
        assert_eq!(all.1, 1384);
    }

    #[test]
    fn regulars_become_predictable() {
        let r = run(42);
        // Faculty and students have strong habits: after the profile
        // warms up their predictions are mostly right.
        let fac = r.accuracy.get("faculty").expect("faculty accuracy");
        assert!(fac.hit_rate() > 0.55, "faculty hit rate {}", fac.hit_rate());
        let stu = r.accuracy.get("students").expect("student accuracy");
        assert!(stu.hit_rate() > 0.55, "student hit rate {}", stu.hit_rate());
    }

    #[test]
    fn brute_force_is_extremely_wasteful() {
        let r = run(42);
        let bf = r.reserved_cell_seconds["brute-force"];
        let agg = r.reserved_cell_seconds["aggregate"];
        let pred = r.reserved_cell_seconds["prediction"];
        // The paper's conclusion (b): brute force reserves a multiple of
        // what prediction does.
        assert!(bf > 2.0 * pred, "bf={bf} pred={pred}");
        assert!(bf >= agg && agg >= pred, "bf={bf} agg={agg} pred={pred}");
        // Aggregate holds one cell for every dwell: it is the dwell total.
        assert_eq!(agg.to_bits(), r.dwell_cell_seconds.to_bits());

        // Brute force holds every neighbour for every dwell, so its bill
        // over the dwell total is the dwell-weighted mean neighbour count.
        let f4 = Figure4::build();
        let trace = office_case::generate(&f4, &OfficeCaseParams::default(), &mut SimRng::new(42));
        let mut start: BTreeMap<PortableId, arm_sim::SimTime> = BTreeMap::new();
        let (mut weighted, mut total) = (0.0, 0.0);
        for ev in trace.events() {
            if let Some(from) = ev.from {
                let began = start.get(&ev.portable).copied().unwrap_or(ev.time);
                let dwell = ev.time.saturating_since(began).as_secs_f64();
                weighted += dwell * f4.env.neighbors(from).count() as f64;
                total += dwell;
            }
            start.insert(ev.portable, ev.time);
        }
        let mean_neighbours = weighted / total;
        // Both sides sum the same terms in the same order; the tolerance
        // covers the one division.
        assert!(
            (bf / agg - mean_neighbours).abs() < 1e-12,
            "bf/agg={} mean neighbours={mean_neighbours}",
            bf / agg
        );
    }
}
