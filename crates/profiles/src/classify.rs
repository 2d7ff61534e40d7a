//! Learning a cell's class from its observed behaviour (§6.4).
//!
//! "In the case that a cell does not have its cell profile, the base
//! station has to execute the default reservation algorithm initially;
//! meanwhile, … the profile server aggregates the handoff information for
//! the cell, executes the different categories of prediction algorithms
//! and tries to categorize the cell on basis of its profile behavior."
//!
//! The features follow Table 1's activity characterisation:
//!
//! * **office** — a small set of regular users dominates the handoffs,
//! * **corridor** — knowing the previous cell, the next cell is highly
//!   predictable (linear movement),
//! * **meeting room** — handoff activity concentrates in rare spikes,
//! * **cafeteria** — activity varies slowly from slot to slot,
//! * **default** — none of the above.

use std::collections::{BTreeMap, BTreeSet};

use arm_sim::{Audited, SimDuration};

use crate::cell::CellProfile;
use crate::class::{CellClass, LoungeKind};

/// Tunable thresholds for the classifier. Defaults chosen to separate the
/// synthetic generators in `arm-mobility`, which mimic the paper's
/// measured environment.
#[derive(Clone, Copy, Debug)]
pub struct ClassifierConfig {
    /// Minimum events before attempting classification at all.
    pub min_events: usize,
    /// Office: at most this many distinct users…
    pub office_max_users: usize,
    /// …who account for at least this fraction of handoffs.
    pub office_regular_fraction: f64,
    /// Corridor: average per-previous-cell directional consistency.
    pub corridor_consistency: f64,
    /// Corridor: at most this fraction of departures may turn back the
    /// way they came (a dead-end room bounces everyone back).
    pub corridor_max_turnaround: f64,
    /// Meeting room: fraction of events inside the busiest 10% of slots.
    pub meeting_spike_fraction: f64,
    /// Cafeteria: mean |slot-to-slot delta| relative to the mean level.
    pub cafeteria_smoothness: f64,
    /// Cafeteria: minimum lag-1 autocorrelation of the slot series (a
    /// systematic ramp correlates; stationary noise does not).
    pub cafeteria_min_autocorr: f64,
    /// Slot width used to build the activity series.
    pub slot: SimDuration,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            min_events: 30,
            office_max_users: 6,
            office_regular_fraction: 0.8,
            corridor_consistency: 0.8,
            corridor_max_turnaround: 0.5,
            meeting_spike_fraction: 0.6,
            cafeteria_smoothness: 0.6,
            cafeteria_min_autocorr: 0.25,
            slot: SimDuration::from_mins(5),
        }
    }
}

/// Feature vector the classifier derives from a cell profile; exposed so
/// experiment binaries can print it.
#[derive(Clone, Debug, PartialEq)]
pub struct CellFeatures {
    /// Number of handoff events inspected.
    pub events: usize,
    /// Distinct portables observed.
    pub distinct_users: usize,
    /// Fraction of handoffs from the `office_max_users` busiest users.
    pub regular_fraction: f64,
    /// Weighted mean of max transition probability per previous cell.
    pub directional_consistency: f64,
    /// Fraction of events inside the busiest 10% of active slots.
    pub spike_fraction: f64,
    /// Mean |Δ| between consecutive slots divided by the mean slot level.
    pub smoothness: f64,
    /// Fraction of departures that return where they came from
    /// (`next == prev`). Near 1 for dead-end rooms, near 0 for corridors
    /// with through-traffic.
    pub turnaround_fraction: f64,
    /// Lag-1 autocorrelation of the slot series: high for a systematic
    /// ramp (cafeteria), near zero for stationary random traffic.
    pub slot_autocorr: f64,
}

/// Extract classification features from a cell's handoff history.
pub fn features(profile: &CellProfile, slot: SimDuration) -> CellFeatures {
    let events: Vec<_> = profile.history().events().copied().collect();
    let n = events.len();
    // Users.
    let mut per_user: BTreeMap<_, usize> = BTreeMap::new();
    for e in &events {
        *per_user.entry(e.portable).or_insert(0) += 1;
    }
    let distinct_users = per_user.len();
    let mut user_counts: Vec<usize> = per_user.values().copied().collect();
    user_counts.sort_unstable_by(|a, b| b.cmp(a));
    let top: usize = user_counts.iter().take(6).sum();
    let regular_fraction = if n == 0 { 0.0 } else { top as f64 / n as f64 };

    // Directional consistency: for each previous cell with ≥2 samples,
    // the max next-cell probability, weighted by sample count.
    let mut by_prev: BTreeMap<_, BTreeMap<_, usize>> = BTreeMap::new();
    for e in &events {
        *by_prev
            .entry(e.prev)
            .or_default()
            .entry(e.next)
            .or_insert(0) += 1;
    }
    let mut consistency_num = 0.0;
    let mut consistency_den = 0.0;
    for nexts in by_prev.values() {
        let total: usize = nexts.values().sum();
        if total < 2 {
            continue;
        }
        let max = *nexts.values().max().invariant("non-empty") as f64;
        consistency_num += max;
        consistency_den += total as f64;
    }
    let directional_consistency = if consistency_den == 0.0 {
        0.0
    } else {
        consistency_num / consistency_den
    };
    let turnarounds = events
        .iter()
        .filter(|e| e.prev.is_some() && e.prev == Some(e.next))
        .count();
    let turnaround_fraction = if n == 0 {
        0.0
    } else {
        turnarounds as f64 / n as f64
    };

    // Activity series.
    let mut slots: BTreeMap<u64, f64> = BTreeMap::new();
    for e in &events {
        *slots.entry(e.time.ticks() / slot.ticks()).or_insert(0.0) += 1.0;
    }
    let (spike_fraction, smoothness, slot_autocorr) = if slots.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let first = *slots.keys().next().invariant("non-empty");
        let last = *slots.keys().last().invariant("non-empty");
        let series: Vec<f64> = (first..=last)
            .map(|k| slots.get(&k).copied().unwrap_or(0.0))
            .collect();
        let total: f64 = series.iter().sum();
        let mut sorted = series.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top_k = ((series.len() as f64 * 0.1).ceil() as usize).max(1);
        let spike: f64 = sorted.iter().take(top_k).sum();
        let spike_fraction = if total == 0.0 { 0.0 } else { spike / total };
        let mean = total / series.len() as f64;
        let mean_delta = if series.len() < 2 {
            0.0
        } else {
            series.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (series.len() - 1) as f64
        };
        let smoothness = if mean == 0.0 { 0.0 } else { mean_delta / mean };
        let var: f64 =
            series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / series.len() as f64;
        let autocorr = if var == 0.0 || series.len() < 3 {
            0.0
        } else {
            series
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum::<f64>()
                / ((series.len() - 1) as f64 * var)
        };
        (spike_fraction, smoothness, autocorr)
    };

    CellFeatures {
        events: n,
        distinct_users,
        regular_fraction,
        directional_consistency,
        spike_fraction,
        smoothness,
        turnaround_fraction,
        slot_autocorr,
    }
}

/// Classify a cell from its profile history; `None` when there is not yet
/// enough history (`min_events`), in which case the base station keeps
/// executing the default reservation algorithm.
pub fn classify(profile: &CellProfile, cfg: &ClassifierConfig) -> Option<CellClass> {
    let f = features(profile, cfg.slot);
    if f.events < cfg.min_events {
        return None;
    }
    // Office: few users, dominated by regulars.
    if f.distinct_users <= cfg.office_max_users && f.regular_fraction >= cfg.office_regular_fraction
    {
        return Some(CellClass::Office);
    }
    // Corridor: movement *through* the cell is directionally consistent
    // — and it must actually be through-traffic, not a dead-end room
    // bouncing its visitors back where they came from.
    if f.directional_consistency >= cfg.corridor_consistency
        && f.turnaround_fraction <= cfg.corridor_max_turnaround
    {
        return Some(CellClass::Corridor);
    }
    // Lounge subclasses by activity shape.
    if f.spike_fraction >= cfg.meeting_spike_fraction {
        return Some(CellClass::Lounge(LoungeKind::MeetingRoom));
    }
    if f.smoothness <= cfg.cafeteria_smoothness && f.slot_autocorr >= cfg.cafeteria_min_autocorr {
        return Some(CellClass::Lounge(LoungeKind::Cafeteria));
    }
    Some(CellClass::Lounge(LoungeKind::Default))
}

/// The set of portables that look like regular occupants: those whose
/// share of the observed handoffs exceeds `1 / (distinct_users + 1)`
/// by a factor of two (used when promoting a learned office).
pub fn infer_occupants(profile: &CellProfile) -> BTreeSet<arm_net::ids::PortableId> {
    let mut per_user: BTreeMap<arm_net::ids::PortableId, usize> = BTreeMap::new();
    let mut total = 0usize;
    for e in profile.history().events() {
        *per_user.entry(e.portable).or_insert(0) += 1;
        total += 1;
    }
    if total == 0 {
        return BTreeSet::new();
    }
    let users = per_user.len().max(1);
    let threshold = 2.0 / (users as f64 + 1.0);
    per_user
        .into_iter()
        .filter(|(_, n)| *n as f64 / total as f64 >= threshold)
        .map(|(p, _)| p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HandoffEvent;
    use arm_net::ids::{CellId, PortableId};
    use arm_sim::SimTime;

    fn cell_with(events: Vec<HandoffEvent>) -> CellProfile {
        let mut c = CellProfile::new(CellId(0), CellClass::Lounge(LoungeKind::Default), 10_000);
        for e in events {
            c.record(e);
        }
        c
    }

    fn hev(p: u32, prev: u32, next: u32, t_min: u64) -> HandoffEvent {
        HandoffEvent {
            portable: PortableId(p),
            prev: Some(CellId(prev)),
            cur: CellId(0),
            next: CellId(next),
            time: SimTime::from_mins(t_min),
        }
    }

    #[test]
    fn office_pattern_detected() {
        // Two regulars in and out all day.
        let mut evs = Vec::new();
        for i in 0..40 {
            evs.push(hev(1 + (i % 2), 5, 6, i as u64 * 13));
        }
        let c = cell_with(evs);
        assert_eq!(
            classify(&c, &ClassifierConfig::default()),
            Some(CellClass::Office)
        );
    }

    #[test]
    fn corridor_pattern_detected() {
        // Many users; whoever came from 5 goes to 6, and vice versa.
        let mut evs = Vec::new();
        for i in 0..60u32 {
            if i % 2 == 0 {
                evs.push(hev(i, 5, 6, i as u64 * 3));
            } else {
                evs.push(hev(i, 6, 5, i as u64 * 3));
            }
        }
        let c = cell_with(evs);
        assert_eq!(
            classify(&c, &ClassifierConfig::default()),
            Some(CellClass::Corridor)
        );
    }

    #[test]
    fn meeting_room_pattern_detected() {
        // Many users; a burst at minutes 0–9 and another at 50–59,
        // nothing in between (class start/end), destinations scattered.
        let mut evs = Vec::new();
        for i in 0..30u32 {
            evs.push(hev(i, (i % 5) + 1, (i % 4) + 10, (i % 10) as u64));
        }
        for i in 30..60u32 {
            evs.push(hev(i, (i % 5) + 1, (i % 4) + 10, 300 + (i % 10) as u64));
        }
        let c = cell_with(evs);
        assert_eq!(
            classify(&c, &ClassifierConfig::default()),
            Some(CellClass::Lounge(LoungeKind::MeetingRoom))
        );
    }

    #[test]
    fn cafeteria_pattern_detected() {
        // Many users; a smooth ramp of activity over lunch hours with
        // scattered directions.
        let mut evs = Vec::new();
        let mut id = 0u32;
        // Activity level per 5-min slot: 2,3,4,5,6,6,5,4,3,2 …
        let levels = [2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2];
        for (slot, lvl) in levels.iter().enumerate() {
            for k in 0..*lvl {
                evs.push(hev(
                    id,
                    (id % 7) + 1,
                    (id % 5) + 10,
                    slot as u64 * 5 + (k % 5) as u64,
                ));
                id += 1;
            }
        }
        let c = cell_with(evs);
        assert_eq!(
            classify(&c, &ClassifierConfig::default()),
            Some(CellClass::Lounge(LoungeKind::Cafeteria))
        );
    }

    #[test]
    fn random_pattern_defaults() {
        // Many users, erratic activity, scattered directions.
        let mut evs = Vec::new();
        // Jumpy levels (pseudo-random but fixed).
        let levels = [5, 0, 7, 1, 0, 6, 0, 8, 2, 0, 5, 0, 9, 0, 1, 7, 0, 3, 0, 6];
        let mut id = 0u32;
        for (slot, lvl) in levels.iter().enumerate() {
            for k in 0..*lvl {
                evs.push(hev(
                    id,
                    (id % 7) + 1,
                    (id % 5) + 10,
                    slot as u64 * 5 + (k % 5) as u64,
                ));
                id += 1;
            }
        }
        let c = cell_with(evs);
        assert_eq!(
            classify(&c, &ClassifierConfig::default()),
            Some(CellClass::Lounge(LoungeKind::Default))
        );
    }

    #[test]
    fn insufficient_history_returns_none() {
        let c = cell_with(vec![hev(1, 5, 6, 0)]);
        assert_eq!(classify(&c, &ClassifierConfig::default()), None);
    }

    #[test]
    fn occupant_inference() {
        let mut evs = Vec::new();
        // Portable 1: 20 events; portable 2: 18; strangers: 1 each.
        for i in 0..20 {
            evs.push(hev(1, 5, 6, i));
        }
        for i in 0..18 {
            evs.push(hev(2, 5, 6, 100 + i));
        }
        for s in 100..104u32 {
            evs.push(hev(s, 5, 6, 200 + s as u64));
        }
        let c = cell_with(evs);
        let occ = infer_occupants(&c);
        assert!(occ.contains(&PortableId(1)));
        assert!(occ.contains(&PortableId(2)));
        assert!(!occ.contains(&PortableId(100)));
    }

    #[test]
    fn features_on_empty_profile() {
        let c = cell_with(vec![]);
        let f = features(&c, SimDuration::from_mins(5));
        assert_eq!(f.events, 0);
        assert_eq!(f.distinct_users, 0);
        assert_eq!(f.spike_fraction, 0.0);
        assert_eq!(f.turnaround_fraction, 0.0);
    }

    #[test]
    fn dead_end_meeting_room_is_not_a_corridor() {
        // A classroom with ONE neighbour: every departure goes back to
        // the corridor it came from — perfectly "consistent", but it is
        // turnaround traffic, and the activity is spiky.
        let mut evs = Vec::new();
        for i in 0..40u32 {
            // prev == next == cell 5 (the corridor outside); bursts at
            // minutes 0–5 and 50–55.
            let t = if i < 20 {
                (i % 6) as u64
            } else {
                250 + (i % 6) as u64
            };
            evs.push(hev(i, 5, 5, t));
        }
        let c = cell_with(evs);
        let f = features(&c, SimDuration::from_mins(5));
        assert!(f.turnaround_fraction > 0.9);
        assert_eq!(
            classify(&c, &ClassifierConfig::default()),
            Some(CellClass::Lounge(LoungeKind::MeetingRoom))
        );
    }
}
