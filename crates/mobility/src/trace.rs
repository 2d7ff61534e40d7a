//! Movement traces.
//!
//! A [`MobilityTrace`] is a time-ordered list of cell transitions — the
//! exact shape of the data the paper's authors collected by hand in the
//! ECE building. Generators in [`crate::models`] produce traces; the
//! simulation driver in `arm-core` replays them against the resource
//! manager; `arm-profiles` aggregates them.

use arm_net::ids::{CellId, PortableId};
use arm_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One cell transition. `from == None` marks the portable's first
/// appearance (power-on / zone entry).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MoveEvent {
    /// When the handoff (or appearance) happens.
    pub time: SimTime,
    /// Who moves.
    pub portable: PortableId,
    /// The cell being left (`None` on first appearance).
    pub from: Option<CellId>,
    /// The cell being entered.
    pub to: CellId,
}

/// A time-ordered sequence of movements for any number of portables.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MobilityTrace {
    events: Vec<MoveEvent>,
    sorted: bool,
}

impl MobilityTrace {
    /// An empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Append an event (sorting is deferred to `finish`).
    pub(crate) fn push(&mut self, ev: MoveEvent) {
        self.events.push(ev);
        self.sorted = false;
    }

    /// Sort by (time, portable) — a stable, deterministic replay order.
    pub(crate) fn finish(mut self) -> Self {
        self.events
            .sort_by(|a, b| a.time.cmp(&b.time).then(a.portable.cmp(&b.portable)));
        self.sorted = true;
        self
    }

    /// Merge another trace into this one (re-sorts).
    pub(crate) fn merge(mut self, other: MobilityTrace) -> Self {
        self.events.extend(other.events);
        self.finish()
    }

    /// The events (sorted iff `finish` ran last).
    pub fn events(&self) -> &[MoveEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count transitions `from → to` (handoffs only, not appearances).
    pub fn count_transition(&self, from: CellId, to: CellId) -> usize {
        self.events
            .iter()
            .filter(|e| e.from == Some(from) && e.to == to)
            .count()
    }

    /// Count transitions `from → to` for one portable.
    pub fn count_transition_of(&self, p: PortableId, from: CellId, to: CellId) -> usize {
        self.events
            .iter()
            .filter(|e| e.portable == p && e.from == Some(from) && e.to == to)
            .count()
    }

    /// Per-slot arrival counts into `cell` (for the Figure 2/5 series).
    pub fn arrivals_series(
        &self,
        cell: CellId,
        slot: arm_sim::SimDuration,
    ) -> arm_sim::stats::TimeSeries {
        let mut ts = arm_sim::stats::TimeSeries::new(slot);
        for e in self.events.iter().filter(|e| e.to == cell) {
            ts.incr(e.time);
        }
        ts
    }

    /// Per-slot departure counts out of `cell`.
    pub fn departures_series(
        &self,
        cell: CellId,
        slot: arm_sim::SimDuration,
    ) -> arm_sim::stats::TimeSeries {
        let mut ts = arm_sim::stats::TimeSeries::new(slot);
        for e in self.events.iter().filter(|e| e.from == Some(cell)) {
            ts.incr(e.time);
        }
        ts
    }

    /// The portables appearing in the trace.
    pub fn portables(&self) -> Vec<PortableId> {
        let mut ps: Vec<PortableId> = self.events.iter().map(|e| e.portable).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Validate internal consistency: sorted, and each portable's `from`
    /// chain matches its previous `to`.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut last_time = SimTime::ZERO;
        let mut positions: std::collections::BTreeMap<PortableId, CellId> = Default::default();
        for (i, e) in self.events.iter().enumerate() {
            if e.time < last_time {
                return Err(format!("event {i} out of order"));
            }
            last_time = e.time;
            match (e.from, positions.get(&e.portable)) {
                (None, None) => {}
                (Some(f), Some(cur)) if f == *cur => {}
                (None, Some(_)) => return Err(format!("event {i}: {:?} re-appears", e.portable)),
                (Some(f), cur) => {
                    return Err(format!(
                        "event {i}: {:?} leaves {f:?} but is at {cur:?}",
                        e.portable
                    ))
                }
            }
            if Some(e.to) == e.from {
                return Err(format!("event {i}: no-op move"));
            }
            positions.insert(e.portable, e.to);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_sim::SimDuration;

    fn mv(t: u64, p: u32, from: Option<u32>, to: u32) -> MoveEvent {
        MoveEvent {
            time: SimTime::from_secs(t),
            portable: PortableId(p),
            from: from.map(CellId),
            to: CellId(to),
        }
    }

    #[test]
    fn finish_sorts_and_counts_work() {
        let mut t = MobilityTrace::new();
        t.push(mv(10, 1, Some(0), 1));
        t.push(mv(5, 1, None, 0));
        t.push(mv(20, 1, Some(1), 0));
        let t = t.finish();
        assert!(t.check_consistency().is_ok());
        assert_eq!(t.count_transition(CellId(0), CellId(1)), 1);
        assert_eq!(
            t.count_transition_of(PortableId(1), CellId(1), CellId(0)),
            1
        );
        assert_eq!(t.portables(), vec![PortableId(1)]);
    }

    #[test]
    fn consistency_catches_teleports() {
        let mut t = MobilityTrace::new();
        t.push(mv(5, 1, None, 0));
        t.push(mv(10, 1, Some(3), 1)); // claims to leave 3 while at 0
        let t = t.finish();
        assert!(t.check_consistency().is_err());
    }

    #[test]
    fn consistency_catches_disorder_and_noops() {
        let mut t = MobilityTrace::new();
        t.push(mv(5, 1, None, 0));
        t.push(mv(10, 1, Some(0), 0)); // no-op move
        let t = t.finish();
        assert!(t.check_consistency().is_err());
    }

    #[test]
    fn series_extraction() {
        let mut t = MobilityTrace::new();
        t.push(mv(10, 1, None, 5));
        t.push(mv(70, 2, None, 5));
        t.push(mv(80, 1, Some(5), 6));
        let t = t.finish();
        let arr = t.arrivals_series(CellId(5), SimDuration::from_secs(60));
        assert_eq!(arr.values(), &[1.0, 1.0]);
        let dep = t.departures_series(CellId(5), SimDuration::from_secs(60));
        assert_eq!(dep.values(), &[0.0, 1.0]);
    }

    #[test]
    fn merge_interleaves() {
        let mut a = MobilityTrace::new();
        a.push(mv(10, 1, None, 0));
        let mut b = MobilityTrace::new();
        b.push(mv(5, 2, None, 0));
        let m = a.finish().merge(b.finish());
        assert_eq!(m.events()[0].portable, PortableId(2));
        assert_eq!(m.len(), 2);
    }
}
