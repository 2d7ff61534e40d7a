//! Measurement instruments.
//!
//! Every number reported in EXPERIMENTS.md comes out of one of these
//! collectors: plain [`Counter`]s (handoffs, drops, blocks), a
//! [`TimeWeighted`] average (link utilisation, reserved bandwidth),
//! a [`Histogram`] (delay distributions), and a [`TimeSeries`] (the
//! per-minute handoff activity curves of Figures 2 and 5).

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// A monotone event counter.
///
/// Serializable so long-running servers can checkpoint metrics
/// mid-stream and restore them bit-identically.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// Add one.
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.count
    }

    /// This counter as a fraction of a total (0 when the total is 0).
    ///
    /// `drops.ratio_of(&attempts)` is the paper's handoff dropping
    /// probability `P_d`; `blocks.ratio_of(&requests)` is `P_b`.
    pub fn ratio_of(&self, total: &Counter) -> f64 {
        if total.count == 0 {
            0.0
        } else {
            self.count as f64 / total.count as f64
        }
    }
}

/// Mean of a value weighted by how long it held each level.
///
/// `record(t, v)` says "the value became `v` at time `t`"; the average is
/// the integral of the step function divided by elapsed time.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Empty accumulator.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            start: SimTime::ZERO,
            started: false,
        }
    }

    /// Record that the observed value became `value` at time `now`.
    pub fn record(&mut self, now: SimTime, value: f64) {
        if self.started {
            debug_assert!(now >= self.last_time, "observations must be in time order");
            let dt = now.since(self.last_time).as_secs_f64();
            self.weighted_sum += self.last_value * dt;
        } else {
            self.start = now;
            self.started = true;
        }
        self.last_time = now;
        self.last_value = value;
    }

    /// Time-weighted mean over `[first record, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        let tail = now.saturating_since(self.last_time).as_secs_f64();
        let total = now.saturating_since(self.start).as_secs_f64();
        if total == 0.0 {
            return self.last_value;
        }
        (self.weighted_sum + self.last_value * tail) / total
    }
}

/// Fixed-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let last = self.bins.len() - 1;
            self.bins[idx.min(last)] += 1;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample ever recorded (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample ever recorded (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile from bin boundaries (`q` in `[0, 1]`).
    ///
    /// Estimates are saturated to the true recorded `[min, max]`: `q=0`
    /// reports the recorded minimum (not the histogram floor `lo`), and
    /// mass in the overflow bin reports the recorded maximum rather than
    /// the range ceiling `hi`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        if target == 0 {
            // q = 0: the smallest recorded sample, by definition.
            return self.min;
        }
        let mut seen = self.underflow;
        if seen >= target {
            // The target rank falls in the underflow bin: everything there
            // is < lo, so `lo` is an upper bound — saturate to the true
            // recorded range.
            return self.lo.clamp(self.min, self.max);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, b) in self.bins.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (self.lo + width * (i as f64 + 1.0)).clamp(self.min, self.max);
            }
        }
        // The target rank falls in the overflow bin: the recorded maximum
        // is the tightest bound we track, not the range ceiling `hi`.
        self.max
    }

    /// The raw bin counts, with `(underflow, bins, overflow)` layout.
    pub fn raw(&self) -> (u64, &[u64], u64) {
        (self.underflow, &self.bins, self.overflow)
    }
}

/// Values bucketed into fixed-width time slots — the instrument behind
/// the paper's per-minute handoff activity plots.
///
/// Serializable for snapshot/restore. Decoding checks nothing: the
/// snapshot layer (`ManagerSnapshot::validate` in `arm-core`) refuses a
/// restored series whose slot width is not the manager's own before
/// handing state back, so a zero width never reaches [`Self::add`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimeSeries {
    slot: SimDuration,
    slots: Vec<f64>,
}

impl TimeSeries {
    /// A series with the given slot width.
    pub fn new(slot: SimDuration) -> Self {
        assert!(!slot.is_zero());
        TimeSeries {
            slot,
            slots: Vec::new(),
        }
    }

    /// Add `amount` to the slot containing `at`.
    pub fn add(&mut self, at: SimTime, amount: f64) {
        let idx = (at.ticks() / self.slot.ticks()) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0.0);
        }
        self.slots[idx] += amount;
    }

    /// Count one event in the slot containing `at`.
    pub fn incr(&mut self, at: SimTime) {
        self.add(at, 1.0);
    }

    /// The slot values, ending at the last slot that received data.
    ///
    /// Trailing quiet slots are absent: a run that ends in silence yields
    /// a shorter vector than the run's span. Use [`Self::values_padded`]
    /// when series from different seeds must align by length.
    pub fn values(&self) -> &[f64] {
        &self.slots
    }

    /// The slot values, zero-padded so every slot up to `upto` is present.
    ///
    /// The result covers `ceil(upto / slot_width)` slots (never fewer than
    /// the recorded ones), so per-seed series over the same span align by
    /// length even when a seed's run ends in a quiet period.
    pub fn values_padded(&self, upto: SimTime) -> Vec<f64> {
        let want = upto.ticks().div_ceil(self.slot.ticks()) as usize;
        let mut v = self.slots.clone();
        if v.len() < want {
            v.resize(want, 0.0);
        }
        v
    }

    /// Sum over every slot.
    pub fn total(&self) -> f64 {
        self.slots.iter().sum()
    }

    /// Index of the peak slot, or `None` when empty.
    pub fn peak_slot(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_ratio() {
        let mut drops = Counter::default();
        let mut attempts = Counter::default();
        attempts.add(10);
        drops.incr();
        drops.incr();
        assert_eq!(drops.get(), 2);
        assert!((drops.ratio_of(&attempts) - 0.2).abs() < 1e-12);
        assert_eq!(Counter::default().ratio_of(&Counter::default()), 0.0);
    }

    #[test]
    fn time_weighted_step_function() {
        let mut tw = TimeWeighted::new();
        tw.record(SimTime::from_secs(0), 10.0);
        tw.record(SimTime::from_secs(10), 20.0);
        // 10s at 10.0, then 10s at 20.0 → mean 15.0 at t=20.
        assert!((tw.mean(SimTime::from_secs(20)) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_empty_and_instant() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.mean(SimTime::from_secs(5)), 0.0);
        let mut tw = TimeWeighted::new();
        tw.record(SimTime::from_secs(5), 3.0);
        assert_eq!(tw.mean(SimTime::from_secs(5)), 3.0);
    }

    #[test]
    fn histogram_moments_and_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [1.0, 1.5, 2.5, 9.9, -1.0, 12.0] {
            h.record(x);
        }
        let (under, bins, over) = h.raw();
        assert_eq!(under, 1);
        assert_eq!(over, 1);
        assert_eq!(bins[1], 2); // 1.0, 1.5
        assert_eq!(bins[2], 1); // 2.5
        assert_eq!(bins[9], 1); // 9.9
        assert_eq!(h.count(), 6);
        assert!((h.mean() - 25.9 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5);
        assert!((median - 50.0).abs() <= 1.0, "median={median}");
        assert!(h.quantile(1.0) >= 99.0);
    }

    #[test]
    fn histogram_quantile_empty() {
        let h = Histogram::new(0.0, 10.0, 10);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_quantile_q0_is_recorded_min() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for x in [3.5, 40.0, 90.0] {
            h.record(x);
        }
        // Before the fix q=0 reported the range floor `lo` (0.0); the
        // smallest recorded sample is 3.5.
        assert_eq!(h.quantile(0.0), 3.5);
        assert_eq!(h.min(), 3.5);
    }

    #[test]
    fn histogram_quantile_all_underflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(-3.0);
        // All mass is below `lo`; estimates saturate to the true range.
        assert_eq!(h.quantile(0.0), -5.0);
        assert_eq!(h.quantile(1.0), -3.0);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), -3.0);
    }

    #[test]
    fn histogram_quantile_all_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(15.0);
        h.record(20.0);
        // Before the fix overflow mass reported the range ceiling `hi`
        // (10.0) — below every recorded sample.
        assert_eq!(h.quantile(0.5), 20.0);
        assert_eq!(h.quantile(1.0), 20.0);
        assert!(h.quantile(0.0) >= 15.0);
        assert_eq!(h.max(), 20.0);
    }

    #[test]
    fn histogram_quantile_q1_is_bounded_by_max() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(f64::from(i) + 0.5);
        }
        // q=1 must never exceed the largest recorded sample.
        assert!(h.quantile(1.0) <= h.max());
        assert_eq!(h.max(), 99.5);
        assert_eq!(h.quantile(0.0), 0.5);
    }

    #[test]
    fn time_weighted_mean_with_now_before_last_record() {
        // Intended behavior: querying the mean at a `now` earlier than the
        // last record saturates the tail contribution to zero (the last
        // value has held for "no time yet") rather than rewinding the
        // integral or panicking. The mean is then the step integral up to
        // the last record divided by `now - start`.
        let mut tw = TimeWeighted::new();
        tw.record(SimTime::from_secs(0), 10.0);
        tw.record(SimTime::from_secs(10), 20.0);
        // now = 5s < last record at 10s: tail saturates to 0, total = 5s,
        // integral so far = 10.0 * 10s = 100 → mean 20.0.
        assert!((tw.mean(SimTime::from_secs(5)) - 20.0).abs() < 1e-9);
        // now exactly at the last record: tail = 0, mean = 100 / 10 = 10.
        assert!((tw.mean(SimTime::from_secs(10)) - 10.0).abs() < 1e-9);
        // now before the *first* record: total saturates to 0 → falls back
        // to the most recent value instead of dividing by zero.
        let mut tw = TimeWeighted::new();
        tw.record(SimTime::from_secs(10), 7.0);
        assert_eq!(tw.mean(SimTime::from_secs(3)), 7.0);
    }

    #[test]
    fn time_series_values_padded() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(60));
        ts.incr(SimTime::from_secs(30)); // slot 0
        ts.incr(SimTime::from_secs(70)); // slot 1
                                         // Run spans 5 minutes but the last 3 slots are quiet: `values`
                                         // truncates, `values_padded` does not.
        assert_eq!(ts.values().len(), 2);
        let padded = ts.values_padded(SimTime::from_secs(300));
        assert_eq!(padded, vec![1.0, 1.0, 0.0, 0.0, 0.0]);
        // A partial trailing slot still gets its own entry (ceil).
        assert_eq!(ts.values_padded(SimTime::from_secs(301)).len(), 6);
        // Padding never shrinks below the recorded slots.
        assert_eq!(ts.values_padded(SimTime::from_secs(60)).len(), 2);
        // Zero span on an empty series is empty.
        let empty = TimeSeries::new(SimDuration::from_secs(60));
        assert!(empty.values_padded(SimTime::ZERO).is_empty());
        assert_eq!(empty.values_padded(SimTime::from_secs(120)), vec![0.0; 2]);
    }

    #[test]
    fn time_series_peak_slot_total_order() {
        // total_cmp orders NaN-free slot data identically to partial_cmp
        // but cannot panic; ties resolve to the last max (Iterator::max_by
        // keeps the later element on Equal).
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.add(SimTime::from_secs(0), 2.0);
        ts.add(SimTime::from_secs(1), 5.0);
        ts.add(SimTime::from_secs(2), 5.0);
        assert_eq!(ts.peak_slot(), Some(2));
    }

    #[test]
    fn time_series_slots() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(60));
        ts.incr(SimTime::from_secs(30)); // slot 0
        ts.incr(SimTime::from_secs(59)); // slot 0
        ts.incr(SimTime::from_secs(60)); // slot 1
        ts.add(SimTime::from_secs(200), 5.0); // slot 3
        assert_eq!(ts.values(), &[2.0, 1.0, 0.0, 5.0]);
        assert_eq!(ts.total(), 8.0);
        assert_eq!(ts.peak_slot(), Some(3));
    }

    #[test]
    fn time_series_empty() {
        let ts = TimeSeries::new(SimDuration::from_secs(1));
        assert!(ts.values().is_empty());
        assert_eq!(ts.peak_slot(), None);
        assert_eq!(ts.total(), 0.0);
    }
}
