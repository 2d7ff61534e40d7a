//! Virtual time.
//!
//! Simulation time is an integer count of **microsecond ticks** since the
//! start of the run. Integer time keeps event ordering exact (no float
//! rounding drift over long runs) while one-microsecond resolution is far
//! finer than anything the paper's algorithms need (its finest timers are
//! the meeting-room release timers, minutes long; its finest network events
//! are packet transmissions on ~Mbps links, tens of microseconds long).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::Audited;

/// Number of ticks per second of virtual time.
pub(crate) const TICKS_PER_SECOND: u64 = 1_000_000;

/// An instant in virtual time (ticks since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of virtual time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Construct from whole seconds of virtual time.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SECOND)
    }

    /// Construct from whole minutes of virtual time.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60 * TICKS_PER_SECOND)
    }

    /// Construct from fractional seconds, rounding to the nearest tick.
    #[inline]
    pub(crate) fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0, "SimTime cannot be negative");
        SimTime((secs * TICKS_PER_SECOND as f64).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Virtual seconds since the origin, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Duration since an earlier instant. Panics in debug builds if
    /// `earlier` is actually later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since another instant (zero if `other` is later).
    #[inline]
    pub fn saturating_since(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating subtraction of a duration (clamps at the origin).
    #[inline]
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SECOND)
    }

    /// Construct from whole minutes (the paper's timers are minute-scale).
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * TICKS_PER_SECOND)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * (TICKS_PER_SECOND / 1000))
    }

    /// Construct from fractional seconds, rounding to the nearest tick.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0, "SimDuration cannot be negative");
        SimDuration((secs * TICKS_PER_SECOND as f64).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// True if this is the zero duration.
    #[inline]
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by an integer factor, saturating at the maximum.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .invariant("SimTime subtraction must not cross t=0"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .invariant("SimDuration subtraction must not go negative"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self
            .0
            .checked_sub(rhs.0)
            .invariant("SimDuration subtraction must not go negative");
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).ticks(), 3 * TICKS_PER_SECOND);
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_secs_f64(0.5).ticks(), TICKS_PER_SECOND / 2);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!((t + d).since(t), d);
        assert_eq!(t + d - t, d);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        assert_eq!(d + d, SimDuration::from_secs(8));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(5)),
            SimDuration::from_secs(0)
        );
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "invariant: SimTime subtraction must not cross t=0")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimDuration::from_millis(1);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis_for_test(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250s");
    }

    impl SimTime {
        fn from_millis_for_test(ms: u64) -> SimTime {
            SimTime::ZERO + SimDuration::from_millis(ms)
        }
    }
}
