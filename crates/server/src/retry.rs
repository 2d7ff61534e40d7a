//! Bounded retry with capped exponential backoff.
//!
//! The server's side effects — checkpoint writes, journal appends,
//! socket accepts — can fail transiently (full pipe, slow disk, racing
//! reader). Those operations retry under a [`RetryPolicy`]: a bounded
//! attempt count with exponentially growing, capped delays. Bounded is
//! the point — an unbounded retry loop turns a dead disk into a hung
//! server, while a bounded one surfaces the error to the degradation
//! logic after a known worst-case stall (the sum of every backoff delay).

use std::time::Duration;

/// A bounded exponential-backoff schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Zero behaves as one.
    pub(crate) attempts: u32,
    /// Delay before the second attempt.
    pub(crate) base: Duration,
    /// Ceiling on any single delay.
    pub(crate) cap: Duration,
}

impl Default for RetryPolicy {
    /// 5 attempts, 10 ms base, 500 ms cap — worst case ~1.2 s of stall
    /// before an operation is declared failed.
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt `attempt` (0-based; attempt 0 has no
    /// delay). Doubles each retry, saturating at [`RetryPolicy::cap`].
    pub(crate) fn backoff_delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(20);
        self.base.saturating_mul(factor).min(self.cap)
    }

    /// Run `op` until it succeeds or the attempt budget is spent,
    /// calling `sleep` with each backoff delay. The sleeper is
    /// injectable so tests (and the simulated drills) run without
    /// wall-clock waits; the binary passes `std::thread::sleep`.
    ///
    /// Returns the first success, or the *last* error once the budget
    /// is exhausted.
    pub fn run<T, E>(
        &self,
        mut op: impl FnMut() -> Result<T, E>,
        mut sleep: impl FnMut(Duration),
    ) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(e);
                    }
                    sleep(self.backoff_delay(attempt));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_and_cap() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
        };
        assert_eq!(p.backoff_delay(0), Duration::ZERO);
        assert_eq!(p.backoff_delay(1), Duration::from_millis(10));
        assert_eq!(p.backoff_delay(2), Duration::from_millis(20));
        assert_eq!(p.backoff_delay(3), Duration::from_millis(40));
        assert_eq!(p.backoff_delay(4), Duration::from_millis(80));
        assert_eq!(p.backoff_delay(5), Duration::from_millis(100), "capped");
        assert_eq!(p.backoff_delay(7), Duration::from_millis(100), "capped");
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let mut slept = Vec::new();
        let out: Result<u32, &str> = p.run(
            || {
                calls += 1;
                if calls < 3 {
                    Err("transient")
                } else {
                    Ok(calls)
                }
            },
            |d| slept.push(d),
        );
        assert_eq!(out, Ok(3));
        assert_eq!(slept, vec![p.backoff_delay(1), p.backoff_delay(2)]);
    }

    #[test]
    fn gives_up_after_the_budget() {
        let p = RetryPolicy {
            attempts: 3,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: Result<(), u32> = p.run(
            || {
                calls += 1;
                Err(calls)
            },
            |_| {},
        );
        assert_eq!(out, Err(3), "last error surfaces");
        assert_eq!(calls, 3, "bounded");
    }

    #[test]
    fn zero_attempts_still_tries_once() {
        let p = RetryPolicy {
            attempts: 0,
            ..RetryPolicy::default()
        };
        let out: Result<u32, ()> = p.run(|| Ok(7), |_| {});
        assert_eq!(out, Ok(7));
    }

    #[test]
    fn worst_case_stall_is_known() {
        let p = RetryPolicy::default();
        let worst: Duration = (0..p.attempts).map(|a| p.backoff_delay(a)).sum();
        assert_eq!(worst, Duration::from_millis(10 + 20 + 40 + 80));
    }
}
