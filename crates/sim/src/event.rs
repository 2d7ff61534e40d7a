//! Event identity.
//!
//! Every scheduled event gets a unique [`EventId`] so callers can cancel
//! timers (the paper's meeting-room algorithm arms and disarms release
//! timers; the adaptation algorithm re-arms per-link monitors).

use core::fmt;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Ids are unique within one [`EventQueue`](crate::EventQueue) and are never
/// reused, so a stale id held after its event fired (or was cancelled) is
/// harmless: cancelling it is a no-op that reports `false`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// A sentinel id that no real event will ever carry.
    pub(crate) const NONE: EventId = EventId(u64::MAX);

    /// True if this is the sentinel id.
    pub(crate) fn is_none(self) -> bool {
        self == Self::NONE
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "EventId(NONE)")
        } else {
            write!(f, "EventId({})", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel() {
        assert!(EventId::NONE.is_none());
        assert!(!EventId(0).is_none());
        assert_eq!(format!("{:?}", EventId::NONE), "EventId(NONE)");
        assert_eq!(format!("{:?}", EventId(7)), "EventId(7)");
    }
}
