//! Hardened event ingestion: typed per-line rejection.
//!
//! A long-running server cannot treat a bad input line the way a batch
//! run treats a bad scenario file — aborting throws away every admitted
//! connection. Instead each line is validated against a typed error
//! vocabulary and, on rejection, *counted, surfaced, and skipped*: the
//! server emits an [`arm_obs::ObsEvent::IngestRejected`] and keeps
//! serving (see `Server::ingest_line`). Nothing in this module panics.

use std::error::Error;
use std::fmt;

use crate::event::ServerEvent;

/// Why a line (or decoded event) was rejected.
///
/// The `reason()` slugs are part of the observability schema — they land
/// in [`arm_obs::ObsEvent::IngestRejected`] — so keep them stable.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestError {
    /// The line is not a well-formed [`ServerEvent`] JSON document.
    Malformed {
        /// The parser's message.
        detail: String,
    },
    /// A numeric field is NaN or infinite.
    NonFinite {
        /// Which field.
        what: &'static str,
    },
    /// A rate field is zero or negative.
    NegativeRate {
        /// Which field.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The event's timestamp precedes an already-processed event.
    OutOfOrder {
        /// The event's time (ticks).
        event_ticks: u64,
        /// The server's high-water mark (ticks).
        last_ticks: u64,
    },
    /// The event lies more than [`arm_core::MAX_EVENT_GAP`] past the
    /// high-water mark: ticking every slot up to it could take hours.
    TooFarAhead {
        /// The event's time (ticks).
        event_ticks: u64,
        /// The server's high-water mark (ticks).
        last_ticks: u64,
    },
    /// The event names a cell, link, zone, or portable the server does
    /// not know.
    UnknownEntity {
        /// What was referenced, e.g. `"cell 99 (have 9)"`.
        what: String,
    },
    /// The event is well-formed but semantically invalid (inverted
    /// bounds, fraction outside `(0, 1]`, duplicate appear, ...).
    InvalidParameter {
        /// Human-readable description.
        detail: String,
    },
}

impl IngestError {
    /// Stable slug for observability counters (documented on
    /// [`arm_obs::ObsEvent::IngestRejected`]).
    pub fn reason(&self) -> &'static str {
        match self {
            IngestError::Malformed { .. } => "malformed",
            IngestError::NonFinite { .. } => "non-finite",
            IngestError::NegativeRate { .. } => "negative-rate",
            IngestError::OutOfOrder { .. } => "out-of-order",
            IngestError::TooFarAhead { .. } => "too-far-ahead",
            IngestError::UnknownEntity { .. } => "unknown-entity",
            IngestError::InvalidParameter { .. } => "invalid-parameter",
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Malformed { detail } => write!(f, "malformed event line: {detail}"),
            IngestError::NonFinite { what } => write!(f, "{what} is not finite"),
            IngestError::NegativeRate { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            IngestError::OutOfOrder {
                event_ticks,
                last_ticks,
            } => write!(
                f,
                "event at tick {event_ticks} precedes high-water mark {last_ticks}"
            ),
            IngestError::TooFarAhead {
                event_ticks,
                last_ticks,
            } => write!(
                f,
                "event at tick {event_ticks} is more than a year of slots past high-water mark {last_ticks}"
            ),
            IngestError::UnknownEntity { what } => write!(f, "unknown entity: {what}"),
            IngestError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
        }
    }
}

impl Error for IngestError {}

/// Decode one JSONL line into a [`ServerEvent`].
///
/// Purely syntactic — semantic checks (ordering, entity bounds, rate
/// sanity) happen in `Server::apply_event` where the server's state is
/// in scope. Blank lines are rejected as [`IngestError::Malformed`];
/// callers that want to skip them silently can test `is_empty()` first.
pub fn parse_event(line: &str) -> Result<ServerEvent, IngestError> {
    serde_json::from_str::<ServerEvent>(line.trim()).map_err(|e| IngestError::Malformed {
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_lines() {
        let ev = parse_event(r#"{"QueuePressure":{"t":1000000,"on":true}}"#).expect("valid line");
        assert_eq!(ev.label(), "QueuePressure");
    }

    #[test]
    fn parse_rejects_garbage_with_typed_error() {
        for bad in ["", "   ", "{", "not json", r#"{"Teleport":{"t":0}}"#] {
            let err = parse_event(bad).expect_err("must reject");
            assert_eq!(err.reason(), "malformed");
            assert!(!err.to_string().is_empty());
        }
    }

    /// Nesting is capped (`serde::json::MAX_DEPTH`): such a line used
    /// to overflow the stack inside the parser, which no caller can
    /// catch.
    #[test]
    fn parse_rejects_deep_nesting_with_a_typed_error() {
        for opener in ["[", "{\"Move\":{\"t\":", "{\"Move\":{\"zzz\":"] {
            match parse_event(&opener.repeat(100_000)) {
                Err(IngestError::Malformed { detail }) => {
                    assert!(detail.starts_with("nesting deeper than 128"), "{detail}");
                }
                other => panic!("want Malformed, got {other:?}"),
            }
        }
        // Refused at its first key, before any depth is reached.
        let err = parse_event(&"{\"a\":".repeat(100_000)).expect_err("must reject");
        assert_eq!(err.reason(), "malformed");
    }

    #[test]
    fn reasons_are_stable_slugs() {
        let cases: [(IngestError, &str); 7] = [
            (IngestError::Malformed { detail: "x".into() }, "malformed"),
            (IngestError::NonFinite { what: "b_min_kbps" }, "non-finite"),
            (
                IngestError::NegativeRate {
                    what: "b_min_kbps",
                    value: -1.0,
                },
                "negative-rate",
            ),
            (
                IngestError::OutOfOrder {
                    event_ticks: 1,
                    last_ticks: 2,
                },
                "out-of-order",
            ),
            (
                IngestError::TooFarAhead {
                    event_ticks: 2,
                    last_ticks: 1,
                },
                "too-far-ahead",
            ),
            (
                IngestError::UnknownEntity {
                    what: "cell 9".into(),
                },
                "unknown-entity",
            ),
            (
                IngestError::InvalidParameter {
                    detail: "dup".into(),
                },
                "invalid-parameter",
            ),
        ];
        for (err, slug) in cases {
            assert_eq!(err.reason(), slug);
        }
    }
}
