//! The server's wire-format event vocabulary.
//!
//! One JSONL line per event, externally tagged, e.g.:
//!
//! ```text
//! {"Appear":{"t":120000000,"portable":3,"cell":2}}
//! {"Move":{"t":180000000,"portable":3,"to":5}}
//! {"LinkDown":{"t":200000000,"link":7}}
//! {"Depart":{"t":240000000,"portable":3}}
//! ```
//!
//! Times are [`SimTime`] ticks and must be nondecreasing across the
//! stream — the server is a deterministic state machine over this
//! journal, which is what makes restore-and-replay exact (see
//! `crate::server`). Out-of-order, non-finite, or malformed lines are
//! rejected *per line* (typed [`crate::ingest::IngestError`]), never
//! aborting the stream.

use arm_net::ids::{CellId, LinkId, PortableId, ZoneId};
use arm_sim::SimTime;
use serde::{Deserialize, JsonWriter, Serialize};

/// The longest spelling of a finite `f64`: `-0.` and 307 zeros before
/// the 17 digits of the least normal float. No finite float is longer.
const RATE: usize = 327;

/// One ingestible event.
///
/// The vocabulary covers the manager's full control surface: portable
/// lifecycle (`Appear`/`Move`/`Depart`), explicit QoS requests, fault
/// injection (links, profile servers, handoff signalling, channel
/// fades), and the transport's own health signal (`QueuePressure`,
/// journaled so degraded-mode shedding replays deterministically).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServerEvent {
    /// A portable enters the environment at `cell`. Under a sampled
    /// workload (`Paper71`/`Fixed`) the server also opens the user's
    /// connection, drawing its QoS from the workload stream.
    Appear {
        /// Event time (ticks).
        t: SimTime,
        /// The arriving portable.
        portable: PortableId,
        /// The cell it appears in.
        cell: CellId,
    },
    /// A handoff: the portable crosses into `to`.
    Move {
        /// Event time (ticks).
        t: SimTime,
        /// The moving portable.
        portable: PortableId,
        /// The destination cell.
        to: CellId,
    },
    /// The portable leaves the environment; its open connection (if
    /// any) is terminated.
    Depart {
        /// Event time (ticks).
        t: SimTime,
        /// The departing portable.
        portable: PortableId,
    },
    /// An explicit connection request with caller-supplied bandwidth
    /// bounds (kbps). Rates must be finite and positive with
    /// `b_max_kbps ≥ b_min_kbps`.
    Request {
        /// Event time (ticks).
        t: SimTime,
        /// The requesting portable (must be present).
        portable: PortableId,
        /// Guaranteed floor `b_min` (kbps).
        b_min_kbps: f64,
        /// Maximum useful bandwidth `b_max` (kbps).
        b_max_kbps: f64,
    },
    /// A link fails (capacity drops to the admitted floors).
    LinkDown {
        /// Event time (ticks).
        t: SimTime,
        /// The failing link.
        link: LinkId,
    },
    /// The link comes back.
    LinkUp {
        /// Event time (ticks).
        t: SimTime,
        /// The restored link.
        link: LinkId,
    },
    /// A zone's profile server stops answering. While any zone is
    /// down the server operates degraded (new admissions squeezed to
    /// `b_min`).
    ProfileServerDown {
        /// Event time (ticks).
        t: SimTime,
        /// The affected zone.
        zone: ZoneId,
    },
    /// The zone's profile server recovers (with stale profiles).
    ProfileServerUp {
        /// Event time (ticks).
        t: SimTime,
        /// The recovered zone.
        zone: ZoneId,
    },
    /// The portable's next handoff loses its signalling (advance
    /// claims unusable for that handoff).
    FailNextHandoff {
        /// Event time (ticks).
        t: SimTime,
        /// The affected portable.
        portable: PortableId,
    },
    /// The wireless channel of `cell` fades to `fraction` of nominal
    /// capacity (`0 < fraction ≤ 1`).
    ChannelChange {
        /// Event time (ticks).
        t: SimTime,
        /// The affected cell.
        cell: CellId,
        /// Effective capacity fraction.
        fraction: f64,
    },
    /// The transport layer's backpressure signal: the bounded input
    /// queue crossed its watermark (`on = true`) or drained back
    /// (`on = false`). Journaled like any other event so a restored
    /// replay sheds the exact same admissions the live run shed.
    QueuePressure {
        /// Event time (ticks).
        t: SimTime,
        /// Whether pressure is now asserted.
        on: bool,
    },
}

impl ServerEvent {
    /// The event's timestamp.
    pub fn time(&self) -> SimTime {
        match self {
            ServerEvent::Appear { t, .. }
            | ServerEvent::Move { t, .. }
            | ServerEvent::Depart { t, .. }
            | ServerEvent::Request { t, .. }
            | ServerEvent::LinkDown { t, .. }
            | ServerEvent::LinkUp { t, .. }
            | ServerEvent::ProfileServerDown { t, .. }
            | ServerEvent::ProfileServerUp { t, .. }
            | ServerEvent::FailNextHandoff { t, .. }
            | ServerEvent::ChannelChange { t, .. }
            | ServerEvent::QueuePressure { t, .. } => *t,
        }
    }

    /// Stable variant label (journal statistics, rejection details).
    pub fn label(&self) -> &'static str {
        match self {
            ServerEvent::Appear { .. } => "Appear",
            ServerEvent::Move { .. } => "Move",
            ServerEvent::Depart { .. } => "Depart",
            ServerEvent::Request { .. } => "Request",
            ServerEvent::LinkDown { .. } => "LinkDown",
            ServerEvent::LinkUp { .. } => "LinkUp",
            ServerEvent::ProfileServerDown { .. } => "ProfileServerDown",
            ServerEvent::ProfileServerUp { .. } => "ProfileServerUp",
            ServerEvent::FailNextHandoff { .. } => "FailNextHandoff",
            ServerEvent::ChannelChange { .. } => "ChannelChange",
            ServerEvent::QueuePressure { .. } => "QueuePressure",
        }
    }

    /// Canonical JSONL encoding (one line, no trailing newline): the
    /// derived compact text, written into one `String` reserved for the
    /// longest line the event can have (`max_line`), so a journal line
    /// is one allocation.
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = JsonWriter::with_capacity(self.max_line());
        self.write_json(&mut out);
        Ok(out.into_string())
    }

    /// The longest [`to_jsonl`](Self::to_jsonl) line this event can
    /// have: `{"<label>":{"t":` and `}}` around the fields, each key with
    /// its quotes, colon and comma, each integer as its digits and each
    /// rate at [`RATE`]. So it is the line's exact length unless the
    /// event carries a rate, and 742 bytes at most (a `Request`). Not the
    /// vocabulary's longest for every line: a caller that keeps its
    /// lines, a generated stream, would hold ten times their bytes.
    fn max_line(&self) -> usize {
        let digits = |n: u64| n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let id = |n: u32| digits(u64::from(n));
        let fields = match *self {
            ServerEvent::Appear { portable, cell, .. } => 12 + id(portable.0) + 8 + id(cell.0),
            ServerEvent::Move { portable, to, .. } => 12 + id(portable.0) + 6 + id(to.0),
            ServerEvent::Depart { portable, .. }
            | ServerEvent::FailNextHandoff { portable, .. } => 12 + id(portable.0),
            ServerEvent::Request { portable, .. } => 12 + id(portable.0) + 2 * (14 + RATE),
            ServerEvent::LinkDown { link, .. } | ServerEvent::LinkUp { link, .. } => 8 + id(link.0),
            ServerEvent::ProfileServerDown { zone, .. }
            | ServerEvent::ProfileServerUp { zone, .. } => 8 + id(zone.0),
            ServerEvent::ChannelChange { cell, .. } => 8 + id(cell.0) + 12 + RATE,
            ServerEvent::QueuePressure { on, .. } => 6 + if on { 4 } else { 5 },
        };
        self.label().len() + 9 + digits(self.time().ticks()) + fields + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The longest spelling of a finite `f64`, and floats near it.
    fn long_floats() -> impl Iterator<Item = f64> {
        let least_normal = f64::MIN_POSITIVE;
        let subnormals =
            (0..52).map(|k| f64::from_bits((1u64 << k) | 0x5555_5555_5555 >> (52 - k)));
        let normals = (1..2048u64).map(|e| f64::from_bits(e << 52 | 0x000f_ffff_ffff_ffff));
        [least_normal, f64::MAX, 5e-324, 1.0 / 3.0, 1e15, 1e16 / 3.0]
            .into_iter()
            .chain(subnormals)
            .chain(normals)
            .flat_map(|f| [f, -f])
    }

    /// One event of each variant, every id `n`, every rate `rate`.
    fn every_variant(t: u64, n: u32, rate: f64) -> [ServerEvent; 11] {
        let (t, portable) = (SimTime::from_ticks(t), PortableId(n));
        let (cell, link, zone) = (CellId(n), LinkId(n), ZoneId(n));
        [
            ServerEvent::Appear { t, portable, cell },
            ServerEvent::Move {
                t,
                portable,
                to: cell,
            },
            ServerEvent::Depart { t, portable },
            ServerEvent::Request {
                t,
                portable,
                b_min_kbps: rate,
                b_max_kbps: rate,
            },
            ServerEvent::LinkDown { t, link },
            ServerEvent::LinkUp { t, link },
            ServerEvent::ProfileServerDown { t, zone },
            ServerEvent::ProfileServerUp { t, zone },
            ServerEvent::FailNextHandoff { t, portable },
            ServerEvent::ChannelChange {
                t,
                cell,
                fraction: rate,
            },
            ServerEvent::QueuePressure { t, on: n % 2 == 0 },
        ]
    }

    /// `to_jsonl` reserves `max_line` and never grows past it: that is
    /// the line's length exactly at every width of every integer, and
    /// for the two variants with rates at least the line's, reached
    /// with every number at its widest.
    #[test]
    fn no_line_outgrows_what_it_reserves() {
        let longest = long_floats().map(|f| f.to_string().len()).max();
        assert_eq!(longest, Some(RATE));
        let widest = every_variant(u64::MAX, u32::MAX, -f64::MIN_POSITIVE);
        for ev in &widest {
            let line = ev.to_jsonl().expect("serializable");
            assert_eq!(line.len(), ev.max_line(), "{line}");
            assert_eq!(line.capacity(), ev.max_line(), "written without growing");
        }
        assert_eq!(widest[3].max_line(), 742, "the vocabulary's longest line");
        for (t, n) in [
            (0, 0),
            (9, 9),
            (10, 10),
            (59_999_999, 4_000_000_001),
            (u64::MAX, 7),
        ] {
            for rate in long_floats() {
                for ev in every_variant(t, n, rate) {
                    let line = ev.to_jsonl().expect("serializable");
                    assert_eq!(line, serde_json::to_string(&ev).expect("infallible"));
                    assert!(line.len() <= ev.max_line(), "{line}");
                    if !matches!(
                        ev,
                        ServerEvent::Request { .. } | ServerEvent::ChannelChange { .. }
                    ) {
                        assert_eq!(line.len(), ev.max_line(), "{line}");
                    }
                }
            }
        }
    }

    #[test]
    fn round_trips_as_jsonl() {
        let evs = [
            ServerEvent::Appear {
                t: SimTime::from_secs(1),
                portable: PortableId(3),
                cell: CellId(2),
            },
            ServerEvent::Request {
                t: SimTime::from_secs(2),
                portable: PortableId(3),
                b_min_kbps: 16.0,
                b_max_kbps: 64.0,
            },
            ServerEvent::QueuePressure {
                t: SimTime::from_secs(3),
                on: true,
            },
        ];
        for ev in &evs {
            let line = ev.to_jsonl().expect("serializable");
            assert!(!line.contains('\n'), "one line per event: {line}");
            let back: ServerEvent = serde_json::from_str(&line).expect("round trip");
            assert_eq!(&back, ev);
            assert_eq!(back.time(), ev.time());
            assert!(!back.label().is_empty());
        }
    }
}
