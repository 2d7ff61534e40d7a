//! Schema-versioned snapshot of the full control-plane state.
//!
//! A long-running manager (see `arm-server`) periodically checkpoints
//! itself so a crash can be recovered by *restore + replay*: load the
//! last [`ManagerSnapshot`], then re-apply the journaled event suffix.
//! For that discipline to be trustworthy the snapshot must be
//!
//! * **complete** — every field that influences a future decision or a
//!   report is captured: the network ledgers and the records of the
//!   live connections, zoned profiles, per-cell policy state, eqn 2's
//!   `t⁻` excesses and round count, fault state (down links/zones,
//!   doomed handoffs), and the metrics counters;
//! * **exact** — serialization is byte-stable: serialize →
//!   deserialize → re-serialize yields the identical string. This is
//!   a property of the codec, not of any one state, and
//!   [`ManagerSnapshot::to_json`] no longer re-proves it on every
//!   emit: through PR 17 it parsed back and re-encoded what it had
//!   just written (20 ms and 241k allocations per office checkpoint)
//!   and the comparison never once failed. It is asserted instead by
//!   `crates/server/tests/snapshot_roundtrip.rs` (every checkpoint of
//!   the seed-42 office week, a wing's end state, random cuts), by
//!   `arm-check`'s fingerprint pass on its canonical instances, and by
//!   the crash drill's recovered bytes. What `to_json` does check is
//!   the state: [`ManagerSnapshot::validate`], then one pass straight
//!   to text that refuses any NaN/±∞ — the one thing a round trip
//!   caught that `validate` cannot;
//! * **versioned** — [`SNAPSHOT_SCHEMA_VERSION`] is embedded and
//!   checked on load; a mismatch is a typed
//!   [`SnapshotError::SchemaMismatch`], never a panic or a silent
//!   misparse.
//!
//! The test for membership is "read by a decision, a report or an obs
//! event". Two things the manager holds fail it and are deliberately
//! left out of the image:
//!
//! * the observer ([`arm_obs::Obs`]): observation is passive
//!   (bit-identical on/off, pinned by `tests/obs_differential.rs`), so
//!   the restoring caller supplies whatever observer the new process
//!   wants;
//! * the resident maxmin engine ([`crate::ResourceManager::maxmin`]):
//!   it is a cache. Eqn 2's gate reads only the network and
//!   `last_excess`; the round it opens diff-syncs the engine against
//!   the network before solving and then compares *every* connection
//!   with its ledger, and the engine's allocation is bit-identical to a
//!   from-scratch solve of the same inputs. A restored manager starts
//!   with an empty engine, its first round fills every component once,
//!   and the rates it applies are the uninterrupted run's — at every
//!   cut, pinned by `tests/chaos.rs`'s restore-anywhere twin. What does
//!   differ is the engine's work counters, and therefore the first
//!   `MaxminRound` obs event after a restore, which reports every
//!   registered connection as re-filled; the obs stream was never part
//!   of the byte-identity claim.
//!
//! And three things v8 carried are no longer state anywhere, because
//! they were written on every event and read by nothing (DESIGN.md
//! §10.2): the records of finished, dropped and refused connections
//! (`Network` retires a record with its connection; the slot stays, as
//! `null`, so ids are never reissued), with `Connection::{state,
//! handoffs}`; the per-cell per-minute `metrics.arrivals` series; and
//! the slot width, which was two settable copies of one value and is
//! now [`crate::SLOT`].

use std::collections::{BTreeMap, BTreeSet};

use arm_mobility::environment::IndoorEnvironment;
use arm_net::ids::{CellId, LinkId, NodeId, PortableId, ZoneId};
use arm_net::Network;
use arm_profiles::ZonedProfiles;
use arm_reservation::cafeteria::CafeteriaPredictor;
use arm_reservation::default_cell::OneStepMemory;
use arm_reservation::meeting::MeetingRoomPolicy;
use serde::{Deserialize, Serialize};

use crate::manager::{ManagerConfig, PortableState};
use crate::metrics::Metrics;
use crate::multicast::MulticastState;

/// Version stamp embedded in every snapshot. Bump on any change to the
/// field set of [`ManagerSnapshot`] or of anything it transitively
/// serializes. v2 added the slotted advance-reservation `calendar`
/// (DESIGN.md §11); v3 added the campus-scale `sharded` maxmin planner
/// and its `ManagerConfig::sharded` switch (DESIGN.md §12); v4 made
/// that planner the only engine: `ManagerConfig::{incremental, sharded}`
/// and the second engine field are gone, the planner is `maxmin`; v5
/// embeds the link-keyed v2 calendar (no `Cell` resource, no
/// `moldable`/`deadline` reservation fields); v6 drops the shard
/// planner: `maxmin` is the one `IncrementalMaxmin` itself (DESIGN.md
/// §12); v7 drops the `calendar` section with the slotted calendar
/// itself (DESIGN.md §11); v8 drops the `maxmin` section: the engine is
/// a cache and is rebuilt by the first round after a restore (DESIGN.md
/// §10.2); v9 drops what nothing read: terminal connection records and
/// `Connection::{state, handoffs}`, `metrics.{arrivals, slot}`, and
/// four `cfg` knobs (`discipline`, `slot`, `per_user_kbps` and the
/// drop-on-failure policy) — one value at every caller, now constants
/// (DESIGN.md §10.2); v10 writes each retained handoff as a row,
/// `[portable, prev|null, cur, next, time]`, not an object of five keys
/// (DESIGN.md §10.2).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 10;

/// Why a snapshot could not be produced or loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by a different schema version.
    SchemaMismatch {
        /// Version found in the artifact.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The artifact is not valid JSON or not a valid snapshot object.
    Parse(String),
    /// The state — decoded, or about to be written — fails an internal
    /// consistency check (ledger sums, index agreement) or holds a
    /// float JSON cannot carry.
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::SchemaMismatch { found, expected } => {
                write!(f, "snapshot schema {found} != supported {expected}")
            }
            SnapshotError::Parse(m) => write!(f, "snapshot parse error: {m}"),
            SnapshotError::Invalid(m) => write!(f, "snapshot failed validation: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Complete serializable image of a [`crate::ResourceManager`].
///
/// Construct with [`crate::ResourceManager::snapshot`]; turn back into
/// a live manager with [`crate::ResourceManager::restore`]. Fields are
/// private: the snapshot is an opaque, validated artifact, not an API
/// for poking at manager internals.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ManagerSnapshot {
    /// Schema stamp, always [`SNAPSHOT_SCHEMA_VERSION`] when written
    /// by this build.
    pub(crate) schema: u32,
    pub(crate) net: Network,
    pub(crate) env: IndoorEnvironment,
    pub(crate) profiles: ZonedProfiles,
    pub(crate) cfg: ManagerConfig,
    pub(crate) metrics: Metrics,
    pub(crate) portables: BTreeMap<PortableId, PortableState>,
    pub(crate) meeting_policies: BTreeMap<CellId, MeetingRoomPolicy>,
    pub(crate) cafeteria_pred: BTreeMap<CellId, CafeteriaPredictor>,
    pub(crate) default_pred: BTreeMap<CellId, OneStepMemory>,
    pub(crate) slot_outflow: BTreeMap<CellId, u32>,
    pub(crate) multicast: MulticastState,
    pub(crate) last_excess: BTreeMap<LinkId, f64>,
    pub(crate) adaptation_rounds: u64,
    pub(crate) channel_renegotiations: u64,
    pub(crate) server_node: NodeId,
    pub(crate) down_links: BTreeSet<LinkId>,
    pub(crate) down_zones: BTreeSet<ZoneId>,
    pub(crate) doomed_handoffs: BTreeSet<PortableId>,
    pub(crate) link_failures: u64,
    pub(crate) stale_profile_fallbacks: u64,
    pub(crate) lost_profile_updates: u64,
    pub(crate) handoff_signalling_failures: u64,
}

/// Decode a snapshot document whose top-level `schema` stamp is
/// `expected`: the whole of every snapshot `from_json` short of
/// validation (manager here, server in `arm-server`).
///
/// The stamp is checked first, by a scan of the top-level keys that
/// keeps nothing — the first `schema` key counts, as it does for the
/// decoder, and every document this build writes has it at byte 1 — so
/// a version skew reports as [`SnapshotError::SchemaMismatch`], not as
/// a missing-field error from a drifted layout. Then the text is
/// decoded once, straight into `T` (`Deserialize::read_json`). A
/// document from another version that is also malformed somewhere
/// *after* its stamp is a `SchemaMismatch`; anything else that is not
/// a well-formed `T` is a [`SnapshotError::Parse`].
pub fn decode_versioned<T: Deserialize>(s: &str, expected: u32) -> Result<T, SnapshotError> {
    fn parse(e: impl std::fmt::Display) -> SnapshotError {
        SnapshotError::Parse(e.to_string())
    }
    let mut scan = serde::JsonReader::new(s);
    let mut found = None;
    if scan.begin_object().map_err(parse)? {
        let mut first = true;
        while let Some(key) = scan.object_next(first).map_err(parse)? {
            first = false;
            if key == "schema" {
                found = scan.value().map_err(parse)?.as_u64();
                break;
            }
            scan.skip_value().map_err(parse)?;
        }
    }
    match found {
        Some(found) if found == u64::from(expected) => serde_json::from_str(s).map_err(parse),
        Some(found) => Err(SnapshotError::SchemaMismatch {
            found: found as u32,
            expected,
        }),
        // No stamp: say so, unless the text is not even JSON.
        None => Err(match serde_json::from_str::<()>(s) {
            Err(syntax) => parse(syntax),
            Ok(()) => parse("missing or non-integer `schema` field"),
        }),
    }
}

impl ManagerSnapshot {
    /// Serialize: [`Self::validate`], then one pass straight to text.
    /// Fails with [`SnapshotError::Invalid`] — and yields no document —
    /// when validation fails or any float in the image is NaN or ±∞
    /// (JSON would carry it as a `null` no `f64` field decodes).
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        self.validate()?;
        serde_json::to_string_finite(self).map_err(|e| SnapshotError::Invalid(e.to_string()))
    }

    /// Parse a snapshot, checking the schema version before decoding
    /// the body (so a version skew reports as [`SnapshotError::SchemaMismatch`],
    /// not as a confusing missing-field error from a drifted layout).
    pub fn from_json(s: &str) -> Result<Self, SnapshotError> {
        decode_versioned(s, SNAPSHOT_SCHEMA_VERSION)
    }

    /// Validate internal consistency without building a manager: the
    /// schema must match and the network ledgers must balance.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if self.schema != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch {
                found: self.schema,
                expected: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        self.net.check_invariants().map_err(SnapshotError::Invalid)
    }
}
