//! Schema-versioned snapshot of the full control-plane state.
//!
//! A long-running manager (see `arm-server`) periodically checkpoints
//! itself so a crash can be recovered by *restore + replay*: load the
//! last [`ManagerSnapshot`], then re-apply the journaled event suffix.
//! For that discipline to be trustworthy the snapshot must be
//!
//! * **complete** — every field that influences a future decision is
//!   captured: the network ledgers, zoned profiles, per-cell policy
//!   state, the resident maxmin engine (including its dirty set and
//!   work counters), fault state (down links/zones, doomed
//!   handoffs), and all metrics;
//! * **exact** — serialization is byte-stable: serialize →
//!   deserialize → re-serialize yields the identical string
//!   ([`ManagerSnapshot::to_json`] verifies this on every call, the
//!   same round-trip validation `RunReport` performs);
//! * **versioned** — [`SNAPSHOT_SCHEMA_VERSION`] is embedded and
//!   checked on load; a mismatch is a typed
//!   [`SnapshotError::SchemaMismatch`], never a panic or a silent
//!   misparse.
//!
//! The one deliberate exclusion is the observer ([`arm_obs::Obs`]):
//! observation is passive (bit-identical on/off, pinned by
//! `tests/obs_differential.rs`), so the restoring caller supplies
//! whatever observer the new process wants.

use std::collections::{BTreeMap, BTreeSet};

use arm_mobility::environment::IndoorEnvironment;
use arm_net::ids::{CellId, LinkId, NodeId, PortableId, ZoneId};
use arm_net::Network;
use arm_profiles::ZonedProfiles;
use arm_qos::maxmin::incremental::IncrementalMaxmin;
use arm_reservation::cafeteria::CafeteriaPredictor;
use arm_reservation::default_cell::OneStepMemory;
use arm_reservation::meeting::MeetingRoomPolicy;
use arm_resv_cal::SlottedSchedule;
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
/// §12).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 6;

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
    /// The decoded state fails an internal consistency check (ledger
    /// sums, index agreement, round-trip stability).
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
    pub(crate) maxmin: IncrementalMaxmin,
    pub(crate) channel_renegotiations: u64,
    pub(crate) server_node: NodeId,
    pub(crate) down_links: BTreeSet<LinkId>,
    pub(crate) down_zones: BTreeSet<ZoneId>,
    pub(crate) doomed_handoffs: BTreeSet<PortableId>,
    pub(crate) link_failures: u64,
    pub(crate) stale_profile_fallbacks: u64,
    pub(crate) lost_profile_updates: u64,
    pub(crate) handoff_signalling_failures: u64,
    pub(crate) calendar: SlottedSchedule,
}

impl ManagerSnapshot {
    /// The schema version this snapshot carries.
    pub fn schema(&self) -> u32 {
        self.schema
    }

    /// Serialize, validating the round trip: the emitted string must
    /// parse back and re-serialize to the identical bytes. A checkpoint
    /// that cannot faithfully restore is worse than none, so the check
    /// runs on every emit (snapshots are minutes apart; the extra parse
    /// is noise).
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        let json = serde_json::to_string(self).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        let back = Self::from_json(&json)?;
        let again =
            serde_json::to_string(&back).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        if again != json {
            return Err(SnapshotError::Invalid(
                "snapshot round trip is not byte-identical".to_string(),
            ));
        }
        Ok(json)
    }

    /// Parse a snapshot, checking the schema version before decoding
    /// the body (so a version skew reports as [`SnapshotError::SchemaMismatch`],
    /// not as a confusing missing-field error from a drifted layout).
    pub fn from_json(s: &str) -> Result<Self, SnapshotError> {
        let v: serde::Value =
            serde_json::from_str(s).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        let schema = v
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "schema"))
            .and_then(|(_, sv)| sv.as_u64())
            .ok_or_else(|| SnapshotError::Parse("missing or non-integer `schema` field".into()))?;
        if schema != u64::from(SNAPSHOT_SCHEMA_VERSION) {
            return Err(SnapshotError::SchemaMismatch {
                found: schema as u32,
                expected: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        serde::Deserialize::from_value(&v).map_err(|e| SnapshotError::Parse(e.to_string()))
    }

    /// Validate internal consistency without building a manager: the
    /// schema must match, the slot width must be non-zero (slot rolls
    /// and the metrics series divide by it), the network ledgers must
    /// balance, the maxmin engine's maps must agree with each other
    /// ([`IncrementalMaxmin::check_consistency`]), and every calendar
    /// reservation must name a link of the topology (an
    /// activating slot roll indexes the ledgers by it).
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if self.schema != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch {
                found: self.schema,
                expected: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        if self.cfg.slot.ticks() == 0 {
            return Err(SnapshotError::Invalid("cfg.slot is zero".to_string()));
        }
        self.net
            .check_invariants()
            .map_err(SnapshotError::Invalid)?;
        self.maxmin
            .check_consistency()
            .map_err(|e| SnapshotError::Invalid(format!("maxmin engine: {e}")))?;
        self.calendar
            .validate()
            .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        let links = self.net.topology().link_count();
        match self
            .calendar
            .reservations()
            .find(|r| r.link.index() >= links)
        {
            Some(r) => Err(SnapshotError::Invalid(format!(
                "calendar reservation {} books link {} of a {links}-link topology",
                r.id, r.link.0
            ))),
            None => Ok(()),
        }
    }
}
