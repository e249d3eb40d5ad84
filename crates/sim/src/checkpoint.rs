//! Checkpoint/restore: versioned, checksummed snapshots of a running
//! simulation with crash-safe persistence.
//!
//! A [`SimSnapshot`] captures everything
//! [`Simulation::step`](crate::Simulation::step) depends on — the slot
//! clock, the full [`MobileNode`] fleet (positions, curvatures, travel
//! odometers, alive flags), the CMA configuration in effect, the
//! gossiped curvature scale, and the complete
//! fault-runtime state (plan, slot cursor, battery levels, stuck-sensor
//! freezes, accumulated events) — plus, optionally, the app-level
//! [`DeltaTimeline`] records and survivability tracker so a resumed run
//! finishes with the *same report* an uninterrupted one would produce.
//!
//! # Resume bit-identity
//!
//! Checkpoints land between slots, and every random draw of a slot
//! comes from a SplitMix64 stream derived from `(plan seed, slot
//! index)` alone — so restoring the slot cursor restores the entire
//! future of the fault schedule. Floats round-trip exactly: values are
//! serialized with Rust's shortest-representation formatting, which
//! reparses to the identical bit pattern. δ evaluation keeps no state
//! between recordings, so nothing about it needs checkpointing.
//! Decoding reads fields by key and ignores unknown ones, so snapshots
//! that still record the since-removed δ kernel and tile-cache
//! settings load and resume bit-identically.
//!
//! # Codec
//!
//! The JSON shape of every persisted type is its own
//! `#[derive(Serialize, Deserialize)]` declaration. Where the JSON
//! differs from the struct layout, a field `with` module in this file
//! says how (`rect` and the modules after it). `seal` and `open` are
//! the one envelope for snapshots and sweep manifests.
//!
//! # On-disk format
//!
//! One header line, then a JSON payload:
//!
//! ```text
//! CPSSNAP <version> <fnv1a64 of payload, 16 hex digits> <payload bytes>\n
//! {...}
//! ```
//!
//! The checksum lives in the header rather than the JSON so it covers
//! the payload bytes verbatim (and is itself a full-width `u64`, which
//! JSON numbers cannot carry exactly). Writes are atomic: the bytes go
//! to a temporary file in the same directory, are fsync'd, and only
//! then renamed over the final name — a crash at any instant leaves
//! either the previous snapshot or the new one, never a torn file.
//! Any corruption — a flipped bit anywhere, truncation, an empty file —
//! fails the checksum or the structural decode and surfaces as a typed
//! [`CoreError::SnapshotCorrupt`]; [`CheckpointDir::latest_valid`]
//! then falls back to the newest snapshot that still verifies.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use cps_core::ostd::CmaConfig;
use cps_core::{
    CoreError, DeploymentEvaluation, EvalOptions, SurvivabilityState, SurvivabilityTracker,
};
use cps_geometry::{Point2, Rect};
use serde::{Deserialize, Serialize};
use serde_json::{Error, Value};

use crate::fault::{BatteryModel, FaultEvent, FaultPlan, FaultState, RecoveryPolicy};
use crate::{DeltaTimeline, MobileNode};

/// Newest snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic token opening every snapshot file.
const MAGIC: &str = "CPSSNAP";

/// File extension used by [`CheckpointDir`].
const EXTENSION: &str = "cpsnap";

/// [`DeltaTimeline`] records (samples + synced events), as a checkpoint
/// stores them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineState {
    /// The `(time, evaluation)` samples recorded so far.
    #[serde(with = "samples")]
    pub samples: Vec<(f64, DeploymentEvaluation)>,
    /// Fault events copied into the timeline so far.
    pub events: Vec<FaultEvent>,
    /// The event sync cursor.
    pub events_synced: usize,
}

/// A complete, serializable snapshot of a running simulation — built by
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint), restored
/// by [`CmaBuilder::resume_from`](crate::CmaBuilder::resume_from).
///
/// The generic field is deliberately *not* part of the snapshot (a
/// field is arbitrary code); the caller re-supplies it on resume, and
/// bit-identity holds when it is the same field. The free-form
/// [`label`](SimSnapshot::label) exists so applications can record how
/// to rebuild theirs (the CLI stores the forest seed there).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSnapshot {
    /// Free-form application tag (e.g. how to rebuild the field).
    pub label: String,
    /// Slots stepped since construction.
    pub slot: u64,
    /// Simulation clock, minutes.
    pub time: f64,
    /// [`SimConfig::time_step`](crate::SimConfig::time_step).
    pub time_step: f64,
    /// [`SimConfig::sense_spacing`](crate::SimConfig::sense_spacing).
    pub sense_spacing: f64,
    /// Node capability `Rc`.
    pub comm_radius: f64,
    /// Node capability `Rs`.
    pub sensing_radius: f64,
    /// Node capability `v`.
    pub max_speed: f64,
    /// Force-balance weight `β`.
    pub beta: f64,
    /// The CMA parameters in effect.
    pub cma: CmaConfig,
    /// Region of interest.
    #[serde(with = "rect")]
    pub region: Rect,
    /// The gossiped curvature normalization reference.
    pub curvature_scale: f64,
    /// Stage names of the slot loop that produced this snapshot, in
    /// execution order. Snapshots written before the field existed
    /// decode as [`STANDARD_STAGES`](crate::stage::STANDARD_STAGES);
    /// restore rejects any other sequence, because resuming a run
    /// under a different stage order could not be bit-identical to the
    /// uninterrupted one.
    #[serde(default = "standard_pipeline")]
    pub pipeline: Vec<String>,
    /// The full fleet, dead nodes included.
    #[serde(with = "nodes")]
    pub nodes: Vec<MobileNode>,
    /// Fault-runtime state (None for pristine runs).
    pub fault: Option<FaultState>,
    /// δ(t) records, when the app attached them.
    pub timeline: Option<TimelineState>,
    /// Survivability tracker state, when the app attached it.
    pub survivability: Option<SurvivabilityState>,
}

/// The standard stage sequence, which snapshots written before the
/// `pipeline` field existed also ran.
pub(crate) fn standard_pipeline() -> Vec<String> {
    crate::stage::STANDARD_STAGES
        .iter()
        .map(|s| s.to_string())
        .collect()
}

impl SimSnapshot {
    /// Attaches the timeline's records so a resumed run continues the
    /// same δ(t) series.
    pub fn attach_timeline(&mut self, timeline: &DeltaTimeline) {
        self.timeline = Some(timeline.state().clone());
    }

    /// Rebuilds the attached timeline (None when none was attached),
    /// recording with `opts` from here on.
    pub fn timeline(&self, opts: EvalOptions) -> Option<DeltaTimeline> {
        self.timeline
            .clone()
            .map(|t| DeltaTimeline::from_state(opts, t))
    }

    /// Attaches the survivability tracker's state.
    pub fn attach_survivability(&mut self, tracker: &SurvivabilityTracker) {
        self.survivability = Some(tracker.state());
    }

    /// Rebuilds the attached survivability tracker, if any.
    pub fn survivability_tracker(&self) -> Option<SurvivabilityTracker> {
        self.survivability
            .clone()
            .map(SurvivabilityTracker::from_state)
    }

    /// Fleet size (dead nodes included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Serializes to the on-disk byte format (header + checksummed JSON
    /// payload).
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] when the state contains a
    /// non-finite float (JSON cannot carry it losslessly).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        seal(MAGIC, SNAPSHOT_VERSION, self)
    }

    /// Parses and verifies the byte format.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] on bad magic, length or checksum
    /// mismatch, or a malformed payload;
    /// [`CoreError::SnapshotVersion`] for an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        from_json(open(MAGIC, SNAPSHOT_VERSION, bytes)?)
    }

    /// Writes the snapshot to `path` atomically: temp file in the same
    /// directory, fsync, rename, directory fsync. Returns the bytes
    /// written.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] on filesystem failures and
    /// [`SimSnapshot::to_bytes`] errors.
    pub fn save(&self, path: &Path) -> Result<u64, CoreError> {
        let bytes = self.to_bytes()?;
        atomic_write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Reads and verifies a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] on read failures; the
    /// [`SimSnapshot::from_bytes`] errors (with the path filled in) on
    /// verification failures.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let bytes = fs::read(path).map_err(|e| snapshot_io(path, &e))?;
        Self::from_bytes(&bytes).map_err(|e| at_path(e, path))
    }
}

/// When a running simulation should be checkpointed. Combine the two
/// triggers freely; the default ([`CheckpointPolicy::disabled`]) never
/// fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    every_slots: Option<u64>,
    on_fault_event: bool,
}

impl CheckpointPolicy {
    /// A policy that never checkpoints.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Checkpoints every `n` completed slots (`0` disables the periodic
    /// trigger).
    pub fn every(n: u64) -> Self {
        CheckpointPolicy {
            every_slots: (n > 0).then_some(n),
            on_fault_event: false,
        }
    }

    /// Additionally checkpoints on any slot that recorded a fresh fault
    /// event (death, partition, reconnection).
    pub fn on_fault_event(mut self, yes: bool) -> Self {
        self.on_fault_event = yes;
        self
    }

    /// Whether any trigger is configured.
    pub fn is_enabled(&self) -> bool {
        self.every_slots.is_some() || self.on_fault_event
    }

    /// Whether the just-completed `slot` (1-based step count) should be
    /// checkpointed, given how many fault events it produced.
    pub fn due(&self, slot: u64, fresh_fault_events: usize) -> bool {
        let periodic = match self.every_slots {
            Some(n) => slot > 0 && slot.is_multiple_of(n),
            None => false,
        };
        periodic || (self.on_fault_event && fresh_fault_events > 0)
    }
}

/// A directory of rolling snapshots: `snap-<slot>.cpsnap` files with
/// bounded retention and newest-valid-first recovery.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointDir {
    /// Uses `dir` (created on the first store), retaining the newest 4
    /// snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointDir {
            dir: dir.into(),
            keep: 4,
        }
    }

    /// Sets how many snapshots to retain (at least 1 — keeping zero
    /// would defeat the fallback chain).
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Persists `snapshot` as `snap-<slot>.cpsnap` (atomically), prunes
    /// snapshots beyond the retention bound, and returns the written
    /// path. Instrumented: counts `checkpoints_written` and
    /// `checkpoint_bytes`, timed under the `checkpoint_write` phase.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] on filesystem failures,
    /// [`CoreError::SnapshotCorrupt`] for non-finite state.
    pub fn store(&self, snapshot: &SimSnapshot) -> Result<PathBuf, CoreError> {
        let _t = cps_obs::time(cps_obs::Phase::CheckpointWrite, 1);
        fs::create_dir_all(&self.dir).map_err(|e| snapshot_io(&self.dir, &e))?;
        let path = self
            .dir
            .join(format!("snap-{:012}.{EXTENSION}", snapshot.slot));
        let bytes = snapshot.save(&path)?;
        cps_obs::count(cps_obs::Counter::CheckpointsWritten);
        cps_obs::count_by(cps_obs::Counter::CheckpointBytes, bytes);
        self.prune()?;
        Ok(path)
    }

    /// Snapshot paths in ascending slot order (missing directory =
    /// empty).
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] when the directory cannot be listed.
    pub fn snapshots(&self) -> Result<Vec<PathBuf>, CoreError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(snapshot_io(&self.dir, &e)),
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == EXTENSION)
                    && p.file_stem()
                        .and_then(|s| s.to_str())
                        .is_some_and(|s| s.starts_with("snap-"))
            })
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Loads the newest snapshot that passes verification, skipping (and
    /// counting as `checkpoints_rejected`) corrupt, truncated, or
    /// unsupported files. Returns the snapshot and its path, or `None`
    /// when no valid snapshot exists.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] when the directory cannot be listed
    /// (unreadable *files* are skipped, not fatal).
    pub fn latest_valid(&self) -> Result<Option<(SimSnapshot, PathBuf)>, CoreError> {
        for path in self.snapshots()?.into_iter().rev() {
            match SimSnapshot::load(&path) {
                Ok(snapshot) => {
                    cps_obs::count(cps_obs::Counter::CheckpointsLoaded);
                    return Ok(Some((snapshot, path)));
                }
                Err(_) => cps_obs::count(cps_obs::Counter::CheckpointsRejected),
            }
        }
        Ok(None)
    }

    /// Deletes the oldest snapshots beyond the retention bound.
    fn prune(&self) -> Result<(), CoreError> {
        let paths = self.snapshots()?;
        if paths.len() > self.keep {
            for path in &paths[..paths.len() - self.keep] {
                fs::remove_file(path).map_err(|e| snapshot_io(path, &e))?;
            }
        }
        Ok(())
    }
}

// ---- the envelope -----------------------------------------------------
// (pub(crate): the sweep manifest and spec use the same header format,
// checksum, atomic-write path, and finite-number rule.)

/// Serializes `value` to compact JSON, rejecting any non-finite number
/// (JSON would silently turn it into `null`) by its key path.
pub(crate) fn to_json<T: Serialize>(value: &T) -> Result<String, CoreError> {
    let tree = value.serialize().map_err(|e| corrupt(e.to_string()))?;
    if let Some((path, x)) = non_finite(&tree) {
        return Err(corrupt(format!(
            "{} is not finite ({x})",
            path.trim_start_matches('.')
        )));
    }
    serde_json::to_string(&tree).map_err(|e| corrupt(e.to_string()))
}

/// Parses a JSON payload into `T`, naming the failure as corruption.
pub(crate) fn from_json<T: Deserialize>(text: &str) -> Result<T, CoreError> {
    serde_json::from_str(text).map_err(|e| corrupt(format!("payload: {e}")))
}

/// The key path (`.fault.energy[1]`) and value of the first non-finite
/// number in `v`, if any. The path is only built on the way out of a
/// hit, so a clean tree costs one allocation-free walk.
fn non_finite(v: &Value) -> Option<(String, f64)> {
    match v {
        Value::Number(x) if !x.is_finite() => Some((String::new(), *x)),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, item)| non_finite(item).map(|(path, x)| (format!("[{i}]{path}"), x))),
        Value::Object(map) => map
            .iter()
            .find_map(|(key, item)| non_finite(item).map(|(path, x)| (format!(".{key}{path}"), x))),
        _ => None,
    }
}

/// Frames `payload` as `<magic> <version> <fnv1a64, 16 hex> <length>\n`
/// followed by its JSON.
///
/// # Errors
///
/// [`CoreError::SnapshotCorrupt`] when `payload` holds a non-finite
/// number or an integer beyond 2^53.
pub(crate) fn seal<T: Serialize>(
    magic: &str,
    version: u32,
    payload: &T,
) -> Result<Vec<u8>, CoreError> {
    let payload = to_json(payload)?;
    let mut out = format!(
        "{magic} {version} {:016x} {}\n",
        fnv1a64(payload.as_bytes()),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    Ok(out)
}

/// Verifies a [`seal`]ed file and returns its JSON payload.
///
/// # Errors
///
/// [`CoreError::SnapshotCorrupt`] on bad magic, an unreadable header,
/// a length or checksum mismatch, or a non-UTF-8 payload;
/// [`CoreError::SnapshotVersion`] for a version other than `version`.
pub(crate) fn open<'a>(magic: &str, version: u32, bytes: &'a [u8]) -> Result<&'a str, CoreError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing header line".to_string()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| corrupt("header is not UTF-8".to_string()))?;
    let mut parts = header.split_ascii_whitespace();
    if parts.next() != Some(magic) {
        return Err(corrupt(format!("bad magic (expected {magic})")));
    }
    let found: u32 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt("unreadable version".to_string()))?;
    if found != version {
        return Err(CoreError::SnapshotVersion {
            found,
            supported: version,
        });
    }
    let checksum = parts
        .next()
        // Canonical form only — 16 lowercase hex digits — so no two
        // distinct headers verify the same payload.
        .filter(|v| {
            v.len() == 16
                && v.bytes()
                    .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        })
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| corrupt("unreadable checksum".to_string()))?;
    let length: usize = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt("unreadable payload length".to_string()))?;
    let payload = &bytes[newline + 1..];
    if payload.len() != length {
        return Err(corrupt(format!(
            "truncated payload ({} of {length} bytes)",
            payload.len()
        )));
    }
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(corrupt(format!(
            "checksum mismatch (header {checksum:016x}, payload {actual:016x})"
        )));
    }
    std::str::from_utf8(payload).map_err(|_| corrupt("payload is not UTF-8".to_string()))
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename, best-effort directory fsync. A crash at
/// any instant leaves either the previous file or the new one, never a
/// torn write.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    let tmp = path.with_extension("tmp");
    let write = || -> std::io::Result<()> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Make the rename itself durable; best-effort (some
            // filesystems refuse directory fsync).
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    };
    write().map_err(|e| {
        let _ = fs::remove_file(&tmp);
        snapshot_io(path, &e)
    })
}

/// FNV-1a, 64-bit: dependency-free integrity checksum. Not
/// cryptographic — it guards against torn writes and bit rot, not
/// adversaries.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) fn corrupt(reason: String) -> CoreError {
    CoreError::SnapshotCorrupt {
        path: String::new(),
        reason,
    }
}

/// Fills `path` into a [`CoreError::SnapshotCorrupt`] raised while
/// decoding that file's bytes.
pub(crate) fn at_path(e: CoreError, path: &Path) -> CoreError {
    match e {
        CoreError::SnapshotCorrupt { reason, .. } => CoreError::SnapshotCorrupt {
            path: path.display().to_string(),
            reason,
        },
        other => other,
    }
}

pub(crate) fn snapshot_io(path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::SnapshotIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Serializes each item through the record `f` builds from it.
fn records<T, R: Serialize>(items: &[T], f: impl Fn(&T) -> R) -> Result<Value, Error> {
    items
        .iter()
        .map(|x| f(x).serialize())
        .collect::<Result<_, _>>()
        .map(Value::Array)
}

// ---- shape exceptions: `with` modules ---------------------------------

/// A [`Rect`] as `{min_x, min_y, max_x, max_y}`, rebuilt through
/// [`Rect::new`] so a decoded region is validated again.
pub(crate) mod rect {
    use super::*;

    #[derive(Serialize, Deserialize)]
    #[serde(deny_unknown_fields, expecting = "region")]
    struct Corners {
        min_x: f64,
        min_y: f64,
        max_x: f64,
        max_y: f64,
    }

    pub(crate) fn serialize(r: &Rect) -> Result<Value, Error> {
        let (min, max) = (r.min(), r.max());
        Corners {
            min_x: min.x,
            min_y: min.y,
            max_x: max.x,
            max_y: max.y,
        }
        .serialize()
    }

    pub(crate) fn deserialize(v: &Value) -> Result<Rect, Error> {
        let c = Corners::deserialize(v)?;
        Rect::new(Point2::new(c.min_x, c.min_y), Point2::new(c.max_x, c.max_y))
            .map_err(|e| Error::custom(e.to_string()))
    }
}

/// Nodes with their position flattened into `x`/`y`.
mod nodes {
    use super::*;

    #[derive(Serialize, Deserialize)]
    struct Node {
        id: usize,
        x: f64,
        y: f64,
        curvature: f64,
        traveled: f64,
        alive: bool,
    }

    pub(super) fn serialize(nodes: &[MobileNode]) -> Result<Value, Error> {
        records(nodes, |n| Node {
            id: n.id,
            x: n.position.x,
            y: n.position.y,
            curvature: n.curvature,
            traveled: n.traveled,
            alive: n.alive,
        })
    }

    pub(super) fn deserialize(v: &Value) -> Result<Vec<MobileNode>, Error> {
        let nodes = Vec::<Node>::deserialize(v)?
            .into_iter()
            .map(|n| MobileNode {
                id: n.id,
                position: Point2::new(n.x, n.y),
                curvature: n.curvature,
                traveled: n.traveled,
                alive: n.alive,
            });
        Ok(nodes.collect())
    }
}

/// The plan as its builder's inputs, with the full-width seed as a
/// decimal string (a JSON number is exact only up to 2^53). A decoded
/// plan is rebuilt through
/// [`FaultPlanBuilder::build`](crate::FaultPlanBuilder::build), so it
/// passes validation again.
pub(crate) mod plan {
    use super::*;

    #[derive(Serialize, Deserialize)]
    struct Plan {
        seed: String,
        kills: Vec<(u64, usize)>,
        culls: Vec<(u64, f64)>,
        death_rate: f64,
        battery: Option<BatteryModel>,
        dropout_rate: f64,
        outlier_rate: f64,
        outlier_magnitude: f64,
        stuck_rate: f64,
        stuck_slots: u64,
        link_loss: f64,
        link_retries: u32,
        recovery: RecoveryPolicy,
    }

    pub(crate) fn serialize(p: &FaultPlan) -> Result<Value, Error> {
        Plan {
            seed: p.seed.to_string(),
            kills: p.kills.clone(),
            culls: p.culls.clone(),
            death_rate: p.death_rate,
            battery: p.battery,
            dropout_rate: p.dropout_rate,
            outlier_rate: p.outlier_rate,
            outlier_magnitude: p.outlier_magnitude,
            stuck_rate: p.stuck_rate,
            stuck_slots: p.stuck_slots,
            link_loss: p.link_loss,
            link_retries: p.link_retries,
            recovery: p.recovery,
        }
        .serialize()
    }

    pub(crate) fn deserialize(v: &Value) -> Result<FaultPlan, Error> {
        let p = Plan::deserialize(v)?;
        let seed = p.seed.parse().map_err(|_| {
            Error::located(format!(
                "plan seed {:?} is not a u64 decimal string",
                p.seed
            ))
        })?;
        let mut b = FaultPlan::builder()
            .seed(seed)
            .death_rate(p.death_rate)
            .sensor_dropout(p.dropout_rate)
            .reading_outlier(p.outlier_rate, p.outlier_magnitude)
            .stuck_at(p.stuck_rate, p.stuck_slots)
            .link_loss(p.link_loss, p.link_retries)
            .recovery(p.recovery);
        for (slot, node) in p.kills {
            b = b.kill(node, slot);
        }
        for (slot, fraction) in p.culls {
            b = b.cull(fraction, slot);
        }
        if let Some(m) = p.battery {
            b = b.battery(m.capacity, m.idle_drain, m.move_drain);
        }
        b.build()
            .map_err(|e| Error::custom(format!("fails validation: {e}")))
    }
}

/// Stuck-sensor entries as `null` or `{frozen_time, until}`.
pub(crate) mod stuck {
    use super::*;

    #[derive(Serialize, Deserialize)]
    struct Frozen {
        frozen_time: f64,
        until: u64,
    }

    pub(crate) fn serialize(stuck: &[Option<(f64, u64)>]) -> Result<Value, Error> {
        records(stuck, |s| {
            s.map(|(frozen_time, until)| Frozen { frozen_time, until })
        })
    }

    pub(crate) fn deserialize(v: &Value) -> Result<Vec<Option<(f64, u64)>>, Error> {
        let stuck = Vec::<Option<Frozen>>::deserialize(v)?.into_iter();
        Ok(stuck.map(|s| s.map(|f| (f.frozen_time, f.until))).collect())
    }
}

/// Timeline samples as flat `{time, delta, rms, connected, node_count}`
/// objects: the evaluation's own keys plus `time`.
mod samples {
    use super::*;

    pub(super) fn serialize(samples: &[(f64, DeploymentEvaluation)]) -> Result<Value, Error> {
        let rows = samples.iter().map(|(time, eval)| {
            let mut row = eval.serialize()?;
            if let Value::Object(map) = &mut row {
                map.insert("time".to_string(), time.serialize()?);
            }
            Ok(row)
        });
        rows.collect::<Result<_, _>>().map(Value::Array)
    }

    pub(super) fn deserialize(v: &Value) -> Result<Vec<(f64, DeploymentEvaluation)>, Error> {
        let rows = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        rows.iter()
            .map(|row| {
                let time = row.get("time").unwrap_or(&Value::Null);
                let time = serde::__private::at("time", f64::deserialize(time))?;
                Ok((time, DeploymentEvaluation::deserialize(row)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DeathCause;
    use proptest::prelude::*;

    /// `payload` under a correct header, so that only the structural
    /// decoder, not the checksum, judges it.
    fn reseal(payload: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "{MAGIC} {SNAPSHOT_VERSION} {:016x} {}\n",
            fnv1a64(payload),
            payload.len()
        )
        .into_bytes();
        out.extend_from_slice(payload);
        out
    }

    fn sample_snapshot() -> SimSnapshot {
        let plan = FaultPlan::builder()
            .seed(u64::MAX - 12345) // beyond 2^53: must survive the trip
            .kill(3, 7)
            .cull(0.25, 11)
            .death_rate(0.01)
            .battery(120.0, 0.5, 2.0)
            .sensor_dropout(0.02)
            .reading_outlier(0.03, 40.0)
            .stuck_at(0.04, 6)
            .link_loss(0.2, 3)
            .recovery(RecoveryPolicy::On)
            .build()
            .unwrap();
        SimSnapshot {
            label: "test,seed=9".to_string(),
            slot: 17,
            time: 617.0,
            time_step: 1.0,
            sense_spacing: 1.0,
            comm_radius: 10.0,
            sensing_radius: 5.0,
            max_speed: 1.0,
            beta: 2.0,
            cma: CmaConfig::default(),
            region: Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap(),
            curvature_scale: 0.012_345_678_901_234_5,
            pipeline: standard_pipeline(),
            nodes: vec![
                MobileNode {
                    id: 0,
                    position: Point2::new(33.333_333_333_333_336, 77.1),
                    curvature: -4.2e-3,
                    traveled: 12.75,
                    alive: true,
                },
                MobileNode {
                    id: 1,
                    position: Point2::new(50.0, 50.0),
                    curvature: 0.1,
                    traveled: 3.5,
                    alive: false,
                },
            ],
            fault: Some(FaultState {
                plan,
                slot: 17,
                energy: vec![85.25, 0.0],
                stuck: vec![None, Some((610.0, 19))],
                events: vec![
                    FaultEvent::Death {
                        slot: 5,
                        time: 605.0,
                        node: 1,
                        cause: DeathCause::Battery,
                    },
                    FaultEvent::Partition {
                        slot: 6,
                        time: 606.0,
                        components: 2,
                        critical: 3,
                    },
                    FaultEvent::Reconnected {
                        slot: 9,
                        time: 609.0,
                        after_slots: 3,
                    },
                ],
                partition_since: Some(14),
                deaths_total: 1,
                retried_total: 22,
                dropped_total: 4,
            }),
            timeline: Some(TimelineState {
                samples: vec![(
                    600.0,
                    DeploymentEvaluation {
                        delta: 123.456_789_012_345_67,
                        rms: 1.5,
                        connected: true,
                        node_count: 2,
                    },
                )],
                events: vec![FaultEvent::Death {
                    slot: 5,
                    time: 605.0,
                    node: 1,
                    cause: DeathCause::Battery,
                }],
                events_synced: 1,
            }),
            survivability: Some(SurvivabilityState {
                initial_nodes: 2,
                last_alive: 1,
                baseline_delta: Some(123.456_789_012_345_67),
                final_delta: Some(150.0),
                degradation: vec![(0.0, 123.456_789_012_345_67), (0.5, 150.0)],
                partitions: 1,
                reconnects: 1,
                reconnect_times: vec![3.0],
                partition_open_since: Some(614.0),
                messages: 420,
                retried: 22,
                dropped: 4,
                critical_nodes: vec![0],
            }),
        }
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        // Float bits, not just PartialEq.
        assert_eq!(
            snap.curvature_scale.to_bits(),
            back.curvature_scale.to_bits()
        );
        assert_eq!(
            snap.nodes[0].position.x.to_bits(),
            back.nodes[0].position.x.to_bits()
        );
        // The full-width seed survived the string detour.
        assert_eq!(back.fault.as_ref().unwrap().plan.seed(), u64::MAX - 12345);
    }

    #[test]
    fn v1_golden_is_reproduced_byte_for_byte() {
        // Recorded before the codec was derived: the derived encoder
        // must write the same bytes, and decode them to the fixture.
        let golden = include_bytes!("../../../tests/goldens/snapshot_v1.cpsnap");
        assert_eq!(sample_snapshot().to_bytes().unwrap(), golden);
        assert_eq!(SimSnapshot::from_bytes(golden).unwrap(), sample_snapshot());
    }

    #[test]
    fn overflowing_numbers_are_rejected_at_decode_time() {
        // `1e999` parses to infinity in a naive reader; a state loaded
        // with it could never be checkpointed again.
        let payload = to_json(&sample_snapshot()).unwrap();
        for (from, to) in [
            (r#""reconnect_times":[3]"#, r#""reconnect_times":[1e999]"#),
            (r#"[0.5,150]"#, r#"[0.5,1e999]"#),
            (r#""time":617"#, r#""time":1e999"#),
        ] {
            assert!(payload.contains(from), "{from}");
            let evil = reseal(payload.replacen(from, to, 1).as_bytes());
            match SimSnapshot::from_bytes(&evil) {
                Err(CoreError::SnapshotCorrupt { reason, .. }) => {
                    assert!(reason.contains("number out of range"), "{reason}")
                }
                other => panic!("{to}: expected SnapshotCorrupt, got {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in prop::collection::vec(0u8..=255, 0..300),
            framed in any::<bool>(),
        ) {
            // Half the cases get a valid header, so the JSON parser and
            // the structural decoder see the garbage too.
            let bytes = if framed { reseal(&bytes) } else { bytes };
            prop_assert!(matches!(
                SimSnapshot::from_bytes(&bytes),
                Err(CoreError::SnapshotCorrupt { .. } | CoreError::SnapshotVersion { .. })
            ));
        }

        #[test]
        fn edited_payloads_decode_or_fail_typed(
            edits in prop::collection::vec((any::<prop::sample::Index>(), 0u8..=255, 0u8..3), 1..6),
        ) {
            let mut payload = to_json(&sample_snapshot()).unwrap().into_bytes();
            for (at, byte, op) in edits {
                let i = at.index(payload.len());
                match op {
                    0 => payload[i] = byte,
                    1 => payload.insert(i, byte),
                    _ => {
                        payload.remove(i);
                    }
                }
            }
            let result = SimSnapshot::from_bytes(&reseal(&payload));
            prop_assert!(
                matches!(result, Ok(_) | Err(CoreError::SnapshotCorrupt { .. })),
                "{result:?}"
            );
        }
    }

    #[test]
    fn minimal_snapshot_round_trips() {
        let mut snap = sample_snapshot();
        snap.fault = None;
        snap.timeline = None;
        snap.survivability = None;
        let back = SimSnapshot::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        assert_eq!(snap, back);
    }

    /// Checkpoints a run at slot 3, re-seals the snapshot's JSON object
    /// after `edit`, resumes from those bytes to slot 7, and asserts the
    /// result is bit-identical to the uninterrupted run. Returns the
    /// re-sealed bytes.
    fn resume_after_edit_is_bit_identical(
        edit: impl FnOnce(&mut std::collections::BTreeMap<String, Value>),
    ) -> Vec<u8> {
        use cps_field::{PeaksField, Static};
        use cps_geometry::GridSpec;

        let region = Rect::square(100.0).unwrap();
        let field = Static::new(PeaksField::new(region, 8.0));
        let grid = GridSpec::new(region, 21, 21).unwrap();
        let start = crate::scenario::grid_start(region, 25);
        let (checkpoint_slot, total_slots) = (3, 7);
        let mut reference = crate::CmaBuilder::new(region, start.clone())
            .start_time(600.0)
            .run(field)
            .unwrap();
        let mut ref_timeline = DeltaTimeline::new();
        for _ in 0..total_slots {
            reference.step().unwrap();
            ref_timeline.record(&reference, &grid).unwrap();
        }

        let mut interrupted = crate::CmaBuilder::new(region, start)
            .start_time(600.0)
            .run(field)
            .unwrap();
        let mut timeline = DeltaTimeline::new();
        for _ in 0..checkpoint_slot {
            interrupted.step().unwrap();
            timeline.record(&interrupted, &grid).unwrap();
        }
        let mut snap = interrupted.checkpoint();
        snap.attach_timeline(&timeline);
        let Value::Object(mut fields) = snap.serialize().unwrap() else {
            panic!("a snapshot encodes to a JSON object");
        };
        edit(&mut fields);
        let bytes = seal(MAGIC, SNAPSHOT_VERSION, &Value::Object(fields)).unwrap();

        let snap = SimSnapshot::from_bytes(&bytes).unwrap();
        let mut timeline = snap.timeline(EvalOptions::new()).unwrap();
        let mut resumed = crate::CmaBuilder::resume_from(snap).run(field).unwrap();
        assert_eq!(resumed.slot(), checkpoint_slot);
        for _ in checkpoint_slot..total_slots {
            resumed.step().unwrap();
            timeline.record(&resumed, &grid).unwrap();
        }
        for (a, b) in reference.nodes().iter().zip(resumed.nodes()) {
            assert_eq!(a.position.x.to_bits(), b.position.x.to_bits());
            assert_eq!(a.position.y.to_bits(), b.position.y.to_bits());
            assert_eq!(a.curvature.to_bits(), b.curvature.to_bits());
        }
        assert_eq!(reference.nodes(), resumed.nodes());
        assert_eq!(ref_timeline.len(), timeline.len());
        for ((ta, ea), (tb, eb)) in ref_timeline.samples().iter().zip(timeline.samples()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(ea.delta.to_bits(), eb.delta.to_bits());
            assert_eq!(ea.rms.to_bits(), eb.rms.to_bits());
        }
        bytes
    }

    #[test]
    fn snapshots_with_removed_eval_fields_resume_bit_identically() {
        // Snapshots written while δ had a kernel switch and a tile
        // cache carry `eval_cached` and `eval_kernel`. The decoder
        // reads by key, so such a snapshot still loads, and resuming
        // it reproduces the uninterrupted run to the bit.
        let bytes = resume_after_edit_is_bit_identical(|fields| {
            fields.insert("eval_cached".to_string(), Value::Bool(false));
            fields.insert(
                "eval_kernel".to_string(),
                Value::String("raster".to_string()),
            );
        });
        assert!(String::from_utf8_lossy(&bytes)
            .contains(r#""eval_cached":false,"eval_kernel":"raster","#));
    }

    #[test]
    fn snapshots_without_a_pipeline_resume_bit_identically() {
        // Snapshots written before the `pipeline` field existed decode
        // as the standard stage sequence.
        let bytes = resume_after_edit_is_bit_identical(|fields| {
            assert!(fields.remove("pipeline").is_some());
        });
        assert!(!String::from_utf8_lossy(&bytes).contains("pipeline"));
    }

    #[test]
    fn reordered_pipeline_is_rejected_on_resume() {
        use cps_field::{PeaksField, Static};

        let region = Rect::square(100.0).unwrap();
        let field = Static::new(PeaksField::new(region, 8.0));
        let start = crate::scenario::grid_start(region, 9);
        let mut sim = crate::CmaBuilder::new(region, start).run(field).unwrap();
        sim.step().unwrap();
        let mut snap = sim.checkpoint();
        snap.pipeline.swap(0, 1);
        match crate::CmaBuilder::resume_from(snap).run(field) {
            Err(CoreError::SnapshotCorrupt { reason, .. }) => assert!(
                reason.contains(
                    r#"["sense", "fault", "exchange", "recovery", "optimize", "record"]"#
                ),
                "{reason}"
            ),
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        // Flip one byte at a time across the whole file (header and
        // payload); every mutation must fail verification — never parse
        // into a silently different state.
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x20; // case/segment flip keeps most bytes printable
            match SimSnapshot::from_bytes(&evil) {
                Err(_) => {}
                Ok(parsed) => panic!(
                    "flipping byte {i} ({:?}) parsed successfully: {parsed:?}",
                    bytes[i] as char
                ),
            }
        }
    }

    #[test]
    fn truncated_and_empty_files_are_corrupt() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        assert!(matches!(
            SimSnapshot::from_bytes(&[]),
            Err(CoreError::SnapshotCorrupt { .. })
        ));
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let bumped = text.replacen("CPSSNAP 1 ", "CPSSNAP 2 ", 1);
        assert!(matches!(
            SimSnapshot::from_bytes(bumped.as_bytes()),
            Err(CoreError::SnapshotVersion {
                found: 2,
                supported: SNAPSHOT_VERSION
            })
        ));
    }

    #[test]
    fn non_finite_state_is_rejected_at_encode_time() {
        let mut snap = sample_snapshot();
        snap.curvature_scale = f64::NAN;
        let reason = |snap: &SimSnapshot| match snap.to_bytes() {
            Err(CoreError::SnapshotCorrupt { reason, .. }) => reason,
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        };
        assert_eq!(reason(&snap), "curvature_scale is not finite (NaN)");
        snap.curvature_scale = 1.0;
        snap.fault.as_mut().unwrap().energy[1] = f64::INFINITY;
        assert_eq!(reason(&snap), "fault.energy[1] is not finite (inf)");
    }

    #[test]
    fn checkpoint_dir_retention_and_fallback() {
        let dir = std::env::temp_dir().join(format!(
            "cps_ckpt_test_{}_{}",
            std::process::id(),
            "retention"
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointDir::new(&dir).keep(2);
        let mut snap = sample_snapshot();
        for slot in [10u64, 20, 30] {
            snap.slot = slot;
            store.store(&snap).unwrap();
        }
        let kept = store.snapshots().unwrap();
        assert_eq!(kept.len(), 2, "retention must prune to 2");
        assert!(kept[0].to_string_lossy().contains("snap-000000000020"));

        // Corrupt the newest: fallback must pick slot 20.
        let newest = kept.last().unwrap().clone();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let (recovered, path) = store.latest_valid().unwrap().expect("older snapshot valid");
        assert_eq!(recovered.slot, 20);
        assert!(path.to_string_lossy().contains("snap-000000000020"));

        // Truncate that one to zero bytes too: nothing valid remains.
        fs::write(&path, b"").unwrap();
        assert!(store.latest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_empty_not_fatal() {
        let store = CheckpointDir::new("/nonexistent/cps/ckpt/dir");
        assert!(store.snapshots().unwrap().is_empty());
        assert!(store.latest_valid().unwrap().is_none());
    }

    #[test]
    fn policy_triggers() {
        let off = CheckpointPolicy::disabled();
        assert!(!off.is_enabled());
        assert!(!off.due(10, 3));
        let every = CheckpointPolicy::every(5);
        assert!(every.is_enabled());
        assert!(every.due(5, 0) && every.due(10, 0));
        assert!(!every.due(7, 0) && !every.due(0, 0));
        let eventful = CheckpointPolicy::every(0).on_fault_event(true);
        assert!(eventful.is_enabled());
        assert!(eventful.due(3, 1));
        assert!(!eventful.due(3, 0));
        let both = CheckpointPolicy::every(4).on_fault_event(true);
        assert!(both.due(4, 0) && both.due(3, 2));
        assert!(!both.due(3, 0));
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
