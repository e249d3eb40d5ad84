//! Checkpoint/restore: versioned, checksummed snapshots of a running
//! simulation with crash-safe persistence.
//!
//! A [`SimSnapshot`] captures everything
//! [`Simulation::step`](crate::Simulation::step) depends on — the slot
//! clock, the full [`MobileNode`] fleet (positions, curvatures, travel
//! odometers, alive flags), the CMA configuration in effect (including
//! mid-run overrides), the gossiped curvature scale, and the complete
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

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use cps_core::ostd::CmaConfig;
use cps_core::{
    CoreError, DeploymentEvaluation, EvalOptions, SurvivabilityState, SurvivabilityTracker,
};
use cps_geometry::{Point2, Rect};
use serde_json::Value;

use crate::fault::{DeathCause, FaultEvent, FaultPlan, RecoveryPolicy};
use crate::{DeltaTimeline, MobileNode};

/// Newest snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Magic token opening every snapshot file.
const MAGIC: &str = "CPSSNAP";

/// File extension used by [`CheckpointDir`].
const EXTENSION: &str = "cpsnap";

/// Checkpointed fault-injection state: the plan plus everything the
/// runtime accumulated up to the snapshot slot.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    /// The installed schedule (restored through the validating builder).
    pub plan: FaultPlan,
    /// Slot cursor — the SplitMix64 stream of every future slot is
    /// derived from `(plan seed, slot)`, so this one integer carries
    /// the whole RNG state.
    pub slot: u64,
    /// Remaining per-node energy (empty without a battery model).
    pub energy: Vec<f64>,
    /// Per-node stuck-sensor state: `(frozen_time, expiry_slot)`.
    pub stuck: Vec<Option<(f64, u64)>>,
    /// Everything recorded so far (deaths, partitions, reconnects).
    pub events: Vec<FaultEvent>,
    /// Slot the currently-open partition started at, if any.
    pub partition_since: Option<u64>,
    /// Total deaths so far.
    pub deaths_total: usize,
    /// Total retried deliveries so far.
    pub retried_total: usize,
    /// Total dropped directed link-slots so far.
    pub dropped_total: usize,
}

/// Checkpointed [`DeltaTimeline`] records (samples + synced events).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineState {
    /// The `(time, evaluation)` samples recorded so far.
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
#[derive(Debug, Clone, PartialEq)]
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
    /// The CMA parameters in effect, including any mid-run overrides.
    pub cma: CmaConfig,
    /// Region of interest.
    pub region: Rect,
    /// The gossiped curvature normalization reference.
    pub curvature_scale: f64,
    /// Stage names of the pipeline that produced this snapshot, in
    /// execution order. Snapshots written before the stage pipeline
    /// existed decode as the standard sequence; restore rejects
    /// anything else, because resuming a run under a different stage
    /// order could not be bit-identical to the uninterrupted one.
    pub pipeline: Vec<String>,
    /// The full fleet, dead nodes included.
    pub nodes: Vec<MobileNode>,
    /// Fault-runtime state (None for pristine runs).
    pub fault: Option<FaultState>,
    /// δ(t) records, when the app attached them.
    pub timeline: Option<TimelineState>,
    /// Survivability tracker state, when the app attached it.
    pub survivability: Option<SurvivabilityState>,
}

impl SimSnapshot {
    /// Attaches the timeline's records so a resumed run continues the
    /// same δ(t) series.
    pub fn attach_timeline(&mut self, timeline: &DeltaTimeline) {
        self.timeline = Some(TimelineState {
            samples: timeline.samples().to_vec(),
            events: timeline.events().to_vec(),
            events_synced: timeline.events_synced(),
        });
    }

    /// Rebuilds the attached timeline (None when none was attached),
    /// recording with `opts` from here on.
    pub fn timeline(&self, opts: EvalOptions) -> Option<DeltaTimeline> {
        self.timeline.as_ref().map(|t| {
            DeltaTimeline::from_state(opts, t.samples.clone(), t.events.clone(), t.events_synced)
        })
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
        let payload = serde_json::to_string(&self.encode()?).map_err(|e| corrupt(e.to_string()))?;
        let mut out = format!(
            "{MAGIC} {SNAPSHOT_VERSION} {:016x} {}\n",
            fnv1a64(payload.as_bytes()),
            payload.len()
        )
        .into_bytes();
        out.extend_from_slice(payload.as_bytes());
        Ok(out)
    }

    /// Parses and verifies the byte format.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] on bad magic, length or checksum
    /// mismatch, or a malformed payload;
    /// [`CoreError::SnapshotVersion`] for an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| corrupt("missing header line".to_string()))?;
        let header = std::str::from_utf8(&bytes[..newline])
            .map_err(|_| corrupt("header is not UTF-8".to_string()))?;
        let mut parts = header.split_ascii_whitespace();
        if parts.next() != Some(MAGIC) {
            return Err(corrupt(format!("bad magic (expected {MAGIC})")));
        }
        let version: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt("unreadable version".to_string()))?;
        if version != SNAPSHOT_VERSION {
            return Err(CoreError::SnapshotVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
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
        let text = std::str::from_utf8(payload)
            .map_err(|_| corrupt("payload is not UTF-8".to_string()))?;
        let value: Value =
            serde_json::from_str(text).map_err(|e| corrupt(format!("payload is not JSON: {e}")))?;
        Self::decode(&value)
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
        Self::from_bytes(&bytes).map_err(|e| match e {
            CoreError::SnapshotCorrupt { reason, .. } => CoreError::SnapshotCorrupt {
                path: path.display().to_string(),
                reason,
            },
            other => other,
        })
    }

    // ---- encoding -------------------------------------------------

    fn encode(&self) -> Result<Value, CoreError> {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                Ok(obj([
                    ("id", int(n.id as u64)?),
                    ("x", num("node x", n.position.x)?),
                    ("y", num("node y", n.position.y)?),
                    ("curvature", num("node curvature", n.curvature)?),
                    ("traveled", num("node traveled", n.traveled)?),
                    ("alive", Value::Bool(n.alive)),
                ]))
            })
            .collect::<Result<Vec<Value>, CoreError>>()?;
        let fault = match &self.fault {
            Some(f) => encode_fault(f)?,
            None => Value::Null,
        };
        let timeline = match &self.timeline {
            Some(t) => encode_timeline(t)?,
            None => Value::Null,
        };
        let survivability = match &self.survivability {
            Some(s) => encode_survivability(s)?,
            None => Value::Null,
        };
        Ok(obj([
            ("label", Value::String(self.label.clone())),
            ("slot", int(self.slot)?),
            ("time", num("time", self.time)?),
            ("time_step", num("time_step", self.time_step)?),
            ("sense_spacing", num("sense_spacing", self.sense_spacing)?),
            ("comm_radius", num("comm_radius", self.comm_radius)?),
            (
                "sensing_radius",
                num("sensing_radius", self.sensing_radius)?,
            ),
            ("max_speed", num("max_speed", self.max_speed)?),
            ("beta", num("beta", self.beta)?),
            ("cma", encode_cma(&self.cma)?),
            (
                "region",
                obj([
                    ("min_x", num("region min_x", self.region.min().x)?),
                    ("min_y", num("region min_y", self.region.min().y)?),
                    ("max_x", num("region max_x", self.region.max().x)?),
                    ("max_y", num("region max_y", self.region.max().y)?),
                ]),
            ),
            (
                "curvature_scale",
                num("curvature_scale", self.curvature_scale)?,
            ),
            (
                "pipeline",
                Value::Array(
                    self.pipeline
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            ),
            ("nodes", Value::Array(nodes)),
            ("fault", fault),
            ("timeline", timeline),
            ("survivability", survivability),
        ]))
    }

    // ---- decoding -------------------------------------------------

    fn decode(value: &Value) -> Result<Self, CoreError> {
        let region = {
            let r = get(value, "region")?;
            Rect::new(
                Point2::new(dec_f64(r, "min_x")?, dec_f64(r, "min_y")?),
                Point2::new(dec_f64(r, "max_x")?, dec_f64(r, "max_y")?),
            )
            .map_err(|e| corrupt(format!("region: {e}")))?
        };
        let nodes = get(value, "nodes")?
            .as_array()
            .ok_or_else(|| corrupt("nodes must be an array".to_string()))?
            .iter()
            .map(|n| {
                Ok(MobileNode {
                    id: dec_u64(n, "id")? as usize,
                    position: Point2::new(dec_f64(n, "x")?, dec_f64(n, "y")?),
                    curvature: dec_f64(n, "curvature")?,
                    traveled: dec_f64(n, "traveled")?,
                    alive: dec_bool(n, "alive")?,
                })
            })
            .collect::<Result<Vec<MobileNode>, CoreError>>()?;
        let fault = match get(value, "fault")? {
            Value::Null => None,
            f => Some(decode_fault(f)?),
        };
        let timeline = match get(value, "timeline")? {
            Value::Null => None,
            t => Some(decode_timeline(t)?),
        };
        let survivability = match get(value, "survivability")? {
            Value::Null => None,
            s => Some(decode_survivability(s)?),
        };
        // Lenient: snapshots written before the stage pipeline existed
        // ran the standard sequence.
        let pipeline = match value.get("pipeline") {
            None | Some(Value::Null) => crate::stage::STANDARD_STAGES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Some(Value::Array(stages)) => stages
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| corrupt("pipeline stage names must be strings".to_string()))
                })
                .collect::<Result<Vec<String>, CoreError>>()?,
            Some(_) => return Err(corrupt("pipeline must be an array".to_string())),
        };
        Ok(SimSnapshot {
            label: dec_str(value, "label")?,
            slot: dec_u64(value, "slot")?,
            time: dec_f64(value, "time")?,
            time_step: dec_f64(value, "time_step")?,
            sense_spacing: dec_f64(value, "sense_spacing")?,
            comm_radius: dec_f64(value, "comm_radius")?,
            sensing_radius: dec_f64(value, "sensing_radius")?,
            max_speed: dec_f64(value, "max_speed")?,
            beta: dec_f64(value, "beta")?,
            cma: decode_cma(get(value, "cma")?)?,
            region,
            curvature_scale: dec_f64(value, "curvature_scale")?,
            pipeline,
            nodes,
            fault,
            timeline,
            survivability,
        })
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

// ---- shared helpers ---------------------------------------------------
// (pub(crate): the sweep manifest reuses the same header format,
// checksum, atomic-write path, and JSON codec discipline.)

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

pub(crate) fn snapshot_io(path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::SnapshotIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

pub(crate) fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

/// Encodes a float, rejecting non-finite values (JSON would silently
/// turn them into `null`).
pub(crate) fn num(what: &str, x: f64) -> Result<Value, CoreError> {
    if x.is_finite() {
        Ok(Value::Number(x))
    } else {
        Err(corrupt(format!("{what} is not finite ({x})")))
    }
}

/// Encodes an unsigned integer; JSON numbers are `f64`, exact only up
/// to 2^53 (slot counts and ids are far below; the plan *seed* is a
/// full-width `u64` and travels as a string instead).
pub(crate) fn int(x: u64) -> Result<Value, CoreError> {
    const MAX_EXACT: u64 = 1 << 53;
    if x <= MAX_EXACT {
        Ok(Value::Number(x as f64))
    } else {
        Err(corrupt(format!("integer {x} exceeds JSON's exact range")))
    }
}

pub(crate) fn get<'a>(value: &'a Value, key: &str) -> Result<&'a Value, CoreError> {
    value
        .get(key)
        .ok_or_else(|| corrupt(format!("missing field {key}")))
}

pub(crate) fn dec_f64(value: &Value, key: &str) -> Result<f64, CoreError> {
    get(value, key)?
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| corrupt(format!("field {key} must be a finite number")))
}

pub(crate) fn dec_u64(value: &Value, key: &str) -> Result<u64, CoreError> {
    get(value, key)?
        .as_u64()
        .ok_or_else(|| corrupt(format!("field {key} must be an unsigned integer")))
}

pub(crate) fn dec_bool(value: &Value, key: &str) -> Result<bool, CoreError> {
    get(value, key)?
        .as_bool()
        .ok_or_else(|| corrupt(format!("field {key} must be a boolean")))
}

pub(crate) fn dec_str(value: &Value, key: &str) -> Result<String, CoreError> {
    Ok(get(value, key)?
        .as_str()
        .ok_or_else(|| corrupt(format!("field {key} must be a string")))?
        .to_string())
}

fn dec_opt_u64(value: &Value, key: &str) -> Result<Option<u64>, CoreError> {
    match get(value, key)? {
        Value::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| corrupt(format!("field {key} must be null or an unsigned integer"))),
    }
}

fn dec_opt_f64(value: &Value, key: &str) -> Result<Option<f64>, CoreError> {
    match get(value, key)? {
        Value::Null => Ok(None),
        v => v
            .as_f64()
            .filter(|x| x.is_finite())
            .map(Some)
            .ok_or_else(|| corrupt(format!("field {key} must be null or a finite number"))),
    }
}

// ---- CMA config -------------------------------------------------------

fn encode_cma(cma: &CmaConfig) -> Result<Value, CoreError> {
    Ok(obj([
        ("comm_radius", num("cma comm_radius", cma.comm_radius)?),
        (
            "sensing_radius",
            num("cma sensing_radius", cma.sensing_radius)?,
        ),
        ("beta", num("cma beta", cma.beta)?),
        ("curvature_gain", num("curvature_gain", cma.curvature_gain)?),
        ("peak_gain", num("peak_gain", cma.peak_gain)?),
        (
            "curvature_scale",
            num("cma curvature_scale", cma.curvature_scale)?,
        ),
        (
            "weight_exponent",
            num("weight_exponent", cma.weight_exponent)?,
        ),
        ("weight_floor", num("weight_floor", cma.weight_floor)?),
        ("stop_threshold", num("stop_threshold", cma.stop_threshold)?),
    ]))
}

fn decode_cma(value: &Value) -> Result<CmaConfig, CoreError> {
    Ok(CmaConfig {
        comm_radius: dec_f64(value, "comm_radius")?,
        sensing_radius: dec_f64(value, "sensing_radius")?,
        beta: dec_f64(value, "beta")?,
        curvature_gain: dec_f64(value, "curvature_gain")?,
        peak_gain: dec_f64(value, "peak_gain")?,
        curvature_scale: dec_f64(value, "curvature_scale")?,
        weight_exponent: dec_f64(value, "weight_exponent")?,
        weight_floor: dec_f64(value, "weight_floor")?,
        stop_threshold: dec_f64(value, "stop_threshold")?,
    })
}

// ---- fault state ------------------------------------------------------

fn encode_fault(f: &FaultState) -> Result<Value, CoreError> {
    let plan = &f.plan;
    let kills = plan
        .kills
        .iter()
        .map(|&(slot, node)| Ok(Value::Array(vec![int(slot)?, int(node as u64)?])))
        .collect::<Result<Vec<Value>, CoreError>>()?;
    let culls = plan
        .culls
        .iter()
        .map(|&(slot, frac)| Ok(Value::Array(vec![int(slot)?, num("cull fraction", frac)?])))
        .collect::<Result<Vec<Value>, CoreError>>()?;
    let battery = match plan.battery {
        Some(b) => obj([
            ("capacity", num("battery capacity", b.capacity)?),
            ("idle_drain", num("battery idle_drain", b.idle_drain)?),
            ("move_drain", num("battery move_drain", b.move_drain)?),
        ]),
        None => Value::Null,
    };
    let recovery = match plan.recovery {
        RecoveryPolicy::Auto => "auto",
        RecoveryPolicy::On => "on",
        RecoveryPolicy::Off => "off",
    };
    let energy = f
        .energy
        .iter()
        .map(|&e| num("battery energy", e))
        .collect::<Result<Vec<Value>, CoreError>>()?;
    let stuck = f
        .stuck
        .iter()
        .map(|s| match s {
            Some((frozen_time, until)) => Ok(obj([
                ("frozen_time", num("stuck frozen_time", *frozen_time)?),
                ("until", int(*until)?),
            ])),
            None => Ok(Value::Null),
        })
        .collect::<Result<Vec<Value>, CoreError>>()?;
    let events = f
        .events
        .iter()
        .map(encode_event)
        .collect::<Result<Vec<Value>, CoreError>>()?;
    Ok(obj([
        (
            "plan",
            obj([
                // Full-width u64: JSON numbers are f64, so the seed
                // travels as a decimal string.
                ("seed", Value::String(plan.seed.to_string())),
                ("kills", Value::Array(kills)),
                ("culls", Value::Array(culls)),
                ("death_rate", num("death_rate", plan.death_rate)?),
                ("battery", battery),
                ("dropout_rate", num("dropout_rate", plan.dropout_rate)?),
                ("outlier_rate", num("outlier_rate", plan.outlier_rate)?),
                (
                    "outlier_magnitude",
                    num("outlier_magnitude", plan.outlier_magnitude)?,
                ),
                ("stuck_rate", num("stuck_rate", plan.stuck_rate)?),
                ("stuck_slots", int(plan.stuck_slots)?),
                ("link_loss", num("link_loss", plan.link_loss)?),
                ("link_retries", int(u64::from(plan.link_retries))?),
                ("recovery", Value::String(recovery.to_string())),
            ]),
        ),
        ("slot", int(f.slot)?),
        ("energy", Value::Array(energy)),
        ("stuck", Value::Array(stuck)),
        ("events", Value::Array(events)),
        (
            "partition_since",
            match f.partition_since {
                Some(s) => int(s)?,
                None => Value::Null,
            },
        ),
        ("deaths_total", int(f.deaths_total as u64)?),
        ("retried_total", int(f.retried_total as u64)?),
        ("dropped_total", int(f.dropped_total as u64)?),
    ]))
}

fn decode_fault(value: &Value) -> Result<FaultState, CoreError> {
    let p = get(value, "plan")?;
    let mut builder = FaultPlan::builder().seed(
        get(p, "seed")?
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| corrupt("plan seed must be a u64 string".to_string()))?,
    );
    for kill in get(p, "kills")?
        .as_array()
        .ok_or_else(|| corrupt("plan kills must be an array".to_string()))?
    {
        let pair = kill
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| corrupt("plan kill must be [slot, node]".to_string()))?;
        let slot = pair[0]
            .as_u64()
            .ok_or_else(|| corrupt("kill slot must be an integer".to_string()))?;
        let node = pair[1]
            .as_u64()
            .ok_or_else(|| corrupt("kill node must be an integer".to_string()))?;
        builder = builder.kill(node as usize, slot);
    }
    for cull in get(p, "culls")?
        .as_array()
        .ok_or_else(|| corrupt("plan culls must be an array".to_string()))?
    {
        let pair = cull
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| corrupt("plan cull must be [slot, fraction]".to_string()))?;
        let slot = pair[0]
            .as_u64()
            .ok_or_else(|| corrupt("cull slot must be an integer".to_string()))?;
        let frac = pair[1]
            .as_f64()
            .ok_or_else(|| corrupt("cull fraction must be a number".to_string()))?;
        builder = builder.cull(frac, slot);
    }
    builder = builder.death_rate(dec_f64(p, "death_rate")?);
    if let Some(b) = match get(p, "battery")? {
        Value::Null => None,
        b => Some(b),
    } {
        builder = builder.battery(
            dec_f64(b, "capacity")?,
            dec_f64(b, "idle_drain")?,
            dec_f64(b, "move_drain")?,
        );
    }
    builder = builder
        .sensor_dropout(dec_f64(p, "dropout_rate")?)
        .reading_outlier(
            dec_f64(p, "outlier_rate")?,
            dec_f64(p, "outlier_magnitude")?,
        )
        .stuck_at(dec_f64(p, "stuck_rate")?, dec_u64(p, "stuck_slots")?)
        .link_loss(dec_f64(p, "link_loss")?, dec_u64(p, "link_retries")? as u32)
        .recovery(match dec_str(p, "recovery")?.as_str() {
            "auto" => RecoveryPolicy::Auto,
            "on" => RecoveryPolicy::On,
            "off" => RecoveryPolicy::Off,
            other => return Err(corrupt(format!("unknown recovery policy {other:?}"))),
        });
    let plan = builder
        .build()
        .map_err(|e| corrupt(format!("plan fails validation: {e}")))?;
    let energy = get(value, "energy")?
        .as_array()
        .ok_or_else(|| corrupt("fault energy must be an array".to_string()))?
        .iter()
        .map(|e| {
            e.as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| corrupt("energy entries must be finite numbers".to_string()))
        })
        .collect::<Result<Vec<f64>, CoreError>>()?;
    let stuck = get(value, "stuck")?
        .as_array()
        .ok_or_else(|| corrupt("fault stuck must be an array".to_string()))?
        .iter()
        .map(|s| match s {
            Value::Null => Ok(None),
            s => Ok(Some((dec_f64(s, "frozen_time")?, dec_u64(s, "until")?))),
        })
        .collect::<Result<Vec<Option<(f64, u64)>>, CoreError>>()?;
    let events = decode_events(get(value, "events")?)?;
    Ok(FaultState {
        plan,
        slot: dec_u64(value, "slot")?,
        energy,
        stuck,
        events,
        partition_since: dec_opt_u64(value, "partition_since")?,
        deaths_total: dec_u64(value, "deaths_total")? as usize,
        retried_total: dec_u64(value, "retried_total")? as usize,
        dropped_total: dec_u64(value, "dropped_total")? as usize,
    })
}

// ---- fault events -----------------------------------------------------

fn encode_event(event: &FaultEvent) -> Result<Value, CoreError> {
    match *event {
        FaultEvent::Death {
            slot,
            time,
            node,
            cause,
        } => Ok(obj([
            ("kind", Value::String("death".to_string())),
            ("slot", int(slot)?),
            ("time", num("event time", time)?),
            ("node", int(node as u64)?),
            (
                "cause",
                Value::String(
                    match cause {
                        DeathCause::Scheduled => "scheduled",
                        DeathCause::Battery => "battery",
                        DeathCause::Random => "random",
                    }
                    .to_string(),
                ),
            ),
        ])),
        FaultEvent::Partition {
            slot,
            time,
            components,
            critical,
        } => Ok(obj([
            ("kind", Value::String("partition".to_string())),
            ("slot", int(slot)?),
            ("time", num("event time", time)?),
            ("components", int(components as u64)?),
            ("critical", int(critical as u64)?),
        ])),
        FaultEvent::Reconnected {
            slot,
            time,
            after_slots,
        } => Ok(obj([
            ("kind", Value::String("reconnected".to_string())),
            ("slot", int(slot)?),
            ("time", num("event time", time)?),
            ("after_slots", int(after_slots)?),
        ])),
    }
}

fn decode_events(value: &Value) -> Result<Vec<FaultEvent>, CoreError> {
    value
        .as_array()
        .ok_or_else(|| corrupt("events must be an array".to_string()))?
        .iter()
        .map(|e| {
            let slot = dec_u64(e, "slot")?;
            let time = dec_f64(e, "time")?;
            match dec_str(e, "kind")?.as_str() {
                "death" => Ok(FaultEvent::Death {
                    slot,
                    time,
                    node: dec_u64(e, "node")? as usize,
                    cause: match dec_str(e, "cause")?.as_str() {
                        "scheduled" => DeathCause::Scheduled,
                        "battery" => DeathCause::Battery,
                        "random" => DeathCause::Random,
                        other => return Err(corrupt(format!("unknown death cause {other:?}"))),
                    },
                }),
                "partition" => Ok(FaultEvent::Partition {
                    slot,
                    time,
                    components: dec_u64(e, "components")? as usize,
                    critical: dec_u64(e, "critical")? as usize,
                }),
                "reconnected" => Ok(FaultEvent::Reconnected {
                    slot,
                    time,
                    after_slots: dec_u64(e, "after_slots")?,
                }),
                other => Err(corrupt(format!("unknown event kind {other:?}"))),
            }
        })
        .collect()
}

// ---- timeline ---------------------------------------------------------

fn encode_timeline(t: &TimelineState) -> Result<Value, CoreError> {
    let samples = t
        .samples
        .iter()
        .map(|&(time, e)| {
            Ok(obj([
                ("time", num("sample time", time)?),
                ("delta", num("sample delta", e.delta)?),
                ("rms", num("sample rms", e.rms)?),
                ("connected", Value::Bool(e.connected)),
                ("node_count", int(e.node_count as u64)?),
            ]))
        })
        .collect::<Result<Vec<Value>, CoreError>>()?;
    let events = t
        .events
        .iter()
        .map(encode_event)
        .collect::<Result<Vec<Value>, CoreError>>()?;
    Ok(obj([
        ("samples", Value::Array(samples)),
        ("events", Value::Array(events)),
        ("events_synced", int(t.events_synced as u64)?),
    ]))
}

fn decode_timeline(value: &Value) -> Result<TimelineState, CoreError> {
    let samples = get(value, "samples")?
        .as_array()
        .ok_or_else(|| corrupt("timeline samples must be an array".to_string()))?
        .iter()
        .map(|s| {
            Ok((
                dec_f64(s, "time")?,
                DeploymentEvaluation {
                    delta: dec_f64(s, "delta")?,
                    rms: dec_f64(s, "rms")?,
                    connected: dec_bool(s, "connected")?,
                    node_count: dec_u64(s, "node_count")? as usize,
                },
            ))
        })
        .collect::<Result<Vec<(f64, DeploymentEvaluation)>, CoreError>>()?;
    Ok(TimelineState {
        samples,
        events: decode_events(get(value, "events")?)?,
        events_synced: dec_u64(value, "events_synced")? as usize,
    })
}

// ---- survivability ----------------------------------------------------

fn encode_survivability(s: &SurvivabilityState) -> Result<Value, CoreError> {
    let degradation = s
        .degradation
        .iter()
        .map(|&(dead, delta)| {
            Ok(Value::Array(vec![
                num("degradation fraction", dead)?,
                num("degradation delta", delta)?,
            ]))
        })
        .collect::<Result<Vec<Value>, CoreError>>()?;
    let reconnect_times = s
        .reconnect_times
        .iter()
        .map(|&t| num("reconnect time", t))
        .collect::<Result<Vec<Value>, CoreError>>()?;
    let critical = s
        .critical_nodes
        .iter()
        .map(|&n| int(n as u64))
        .collect::<Result<Vec<Value>, CoreError>>()?;
    Ok(obj([
        ("initial_nodes", int(s.initial_nodes as u64)?),
        ("last_alive", int(s.last_alive as u64)?),
        (
            "baseline_delta",
            match s.baseline_delta {
                Some(d) => num("baseline_delta", d)?,
                None => Value::Null,
            },
        ),
        (
            "final_delta",
            match s.final_delta {
                Some(d) => num("final_delta", d)?,
                None => Value::Null,
            },
        ),
        ("degradation", Value::Array(degradation)),
        ("partitions", int(s.partitions as u64)?),
        ("reconnects", int(s.reconnects as u64)?),
        ("reconnect_times", Value::Array(reconnect_times)),
        (
            "partition_open_since",
            match s.partition_open_since {
                Some(t) => num("partition_open_since", t)?,
                None => Value::Null,
            },
        ),
        ("messages", int(s.messages as u64)?),
        ("retried", int(s.retried as u64)?),
        ("dropped", int(s.dropped as u64)?),
        ("critical_nodes", Value::Array(critical)),
    ]))
}

fn decode_survivability(value: &Value) -> Result<SurvivabilityState, CoreError> {
    let degradation = get(value, "degradation")?
        .as_array()
        .ok_or_else(|| corrupt("degradation must be an array".to_string()))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| corrupt("degradation entries must be [dead, delta]".to_string()))?;
            let dead = pair[0]
                .as_f64()
                .ok_or_else(|| corrupt("degradation fraction must be a number".to_string()))?;
            let delta = pair[1]
                .as_f64()
                .ok_or_else(|| corrupt("degradation delta must be a number".to_string()))?;
            Ok((dead, delta))
        })
        .collect::<Result<Vec<(f64, f64)>, CoreError>>()?;
    let reconnect_times = get(value, "reconnect_times")?
        .as_array()
        .ok_or_else(|| corrupt("reconnect_times must be an array".to_string()))?
        .iter()
        .map(|t| {
            t.as_f64()
                .ok_or_else(|| corrupt("reconnect times must be numbers".to_string()))
        })
        .collect::<Result<Vec<f64>, CoreError>>()?;
    let critical_nodes = get(value, "critical_nodes")?
        .as_array()
        .ok_or_else(|| corrupt("critical_nodes must be an array".to_string()))?
        .iter()
        .map(|n| {
            n.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| corrupt("critical nodes must be integers".to_string()))
        })
        .collect::<Result<Vec<usize>, CoreError>>()?;
    Ok(SurvivabilityState {
        initial_nodes: dec_u64(value, "initial_nodes")? as usize,
        last_alive: dec_u64(value, "last_alive")? as usize,
        baseline_delta: dec_opt_f64(value, "baseline_delta")?,
        final_delta: dec_opt_f64(value, "final_delta")?,
        degradation,
        partitions: dec_u64(value, "partitions")? as usize,
        reconnects: dec_u64(value, "reconnects")? as usize,
        reconnect_times,
        partition_open_since: dec_opt_f64(value, "partition_open_since")?,
        messages: dec_u64(value, "messages")? as usize,
        retried: dec_u64(value, "retried")? as usize,
        dropped: dec_u64(value, "dropped")? as usize,
        critical_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            pipeline: crate::stage::STANDARD_STAGES
                .iter()
                .map(|s| s.to_string())
                .collect(),
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
    fn minimal_snapshot_round_trips() {
        let mut snap = sample_snapshot();
        snap.fault = None;
        snap.timeline = None;
        snap.survivability = None;
        let back = SimSnapshot::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn snapshots_with_removed_eval_fields_resume_bit_identically() {
        // Snapshots written while δ had a kernel switch and a tile
        // cache carry `eval_cached` and `eval_kernel`. The decoder
        // reads by key, so such a snapshot still loads, and resuming
        // it reproduces the uninterrupted run to the bit.
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
        let Value::Object(mut fields) = snap.encode().unwrap() else {
            panic!("a snapshot encodes to a JSON object");
        };
        fields.insert("eval_cached".to_string(), Value::Bool(false));
        fields.insert(
            "eval_kernel".to_string(),
            Value::String("raster".to_string()),
        );
        let payload = serde_json::to_string(&Value::Object(fields)).unwrap();
        assert!(payload.contains(r#""eval_cached":false,"eval_kernel":"raster","#));
        let mut bytes = format!(
            "{MAGIC} {SNAPSHOT_VERSION} {:016x} {}\n",
            fnv1a64(payload.as_bytes()),
            payload.len()
        )
        .into_bytes();
        bytes.extend_from_slice(payload.as_bytes());

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
        assert!(matches!(
            snap.to_bytes(),
            Err(CoreError::SnapshotCorrupt { .. })
        ));
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
