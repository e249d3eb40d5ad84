//! Deterministic multi-scenario batch sweeps over the persistent pool.
//!
//! The paper's entire evaluation is a parameter sweep — δ and
//! connectivity versus node count `k`, radii, faults, and time
//! (Figs. 8–13) — and this module is the batch engine that runs such
//! studies in one process: a [`SweepSpec`] names the axes (seeds × `k`
//! × `Rc` × fault specs), [`SweepSpec::jobs`] expands the cartesian
//! grid into a **fixed-order** job list, and [`run_sweep`] executes the
//! jobs concurrently on the `cps-pool` persistent workers.
//!
//! # Determinism
//!
//! Results are bit-identical regardless of worker count and job
//! completion order, by the same discipline the rest of the workspace
//! uses:
//!
//! * every job runs its simulation with [`Parallelism::serial`]
//!   internally — the outer jobs own the pool workers, so inner
//!   batches would only run inline on them anyway (`cps-pool` runs a
//!   batch nested inside another on the calling thread); serial inner
//!   evaluation skips that hand-off. Simulation results are
//!   bit-identical at any thread count, so this costs nothing but
//!   wall-clock shape;
//! * completed jobs land in a slot vector keyed by job index, and the
//!   per-cell aggregates (mean/stddev/min/max) fold those slots in
//!   index order — never in completion order;
//! * [`SweepResults::to_json`] emits keys through `BTreeMap`-backed
//!   objects and floats through shortest-representation formatting, so
//!   equal results serialize to equal bytes.
//!
//! # Resume
//!
//! A [`SweepManifest`] — versioned, checksummed, written through the
//! same atomic temp-file+fsync+rename path as the checkpoint subsystem
//! — records each completed job's digest and outcome after every job.
//! An interrupted sweep restarted with the same spec replays the
//! recorded outcomes instead of recomputing them (counted as
//! `sweep_resumed`; executed jobs count as `sweep_jobs` and are timed
//! under the `sweep_job` phase), and finishes with aggregate JSON
//! byte-identical to an uninterrupted run.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cps_core::{CoreError, CpsConfig};
use cps_field::{Parallelism, TimeVaryingField};
use cps_geometry::{GridSpec, Point2, Rect};
use serde::{Deserialize, Serialize};
use serde_json::{Error, Value};

use crate::checkpoint::{
    at_path, atomic_write, corrupt, fnv1a64, from_json, open, rect, seal, snapshot_io, to_json,
};
use crate::fault::FaultPlan;
use crate::{scenario, CmaBuilder, DeltaTimeline, FaultEvent, RunRecorder, SimConfig};

/// Newest sweep-manifest format version this build reads and writes.
pub const SWEEP_MANIFEST_VERSION: u32 = 1;

/// Magic token opening every sweep manifest file.
const SWEEP_MAGIC: &str = "CPSSWEEP";

// ---- spec ---------------------------------------------------------------

/// The cartesian grid a sweep covers, plus the per-job scenario knobs.
///
/// Jobs expand in fixed order — `k` (outer) × `comm_radius` × `faults`
/// × `seeds` (inner) — so a `(k, Rc, fault)` cell's jobs are the
/// consecutive run over its seeds, and job index `i` means the same
/// scenario in every process that loads the same spec.
///
/// In JSON, absent keys keep their [`Default`] values and unknown keys
/// are rejected by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields, expecting = "spec")]
pub struct SweepSpec {
    /// Region of interest (default: the paper's 100×100 m window at
    /// (20,20)–(120,120)).
    #[serde(with = "rect")]
    pub region: Rect,
    /// Field/replication seeds — the axis aggregated over per cell.
    #[serde(with = "wide_seeds")]
    pub seeds: Vec<u64>,
    /// Node-count axis.
    pub k: Vec<usize>,
    /// Communication-radius axis (`Rs` stays at the paper default).
    pub comm_radius: Vec<f64>,
    /// Fault-spec axis, in [`FaultPlan::parse`] syntax (`""` = none).
    pub faults: Vec<String>,
    /// Slots to simulate per job.
    pub minutes: u64,
    /// δ sampling stride in slots (the final slot is always sampled).
    pub sample_every: u64,
    /// Evaluation grid resolution (cells per side).
    pub resolution: usize,
    /// Start-lattice spacing as a fraction of `Rc` (the canonical
    /// mobile scenarios use 0.93 so every lattice edge starts slack).
    pub spacing_factor: f64,
    /// Simulation clock at deployment (minutes).
    pub start_time: f64,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            region: Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0))
                .expect("static region"),
            seeds: vec![1],
            k: vec![16],
            comm_radius: vec![10.0],
            faults: vec![String::new()],
            minutes: 10,
            sample_every: 5,
            resolution: 61,
            spacing_factor: 0.93,
            start_time: 600.0,
        }
    }
}

impl SweepSpec {
    /// A spec with the paper defaults and single-point axes.
    pub fn new() -> Self {
        SweepSpec::default()
    }

    /// Checks the axes and scenario knobs.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        fn bad(name: &'static str, requirement: &'static str) -> CoreError {
            CoreError::InvalidParameter { name, requirement }
        }
        if self.seeds.is_empty() {
            return Err(bad("seeds", "at least one seed is required"));
        }
        if self.k.is_empty() || self.k.contains(&0) {
            return Err(bad("k", "at least one node count, all positive"));
        }
        if self.comm_radius.is_empty()
            || self
                .comm_radius
                .iter()
                .any(|r| !(r.is_finite() && *r > 0.0))
        {
            return Err(bad(
                "comm_radius",
                "at least one radius, all positive and finite",
            ));
        }
        if self.faults.is_empty() {
            return Err(bad("faults", "at least one fault spec (\"\" = none)"));
        }
        if self.minutes == 0 {
            return Err(bad("minutes", "must simulate at least one slot"));
        }
        if self.sample_every == 0 {
            return Err(bad("sample_every", "sampling stride must be positive"));
        }
        if self.resolution < 2 {
            return Err(bad(
                "resolution",
                "evaluation grid needs at least 2 cells per side",
            ));
        }
        if !self.spacing_factor.is_finite() || self.spacing_factor <= 0.0 {
            return Err(bad("spacing_factor", "must be positive and finite"));
        }
        if !self.start_time.is_finite() {
            return Err(bad("start_time", "must be finite"));
        }
        Ok(())
    }

    /// Expands the cartesian grid into the fixed-order job list: `k`
    /// (outer) × `comm_radius` × `faults` × `seeds` (inner).
    pub fn jobs(&self) -> Vec<SweepJob> {
        let mut out = Vec::with_capacity(
            self.k.len() * self.comm_radius.len() * self.faults.len() * self.seeds.len(),
        );
        for &k in &self.k {
            for &rc in &self.comm_radius {
                for fault in &self.faults {
                    for &seed in &self.seeds {
                        out.push(SweepJob {
                            index: out.len() as u64,
                            seed,
                            k,
                            comm_radius: rc,
                            fault_spec: fault.clone(),
                        });
                    }
                }
            }
        }
        out
    }

    /// FNV-1a digest of the canonical spec encoding; manifests record
    /// it so a resume against a different spec is rejected instead of
    /// mixing incompatible outcomes.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] when a knob holds a non-finite
    /// float (the spec cannot be canonically encoded).
    pub fn digest(&self) -> Result<u64, CoreError> {
        let payload = self.to_json()?;
        Ok(fnv1a64(payload.as_bytes()))
    }

    /// Serializes to the canonical JSON text.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] when a knob holds a non-finite
    /// float.
    pub fn to_json(&self) -> Result<String, CoreError> {
        to_json(self)
    }

    /// Parses a spec from JSON text; absent fields keep their
    /// [`Default`] values, so a minimal spec can name only the axes it
    /// sweeps.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] on malformed JSON, a key the spec
    /// does not know (named in the message, so a typo cannot silently
    /// fall back to a default), or fields of the wrong shape;
    /// [`CoreError::InvalidParameter`] when the parsed
    /// spec fails [`SweepSpec::validate`].
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| corrupt(format!("spec is not JSON: {e}")))?;
        let spec = Self::deserialize(&value).map_err(|e| corrupt(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }
}

/// One expanded grid point: the scenario a single simulation runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepJob {
    /// Position in the fixed expansion order (the determinism key).
    pub index: u64,
    /// Field/replication seed.
    #[serde(with = "wide_u64")]
    pub seed: u64,
    /// Node count.
    pub k: usize,
    /// Communication radius `Rc`.
    pub comm_radius: f64,
    /// Fault spec in [`FaultPlan::parse`] syntax (`""` = none).
    #[serde(rename = "faults")]
    pub fault_spec: String,
}

impl SweepJob {
    /// FNV-1a digest binding this job to its spec: the manifest stores
    /// it so a stale manifest (same path, different spec or expansion)
    /// cannot smuggle outcomes into the wrong scenario.
    pub fn digest(&self, spec_digest: u64) -> u64 {
        let key = format!(
            "{spec_digest:016x}|{}|{}|{}|{:016x}|{}",
            self.index,
            self.seed,
            self.k,
            self.comm_radius.to_bits(),
            self.fault_spec
        );
        fnv1a64(key.as_bytes())
    }
}

// ---- outcomes -----------------------------------------------------------

/// What one sweep job produced (per-process instrumentation like
/// `RunMetrics` is global and cannot be attributed per-job under
/// concurrency, so jobs extract their own numbers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// δ at the final slot.
    pub final_delta: f64,
    /// Smallest δ recorded on the timeline.
    pub best_delta: Option<f64>,
    /// Whether the network was connected at the final sample.
    pub final_connected: bool,
    /// Nodes alive at the end.
    pub alive: usize,
    /// Fault deaths over the run.
    pub deaths: usize,
    /// Messages exchanged over the run.
    pub messages: u64,
    /// The sampled δ(t) series.
    pub series: Vec<(f64, f64)>,
}

// ---- aggregates ---------------------------------------------------------

/// Fixed-order summary statistics over one cell's per-seed values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Aggregate {
    /// Arithmetic mean, folded in job-index order.
    pub mean: f64,
    /// Population standard deviation (two-pass, index order).
    pub stddev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Aggregate {
    /// Folds `values` in the order given; `None` when empty. The fold
    /// order is the job expansion order, so the result is independent
    /// of completion order and worker count.
    pub fn from_values(values: &[f64]) -> Option<Aggregate> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().fold(0.0, |s, &v| s + v) / n;
        let var = values.iter().fold(0.0, |s, &v| s + (v - mean) * (v - mean)) / n;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Aggregate {
            mean,
            stddev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Aggregates for one `(k, Rc, fault)` grid cell, over its seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellAggregate {
    /// Node count of the cell.
    pub k: usize,
    /// Communication radius of the cell.
    pub comm_radius: f64,
    /// Fault spec of the cell (`""` = none).
    #[serde(rename = "faults")]
    pub fault_spec: String,
    /// Jobs (seeds) aggregated.
    pub jobs: usize,
    /// Final-δ statistics.
    pub final_delta: Aggregate,
    /// Best-δ statistics (over jobs that recorded any sample).
    pub best_delta: Option<Aggregate>,
    /// Fraction of jobs whose final sample was connected.
    pub connected_fraction: f64,
    /// Mean surviving-node count.
    pub mean_alive: f64,
    /// Mean fault deaths.
    pub mean_deaths: f64,
}

/// Everything a sweep produced: the spec digest, per-job outcomes in
/// expansion order, and per-cell aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// Digest of the spec that produced this (hex, 16 digits).
    pub spec_digest: String,
    /// The expanded jobs, in order.
    pub jobs: Vec<SweepJob>,
    /// One outcome per job, same order.
    pub outcomes: Vec<JobOutcome>,
    /// One aggregate per `(k, Rc, fault)` cell, in expansion order.
    pub cells: Vec<CellAggregate>,
}

impl SweepResults {
    fn build(
        spec: &SweepSpec,
        jobs: Vec<SweepJob>,
        outcomes: Vec<JobOutcome>,
    ) -> Result<Self, CoreError> {
        let per_cell = spec.seeds.len();
        let mut cells = Vec::new();
        // Cells iterate in the same nested order as the expansion, so
        // each cell's jobs are the consecutive slice over its seeds.
        let mut base = 0usize;
        for &k in &spec.k {
            for &rc in &spec.comm_radius {
                for fault in &spec.faults {
                    let cell = &outcomes[base..base + per_cell];
                    let finals: Vec<f64> = cell.iter().map(|o| o.final_delta).collect();
                    let bests: Vec<f64> = cell.iter().filter_map(|o| o.best_delta).collect();
                    let connected =
                        cell.iter().filter(|o| o.final_connected).count() as f64 / per_cell as f64;
                    let mean_alive =
                        cell.iter().fold(0.0, |s, o| s + o.alive as f64) / per_cell as f64;
                    let mean_deaths =
                        cell.iter().fold(0.0, |s, o| s + o.deaths as f64) / per_cell as f64;
                    cells.push(CellAggregate {
                        k,
                        comm_radius: rc,
                        fault_spec: fault.clone(),
                        jobs: per_cell,
                        final_delta: Aggregate::from_values(&finals).ok_or(
                            CoreError::InvalidParameter {
                                name: "sweep",
                                requirement: "each cell must cover at least one seed",
                            },
                        )?,
                        best_delta: Aggregate::from_values(&bests),
                        connected_fraction: connected,
                        mean_alive,
                        mean_deaths,
                    });
                    base += per_cell;
                }
            }
        }
        Ok(SweepResults {
            spec_digest: format!("{:016x}", spec.digest()?),
            jobs,
            outcomes,
            cells,
        })
    }

    /// Serializes to deterministic JSON: object keys are sorted
    /// (`BTreeMap`-backed), floats use shortest-representation
    /// formatting, and nothing process-dependent (timestamps, worker
    /// counts, completion order) is included — equal sweeps produce
    /// byte-equal output.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] when an outcome holds a
    /// non-finite float.
    pub fn to_json(&self) -> Result<String, CoreError> {
        // Each row is the job's own keys plus its `outcome`.
        let rows = self.jobs.iter().zip(&self.outcomes).map(|(job, outcome)| {
            let mut row = job.serialize()?;
            if let Value::Object(map) = &mut row {
                map.insert("outcome".to_string(), outcome.serialize()?);
            }
            Ok(row)
        });
        to_json(&ResultsFile {
            spec_digest: self.spec_digest.clone(),
            jobs: rows
                .collect::<Result<_, Error>>()
                .map_err(|e| corrupt(e.to_string()))?,
            cells: self.cells.clone(),
        })
    }
}

/// The JSON document [`SweepResults::to_json`] writes.
#[derive(Serialize)]
struct ResultsFile {
    spec_digest: String,
    jobs: Vec<Value>,
    cells: Vec<CellAggregate>,
}

// ---- manifest -----------------------------------------------------------

/// Crash-safe record of a sweep's completed jobs.
///
/// Same on-disk discipline as the checkpoint subsystem: one header
/// line (`CPSSWEEP <version> <fnv1a64> <len>`), a JSON payload, and
/// atomic temp-file+fsync+rename persistence after every completed
/// job. A resume loads it, verifies the checksum, the spec digest, and
/// every per-job digest, and replays the recorded outcomes.
#[derive(Debug)]
pub struct SweepManifest {
    path: PathBuf,
    spec_digest: u64,
    /// `index -> (job digest, outcome)`.
    completed: BTreeMap<u64, (u64, JobOutcome)>,
}

impl SweepManifest {
    /// A fresh manifest for the spec with `spec_digest`, persisted
    /// (empty) immediately so an interrupt before the first completed
    /// job still leaves a resumable file.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] when the initial write fails.
    pub fn create(path: impl Into<PathBuf>, spec_digest: u64) -> Result<Self, CoreError> {
        let manifest = SweepManifest {
            path: path.into(),
            spec_digest,
            completed: BTreeMap::new(),
        };
        manifest.persist()?;
        Ok(manifest)
    }

    /// Loads and verifies a manifest, rejecting checksum failures,
    /// version drift, and a spec digest other than `spec_digest`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] on read failures,
    /// [`CoreError::SnapshotCorrupt`] on any verification failure,
    /// [`CoreError::SnapshotVersion`] for unsupported versions.
    pub fn load(path: impl Into<PathBuf>, spec_digest: u64) -> Result<Self, CoreError> {
        let path = path.into();
        let bytes = fs::read(&path).map_err(|e| snapshot_io(&path, &e))?;
        let mut manifest = Self::from_bytes(&bytes).map_err(|e| at_path(e, &path))?;
        if manifest.spec_digest != spec_digest {
            return Err(CoreError::SnapshotCorrupt {
                path: path.display().to_string(),
                reason: format!(
                    "manifest belongs to spec {:016x}, not {spec_digest:016x}",
                    manifest.spec_digest
                ),
            });
        }
        manifest.path = path;
        Ok(manifest)
    }

    /// The completed jobs: `index -> (job digest, outcome)`.
    pub fn completed(&self) -> &BTreeMap<u64, (u64, JobOutcome)> {
        &self.completed
    }

    /// Records a completed job and persists the manifest atomically.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] / [`CoreError::SnapshotCorrupt`] from
    /// the write path.
    pub fn record(
        &mut self,
        index: u64,
        digest: u64,
        outcome: JobOutcome,
    ) -> Result<(), CoreError> {
        self.completed.insert(index, (digest, outcome));
        self.persist()
    }

    fn persist(&self) -> Result<(), CoreError> {
        atomic_write(&self.path, &self.to_bytes()?)
    }

    fn to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let jobs = self
            .completed
            .iter()
            .map(|(&index, (digest, outcome))| ManifestEntry {
                index,
                digest: *digest,
                outcome: outcome.clone(),
            });
        let file = ManifestFile {
            spec_digest: self.spec_digest,
            jobs: jobs.collect(),
        };
        seal(SWEEP_MAGIC, SWEEP_MANIFEST_VERSION, &file)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let file: ManifestFile = from_json(open(SWEEP_MAGIC, SWEEP_MANIFEST_VERSION, bytes)?)?;
        Ok(SweepManifest {
            path: PathBuf::new(),
            spec_digest: file.spec_digest,
            completed: file
                .jobs
                .into_iter()
                .map(|e| (e.index, (e.digest, e.outcome)))
                .collect(),
        })
    }
}

/// The manifest's JSON payload.
#[derive(Serialize, Deserialize)]
struct ManifestFile {
    #[serde(with = "hex64")]
    spec_digest: u64,
    jobs: Vec<ManifestEntry>,
}

/// One completed job in a [`ManifestFile`].
#[derive(Serialize, Deserialize)]
struct ManifestEntry {
    index: u64,
    #[serde(with = "hex64")]
    digest: u64,
    outcome: JobOutcome,
}

/// Digests as 16 hex digits: a full-width `u64`, which a JSON number
/// cannot carry exactly.
mod hex64 {
    use super::*;

    pub(super) fn serialize(x: &u64) -> Result<Value, Error> {
        Ok(Value::String(format!("{x:016x}")))
    }

    pub(super) fn deserialize(v: &Value) -> Result<u64, Error> {
        v.as_str()
            .filter(|s| s.len() == 16)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| Error::custom("expected 16 hex digits"))
    }
}

/// A possibly full-width `u64`: a plain JSON number while it is exactly
/// representable (up to 2^53), a decimal string beyond.
mod wide_u64 {
    use super::*;

    pub(super) fn serialize(x: &u64) -> Result<Value, Error> {
        if *x <= 1 << 53 {
            x.serialize()
        } else {
            Ok(Value::String(x.to_string()))
        }
    }

    pub(super) fn deserialize(v: &Value) -> Result<u64, Error> {
        v.as_u64()
            .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
            .ok_or_else(|| Error::custom("expected an unsigned integer or decimal string"))
    }
}

/// The spec's seed axis, each seed in the [`wide_u64`] form.
mod wide_seeds {
    use super::*;

    pub(super) fn serialize(seeds: &[u64]) -> Result<Value, Error> {
        let seeds = seeds.iter().map(wide_u64::serialize);
        seeds.collect::<Result<_, _>>().map(Value::Array)
    }

    pub(super) fn deserialize(v: &Value) -> Result<Vec<u64>, Error> {
        let seeds = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        seeds.iter().map(wide_u64::deserialize).collect()
    }
}

// ---- execution ----------------------------------------------------------

/// Runs one job's simulation start to finish (serial inner
/// parallelism; see the module docs) and extracts its outcome.
fn run_job<F: TimeVaryingField + Sync>(
    spec: &SweepSpec,
    job: &SweepJob,
    field: F,
) -> Result<JobOutcome, CoreError> {
    let _t = cps_obs::time(cps_obs::Phase::SweepJob, 1);
    let mut cps = CpsConfig::builder();
    cps.comm_radius(job.comm_radius);
    let config = SimConfig {
        cps: cps.build()?,
        ..SimConfig::default()
    };
    let start =
        scenario::grid_start_spaced(spec.region, job.k, spec.spacing_factor * job.comm_radius)?;
    let mut builder = CmaBuilder::new(spec.region, start)
        .config(config)
        .parallelism(Parallelism::serial())
        .start_time(spec.start_time);
    if !job.fault_spec.is_empty() {
        builder = builder.faults(FaultPlan::parse(&job.fault_spec)?);
    }
    let mut sim = builder.run(field)?;
    let grid = GridSpec::new(spec.region, spec.resolution, spec.resolution)?;
    // The δ timeline rides the step-observer bus; the job loop only
    // steps the engine and folds the message count.
    let mut recorder = RunRecorder::new()
        .timeline(DeltaTimeline::for_simulation(&sim), grid)
        .sample_every(spec.sample_every)
        .final_slot(spec.minutes);
    let mut last = recorder.prime(&sim)?.ok_or(CoreError::InvalidParameter {
        name: "sweep",
        requirement: "job recorder must carry a delta timeline",
    })?;
    let mut messages = 0u64;
    for _ in 1..=spec.minutes {
        let report = sim.step_observed(&mut [&mut recorder])?;
        messages += report.messages as u64;
        if let Some(sample) = recorder.take_sample() {
            last = sample;
        }
    }
    let (timeline, _) = recorder.into_parts();
    let timeline = timeline.ok_or(CoreError::InvalidParameter {
        name: "sweep",
        requirement: "job recorder must return its delta timeline",
    })?;
    let deaths = sim
        .fault_events()
        .iter()
        .filter(|e| matches!(e, FaultEvent::Death { .. }))
        .count();
    Ok(JobOutcome {
        final_delta: last.delta,
        best_delta: timeline.best_delta(),
        final_connected: last.connected,
        alive: sim.alive_count(),
        deaths,
        messages,
        series: timeline.delta_series(),
    })
}

/// Locks `mutex`, recovering the data from a poisoned lock: a poisoned
/// sweep mutex means a worker panicked mid-job, and that job's empty
/// slot already surfaces as a typed error at fold time — compounding
/// the panic across the surviving workers would only mask it.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Executes every job of `spec` and folds the fixed-order aggregates.
///
/// `workers` is the total concurrency (0 = all cores): the calling
/// thread plus `workers − 1` persistent-pool workers all pull pending
/// job indices from a shared cursor. `manifest_path` enables the
/// crash-safe completion record; with `resume` set, a valid existing
/// manifest's outcomes are replayed instead of recomputed (`resume`
/// with no manifest file starts fresh). `make_field` builds each job's
/// field from its seed — it must be deterministic for resume
/// bit-identity to hold.
///
/// The result is **bit-identical** for any `workers` value and any job
/// completion order, and across interrupt + resume.
///
/// # Errors
///
/// Spec validation errors up front; otherwise the error of the
/// lowest-indexed failing job, or manifest IO/verification errors.
pub fn run_sweep<F, M>(
    spec: &SweepSpec,
    workers: usize,
    manifest_path: Option<&Path>,
    resume: bool,
    make_field: M,
) -> Result<SweepResults, CoreError>
where
    F: TimeVaryingField + Sync,
    M: Fn(&SweepJob) -> F + Sync,
{
    spec.validate()?;
    let jobs = spec.jobs();
    let spec_digest = spec.digest()?;
    let n = jobs.len();
    let mut slots: Vec<Option<Result<JobOutcome, CoreError>>> = (0..n).map(|_| None).collect();

    let manifest = match manifest_path {
        Some(path) => {
            if resume && path.exists() {
                let manifest = SweepManifest::load(path, spec_digest)?;
                for (&index, (digest, outcome)) in manifest.completed() {
                    let job = jobs.get(index as usize).ok_or_else(|| {
                        corrupt(format!("manifest records job {index} beyond the sweep"))
                    })?;
                    if *digest != job.digest(spec_digest) {
                        return Err(corrupt(format!("manifest digest mismatch for job {index}")));
                    }
                    cps_obs::count(cps_obs::Counter::SweepResumed);
                    slots[index as usize] = Some(Ok(outcome.clone()));
                }
                Some(manifest)
            } else {
                Some(SweepManifest::create(path, spec_digest)?)
            }
        }
        None => None,
    };

    let workers = Parallelism::from_threads(workers).threads().min(n.max(1));

    let slots = Mutex::new(slots);
    let manifest = Mutex::new(manifest);
    let next = AtomicUsize::new(0);
    // The chunk-counter pattern from cps-pool: every participant —
    // pool workers and the calling thread alike — pulls pending job
    // indices until the cursor runs dry. Completion order is free;
    // results are keyed by index.
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        if lock_or_recover(&slots)[i].is_some() {
            continue; // replayed from the manifest
        }
        let job = &jobs[i];
        let mut result = run_job(spec, job, make_field(job));
        cps_obs::count(cps_obs::Counter::SweepJobs);
        if let Ok(outcome) = &result {
            let mut guard = lock_or_recover(&manifest);
            if let Some(m) = guard.as_mut() {
                if let Err(e) = m.record(i as u64, job.digest(spec_digest), outcome.clone()) {
                    result = Err(e);
                }
            }
        }
        lock_or_recover(&slots)[i] = Some(result);
    };
    if workers <= 1 {
        work();
    } else {
        let pool_jobs: Vec<cps_pool::Job<'_>> = (0..workers - 1)
            .map(|_| Box::new(work) as cps_pool::Job<'_>)
            .collect();
        cps_pool::run_with(pool_jobs, work);
    }

    let slots = slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut outcomes = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(outcome)) => outcomes.push(outcome),
            Some(Err(e)) => return Err(e),
            None => return Err(corrupt(format!("job {i} was never executed"))),
        }
    }
    SweepResults::build(spec, jobs, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{GaussianBlob, Static};
    use proptest::prelude::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            seeds: vec![1, 2],
            k: vec![9],
            comm_radius: vec![10.0, 12.0],
            minutes: 2,
            sample_every: 1,
            resolution: 21,
            ..SweepSpec::default()
        }
    }

    fn field_for(job: &SweepJob) -> Static<GaussianBlob> {
        // Seed shifts the blob so replications genuinely differ.
        Static::new(GaussianBlob::isotropic(
            Point2::new(50.0 + job.seed as f64 * 7.0, 60.0),
            40.0,
            15.0,
        ))
    }

    #[test]
    fn jobs_expand_in_fixed_order_with_seed_innermost() {
        let spec = tiny_spec();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        let key: Vec<(usize, u64, u64)> = jobs
            .iter()
            .map(|j| (j.k, j.comm_radius.to_bits(), j.seed))
            .collect();
        assert_eq!(
            key,
            vec![
                (9, 10.0f64.to_bits(), 1),
                (9, 10.0f64.to_bits(), 2),
                (9, 12.0f64.to_bits(), 1),
                (9, 12.0f64.to_bits(), 2),
            ]
        );
        assert_eq!(jobs[3].index, 3);
    }

    #[test]
    fn spec_round_trips_and_digest_is_stable() {
        let spec = tiny_spec();
        let text = spec.to_json().unwrap();
        // Decoding rejects unknown keys, so this also checks that every
        // key `to_json` writes is one the decoder knows.
        let back = SweepSpec::from_json(&text).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.digest().unwrap(), back.digest().unwrap());

        // A minimal spec keeps defaults for everything unnamed.
        let minimal = SweepSpec::from_json(r#"{"k": [4, 9]}"#).unwrap();
        assert_eq!(minimal.k, vec![4, 9]);
        assert_eq!(minimal.seeds, SweepSpec::default().seeds);
        assert_ne!(minimal.digest().unwrap(), spec.digest().unwrap());
    }

    #[test]
    fn spec_rejects_unknown_keys_by_name() {
        let reason = |text: &str| match SweepSpec::from_json(text) {
            Err(CoreError::SnapshotCorrupt { reason, .. }) => reason,
            other => panic!("{text}: expected SnapshotCorrupt, got {other:?}"),
        };
        // A typo is rejected by name instead of running defaults.
        assert_eq!(
            reason(r#"{"k": [4], "kernal": "walk"}"#),
            "unknown spec key 'kernal'"
        );
        // Keys of the removed kernel switch and tile cache fail loudly.
        assert_eq!(reason(r#"{"kernel": "walk"}"#), "unknown spec key 'kernel'");
        assert_eq!(reason(r#"{"cached": true}"#), "unknown spec key 'cached'");
        assert_eq!(
            reason(r#"{"region": {"min_x": 0, "min_y": 0, "max_x": 9, "max_y": 9, "max_z": 1}}"#),
            "unknown region key 'max_z'"
        );
        assert_eq!(reason("[1, 2]"), "spec must be a JSON object");
    }

    #[test]
    fn spec_validation_rejects_empty_axes_and_bad_knobs() {
        for mutate in [
            (|s: &mut SweepSpec| s.seeds.clear()) as fn(&mut SweepSpec),
            |s| s.k.clear(),
            |s| s.k.push(0),
            |s| s.comm_radius.push(f64::NAN),
            |s| s.faults.clear(),
            |s| s.minutes = 0,
            |s| s.sample_every = 0,
            |s| s.resolution = 1,
            |s| s.spacing_factor = 0.0,
        ] {
            let mut spec = tiny_spec();
            mutate(&mut spec);
            assert!(matches!(
                spec.validate(),
                Err(CoreError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn aggregates_are_bit_identical_across_worker_counts() {
        let spec = tiny_spec();
        let serial = run_sweep(&spec, 1, None, false, field_for).unwrap();
        let two = run_sweep(&spec, 2, None, false, field_for).unwrap();
        let four = run_sweep(&spec, 4, None, false, field_for).unwrap();
        let reference = serial.to_json().unwrap();
        assert_eq!(reference, two.to_json().unwrap());
        assert_eq!(reference, four.to_json().unwrap());
        assert_eq!(serial.cells.len(), 2);
        assert_eq!(serial.cells[0].jobs, 2);
        assert!(serial.cells[0].final_delta.min <= serial.cells[0].final_delta.max);
    }

    #[test]
    fn partial_manifest_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("cps_sweep_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let manifest_path = dir.join("sweep.manifest");

        let spec = tiny_spec();
        let reference = run_sweep(&spec, 2, Some(&manifest_path), false, field_for).unwrap();
        let reference_json = reference.to_json().unwrap();

        // Simulate an interrupt: a manifest holding only half the jobs.
        let digest = spec.digest().unwrap();
        let jobs = spec.jobs();
        let mut partial = SweepManifest::create(&manifest_path, digest).unwrap();
        for i in [0usize, 2] {
            partial
                .record(
                    i as u64,
                    jobs[i].digest(digest),
                    reference.outcomes[i].clone(),
                )
                .unwrap();
        }
        let resumed = run_sweep(&spec, 2, Some(&manifest_path), true, field_for).unwrap();
        assert_eq!(reference_json, resumed.to_json().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_corruption_and_foreign_specs() {
        let dir = std::env::temp_dir().join(format!("cps_sweep_mtest_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.manifest");

        let mut manifest = SweepManifest::create(&path, 0xabcd).unwrap();
        manifest
            .record(
                0,
                7,
                JobOutcome {
                    final_delta: 1.5,
                    best_delta: Some(1.25),
                    final_connected: true,
                    alive: 9,
                    deaths: 0,
                    messages: 42,
                    series: vec![(600.0, 1.5)],
                },
            )
            .unwrap();

        let back = SweepManifest::load(&path, 0xabcd).unwrap();
        assert_eq!(back.completed().len(), 1);
        assert_eq!(back.completed()[&0].1.alive, 9);

        // Wrong spec digest: typed rejection, not silent reuse.
        assert!(matches!(
            SweepManifest::load(&path, 0xdead),
            Err(CoreError::SnapshotCorrupt { .. })
        ));

        // Any byte flip in the payload fails the checksum.
        let bytes = fs::read(&path).unwrap();
        let mut evil = bytes.clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x01;
        fs::write(&path, &evil).unwrap();
        assert!(SweepManifest::load(&path, 0xabcd).is_err());

        // Truncation too.
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(SweepManifest::load(&path, 0xabcd).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The 2-job manifest of `tests/goldens/sweep_manifest_v1.cpsweep`.
    fn golden_manifest(path: &Path) -> SweepManifest {
        let spec = tiny_spec();
        let digest = spec.digest().unwrap();
        let jobs = spec.jobs();
        let mut manifest = SweepManifest::create(path, digest).unwrap();
        let recorded = [
            JobOutcome {
                final_delta: 1_234.567_890_123_4,
                best_delta: Some(1_200.062_5),
                final_connected: true,
                alive: 9,
                deaths: 0,
                messages: 4242,
                series: vec![(600.0, 1300.125), (601.0, 1_234.567_890_123_4)],
            },
            JobOutcome {
                final_delta: 0.1 + 0.2,
                best_delta: None,
                final_connected: false,
                alive: 7,
                deaths: 2,
                messages: 0,
                series: vec![],
            },
        ];
        for (i, outcome) in [0, 3].into_iter().zip(recorded) {
            manifest
                .record(i, jobs[i as usize].digest(digest), outcome)
                .unwrap();
        }
        manifest
    }

    const GOLDEN_MANIFEST: &[u8] =
        include_bytes!("../../../tests/goldens/sweep_manifest_v1.cpsweep");

    #[test]
    fn v1_manifest_golden_is_reproduced_byte_for_byte() {
        // Recorded before the codec was derived.
        let dir = std::env::temp_dir().join(format!("cps_sweep_golden_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.manifest");
        let manifest = golden_manifest(&path);
        assert_eq!(fs::read(&path).unwrap(), GOLDEN_MANIFEST);
        let back = SweepManifest::from_bytes(GOLDEN_MANIFEST).unwrap();
        assert_eq!(back.spec_digest, manifest.spec_digest);
        assert_eq!(back.completed(), manifest.completed());
        let _ = fs::remove_dir_all(&dir);
    }

    /// `payload` under a correct manifest header.
    fn reseal(payload: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "{SWEEP_MAGIC} {SWEEP_MANIFEST_VERSION} {:016x} {}\n",
            fnv1a64(payload),
            payload.len()
        )
        .into_bytes();
        out.extend_from_slice(payload);
        out
    }

    /// Applies `(position, byte, op)` edits: replace, insert, delete.
    fn edit(mut bytes: Vec<u8>, edits: Vec<(prop::sample::Index, u8, u8)>) -> Vec<u8> {
        for (at, byte, op) in edits {
            let i = at.index(bytes.len());
            match op {
                0 => bytes[i] = byte,
                1 => bytes.insert(i, byte),
                _ => {
                    bytes.remove(i);
                }
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn manifest_decoder_never_panics(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            edits in prop::collection::vec((any::<prop::sample::Index>(), 0u8..=255, 0u8..3), 1..6),
        ) {
            let payload = GOLDEN_MANIFEST.splitn(2, |&b| b == b'\n').nth(1).unwrap();
            for bytes in [bytes.clone(), reseal(&bytes), reseal(&edit(payload.to_vec(), edits))] {
                let result = SweepManifest::from_bytes(&bytes);
                prop_assert!(
                    matches!(
                        result,
                        Ok(_) | Err(CoreError::SnapshotCorrupt { .. } | CoreError::SnapshotVersion { .. })
                    ),
                    "{result:?}"
                );
            }
        }

        #[test]
        fn spec_decoder_never_panics(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            edits in prop::collection::vec((any::<prop::sample::Index>(), 0u8..=255, 0u8..3), 1..6),
        ) {
            let spec = tiny_spec().to_json().unwrap().into_bytes();
            for bytes in [bytes.clone(), edit(spec.clone(), edits.clone())] {
                let text = String::from_utf8_lossy(&bytes);
                let result = SweepSpec::from_json(&text);
                prop_assert!(
                    matches!(
                        result,
                        Ok(_) | Err(CoreError::SnapshotCorrupt { .. } | CoreError::InvalidParameter { .. })
                    ),
                    "{result:?}"
                );
            }
        }
    }

    #[test]
    fn aggregate_statistics_are_exact_on_a_known_set() {
        let agg = Aggregate::from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(agg.mean, 2.5);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 4.0);
        assert!((agg.stddev - 1.25f64.sqrt()).abs() < 1e-15);
        assert!(Aggregate::from_values(&[]).is_none());
    }

    #[test]
    fn failing_job_surfaces_its_error() {
        // Oversized k at this spacing: grid_start_spaced's typed error
        // must come back through the sweep, not a panic.
        let spec = SweepSpec {
            seeds: vec![1],
            k: vec![100_000],
            minutes: 1,
            ..SweepSpec::default()
        };
        assert!(matches!(
            run_sweep(&spec, 2, None, false, field_for),
            Err(CoreError::InvalidParameter { .. })
        ));
    }
}
