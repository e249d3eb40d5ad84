//! Zero-cost-when-disabled instrumentation for the CPS workspace:
//! event [`Counter`]s, [`Phase`] wall-clock timers keyed by thread
//! count, and a structured [`RunMetrics`] record serializable as JSON.
//!
//! # Design
//!
//! The collector is a process-global that starts **disabled**. Every
//! hook — [`count`], [`count_by`], [`time`] — begins with a single
//! relaxed atomic load and returns immediately when disabled, so
//! instrumented hot paths pay one predictable branch (verified to be
//! <2% on the δ quadrature bench by `cps-bench`'s `obs_overhead`
//! guard). Hooks never touch floating-point state, RNG streams, or
//! iteration order, so enabling them cannot perturb the engine's
//! bit-identical determinism guarantees.
//!
//! Counters are lock-free relaxed atomics. Timers take a mutex only
//! when enabled, and only at phase granularity (a handful of times per
//! run step, never per grid point).
//!
//! # Usage
//!
//! ```
//! cps_obs::reset();
//! cps_obs::enable();
//! cps_obs::count(cps_obs::Counter::DelaunayInserts);
//! {
//!     let _t = cps_obs::time(cps_obs::Phase::DeltaQuadrature, 4);
//!     // ... timed work ...
//! }
//! cps_obs::disable();
//! let metrics = cps_obs::snapshot();
//! assert_eq!(metrics.counter(cps_obs::Counter::DelaunayInserts), 1);
//! assert_eq!(metrics.phases.len(), 1);
//! println!("{}", metrics.to_json().unwrap());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Monotonic event counters over the workspace's hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Counter {
    /// Points inserted into a Delaunay triangulation.
    DelaunayInserts,
    /// FRA error-grid refreshes limited to the retriangulated cavity.
    CavityRecomputes,
    /// FRA error-grid refreshes that had to rescan the full grid
    /// (convex-hull growth).
    FullGridRecomputes,
    /// FRA argmax picks rejected for violating the foresight budget.
    ArgmaxRejections,
    /// Relay plans recomputed to bridge a fault-partitioned network.
    RelayReplans,
    /// Message retries drawn by the fault-injection runtime.
    FaultRetries,
    /// Survivor evaluations that fell back to the constant surface
    /// (fleet culled below the triangulation minimum).
    SurvivorFallbacks,
    /// Simulation snapshots persisted to a checkpoint directory.
    CheckpointsWritten,
    /// Snapshots successfully loaded and verified on restore.
    CheckpointsLoaded,
    /// Snapshot candidates rejected on load (bad checksum, truncated
    /// file, unsupported version) and skipped in favor of an older one.
    CheckpointsRejected,
    /// Total bytes of snapshot payloads written.
    CheckpointBytes,
    /// Alive triangles planed and scanline-clipped by the raster
    /// quadrature kernel.
    TrianglesRasterized,
    /// Grid cells filled by incremental DDA spans (the remainder fell
    /// back to per-cell location/extrapolation).
    RasterCells,
    /// Jobs handed to the persistent worker pool by `map_rows` (the
    /// calling thread's own share is not counted).
    PoolTasks,
    /// Sweep jobs executed (simulated) by the batch engine this
    /// process; resumed jobs are counted separately.
    SweepJobs,
    /// Sweep jobs restored from a manifest instead of re-simulated.
    SweepResumed,
    /// Simulation slots stepped (counted by the slot driver,
    /// `Simulation::step_observed`).
    SimSteps,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 17] = [
        Counter::DelaunayInserts,
        Counter::CavityRecomputes,
        Counter::FullGridRecomputes,
        Counter::ArgmaxRejections,
        Counter::RelayReplans,
        Counter::FaultRetries,
        Counter::SurvivorFallbacks,
        Counter::CheckpointsWritten,
        Counter::CheckpointsLoaded,
        Counter::CheckpointsRejected,
        Counter::CheckpointBytes,
        Counter::TrianglesRasterized,
        Counter::RasterCells,
        Counter::PoolTasks,
        Counter::SweepJobs,
        Counter::SweepResumed,
        Counter::SimSteps,
    ];

    /// Stable snake_case key used in [`RunMetrics`] JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::DelaunayInserts => "delaunay_inserts",
            Counter::CavityRecomputes => "cavity_recomputes",
            Counter::FullGridRecomputes => "full_grid_recomputes",
            Counter::ArgmaxRejections => "argmax_rejections",
            Counter::RelayReplans => "relay_replans",
            Counter::FaultRetries => "fault_retries",
            Counter::SurvivorFallbacks => "survivor_fallbacks",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::CheckpointsLoaded => "checkpoints_loaded",
            Counter::CheckpointsRejected => "checkpoints_rejected",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::TrianglesRasterized => "triangles_rasterized",
            Counter::RasterCells => "raster_cells",
            Counter::PoolTasks => "pool_tasks",
            Counter::SweepJobs => "sweep_jobs",
            Counter::SweepResumed => "sweep_resumed",
            Counter::SimSteps => "sim_steps",
        }
    }
}

/// Timed phases of the two algorithms and the evaluation engine.
///
/// CMA phases map to the engine's orchestration stages:
/// `CmaCurvature` is the parallel per-node sense/fit/decide sweep,
/// `CmaForce` the LCM connectivity-maintenance rounds, and `CmaMove`
/// the speed-clamp-and-apply stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// FRA foresight: the relay-plan lookup that counts the relays
    /// connecting the current deployment would cost.
    FraForesight,
    /// FRA refinement: the max-local-error argmax and the budget check
    /// of each candidate.
    FraRefine,
    /// FRA retriangulation: the Delaunay insert of the chosen point
    /// plus the local-error refresh it triggers.
    FraRetriangulate,
    /// CMA: per-node curvature fit and force decision sweep.
    CmaCurvature,
    /// CMA: LCM connectivity-maintenance rounds.
    CmaForce,
    /// CMA: speed clamping and position application.
    CmaMove,
    /// δ quadrature over the evaluation grid (Eqn. 2).
    DeltaQuadrature,
    /// Checkpoint persistence: snapshot encoding plus the atomic
    /// write-checksum-fsync-rename sequence.
    CheckpointWrite,
    /// δ quadrature via the scanline raster kernel (plane build plus
    /// fused |f − DT| and squared-error sweep).
    DeltaRaster,
    /// One batch-sweep job: a full simulation run plus its δ timeline
    /// and outcome extraction.
    SweepJob,
    /// Slot stage `fault`: slot-start fault deaths.
    StageFault,
    /// Slot stage `sense`: slot-start world snapshot — alive set,
    /// unit-disk graph, components.
    StageSense,
    /// Slot stage `exchange`: message-level fault draws and attempt
    /// accounting.
    StageExchange,
    /// Slot stage `recovery`: partition-recovery overrides.
    StageRecovery,
    /// Slot stage `optimize`: CMA decisions, speed clamp, LCM repair,
    /// and position application.
    StageOptimize,
    /// Slot stage `record`: clock advance, gossip scale, battery drain,
    /// and report assembly.
    StageRecord,
}

impl Phase {
    /// Stable snake_case key used in [`RunMetrics`] JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::FraForesight => "fra_foresight",
            Phase::FraRefine => "fra_refine",
            Phase::FraRetriangulate => "fra_retriangulate",
            Phase::CmaCurvature => "cma_curvature",
            Phase::CmaForce => "cma_force",
            Phase::CmaMove => "cma_move",
            Phase::DeltaQuadrature => "delta_quadrature",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::DeltaRaster => "delta_raster",
            Phase::SweepJob => "sweep_job",
            Phase::StageFault => "stage_fault",
            Phase::StageSense => "stage_sense",
            Phase::StageExchange => "stage_exchange",
            Phase::StageRecovery => "stage_recovery",
            Phase::StageOptimize => "stage_optimize",
            Phase::StageRecord => "stage_record",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One slot per [`Counter::ALL`] entry.
static COUNTERS: [AtomicU64; Counter::ALL.len()] =
    [const { AtomicU64::new(0) }; Counter::ALL.len()];

/// `(phase, threads) -> (calls, total_ns)`, populated only while
/// enabled.
static TIMERS: Mutex<BTreeMap<(Phase, usize), (u64, u64)>> = Mutex::new(BTreeMap::new());

/// Turns the collector on. Hooks start recording from this point.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the collector off. Hooks return to their no-op fast path;
/// recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the collector is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded counters and timers (the enabled flag is left
/// as-is).
pub fn reset() {
    for slot in &COUNTERS {
        slot.store(0, Ordering::Relaxed);
    }
    TIMERS.lock().expect("obs timer table poisoned").clear();
}

/// Records one occurrence of `counter`. No-op while disabled.
#[inline]
pub fn count(counter: Counter) {
    count_by(counter, 1);
}

/// Records `n` occurrences of `counter`. No-op while disabled.
#[inline]
pub fn count_by(counter: Counter, n: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Starts timing `phase` under a thread-count key; the returned guard
/// records the elapsed wall clock when dropped. While disabled the
/// guard is inert (no clock read, no lock).
///
/// `threads` is the *resolved* thread count the phase ran with
/// (serial = 1), so serial-vs-parallel timings land in separate rows.
#[must_use = "the timer records on drop; binding to `_` drops immediately"]
pub fn time(phase: Phase, threads: usize) -> PhaseTimer {
    PhaseTimer {
        active: ENABLED
            .load(Ordering::Relaxed)
            .then(|| (phase, threads, Instant::now())),
    }
}

/// RAII guard returned by [`time`].
#[derive(Debug)]
pub struct PhaseTimer {
    active: Option<(Phase, usize, Instant)>,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((phase, threads, start)) = self.active.take() {
            let elapsed = start.elapsed().as_nanos() as u64;
            let mut timers = TIMERS.lock().expect("obs timer table poisoned");
            let slot = timers.entry((phase, threads)).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += elapsed;
        }
    }
}

/// Copies the collector's current state into a [`RunMetrics`] record.
///
/// Counters that never fired are included with value 0, so consumers
/// see a stable schema; phases appear only if they ran at least once.
pub fn snapshot() -> RunMetrics {
    let counters = Counter::ALL
        .iter()
        .map(|&c| {
            (
                c.as_str().to_string(),
                COUNTERS[c as usize].load(Ordering::Relaxed),
            )
        })
        .collect();
    let phases = TIMERS
        .lock()
        .expect("obs timer table poisoned")
        .iter()
        .map(|(&(phase, threads), &(calls, total_ns))| PhaseRecord {
            phase: phase.as_str().to_string(),
            threads,
            calls,
            total_ns,
        })
        .collect();
    RunMetrics {
        counters,
        phases,
        survivability: None,
    }
}

/// Accumulated wall-clock for one `(phase, thread-count)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// The phase key ([`Phase::as_str`]).
    pub phase: String,
    /// Resolved thread count the phase ran with (serial = 1).
    pub threads: usize,
    /// Number of completed timer guards.
    pub calls: u64,
    /// Total wall-clock across those calls, nanoseconds.
    pub total_ns: u64,
}

/// A structured record of what happened inside one run: counters,
/// per-phase timings, and (optionally) the fault-injection
/// survivability summary merged in via
/// [`RunMetrics::merge_survivability`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Event totals keyed by [`Counter::as_str`]; every counter is
    /// present (0 when it never fired).
    pub counters: BTreeMap<String, u64>,
    /// Per-`(phase, threads)` wall-clock rows, sorted by phase then
    /// thread count.
    pub phases: Vec<PhaseRecord>,
    /// The run's `SurvivabilityReport` JSON, when fault injection was
    /// active.
    pub survivability: Option<serde_json::Value>,
}

impl RunMetrics {
    /// The value of `counter` (0 when absent).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.as_str()).copied().unwrap_or(0)
    }

    /// Total wall-clock of `phase` summed over all thread counts,
    /// nanoseconds.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .filter(|r| r.phase == phase.as_str())
            .map(|r| r.total_ns)
            .sum()
    }

    /// Attaches a survivability summary (e.g. parsed from
    /// `SurvivabilityReport::to_json`).
    pub fn merge_survivability(&mut self, report: serde_json::Value) {
        self.survivability = Some(report);
    }

    /// Pretty-printed JSON for `--metrics` output files.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (none for this shape in practice).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses [`RunMetrics::to_json`] output back.
    ///
    /// # Errors
    ///
    /// Returns the underlying error on malformed JSON or a shape
    /// mismatch.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-collector tests share process state; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _l = locked();
        disable();
        reset();
        count(Counter::DelaunayInserts);
        count_by(Counter::FaultRetries, 10);
        drop(time(Phase::DeltaQuadrature, 2));
        let m = snapshot();
        assert_eq!(m.counter(Counter::DelaunayInserts), 0);
        assert_eq!(m.counter(Counter::FaultRetries), 0);
        assert!(m.phases.is_empty());
    }

    #[test]
    fn enabled_collector_records_counts_and_times() {
        let _l = locked();
        reset();
        enable();
        count(Counter::ArgmaxRejections);
        count_by(Counter::ArgmaxRejections, 2);
        {
            let _t = time(Phase::FraForesight, 1);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _t = time(Phase::FraForesight, 4);
        }
        disable();
        let m = snapshot();
        assert_eq!(m.counter(Counter::ArgmaxRejections), 3);
        assert_eq!(m.phases.len(), 2);
        let serial = m
            .phases
            .iter()
            .find(|r| r.threads == 1)
            .expect("serial row");
        assert_eq!(serial.phase, "fra_foresight");
        assert_eq!(serial.calls, 1);
        assert!(serial.total_ns >= 1_000_000, "slept >= 1ms");
        assert!(m.phase_total_ns(Phase::FraForesight) >= serial.total_ns);
        reset();
        assert!(snapshot().phases.is_empty());
    }

    #[test]
    fn guards_do_not_record_after_disable_snapshot() {
        let _l = locked();
        reset();
        enable();
        count(Counter::RelayReplans);
        disable();
        // Started while disabled: must stay silent even though data
        // from the enabled window is still present.
        drop(time(Phase::CmaMove, 2));
        count(Counter::RelayReplans);
        let m = snapshot();
        assert_eq!(m.counter(Counter::RelayReplans), 1);
        assert!(m.phases.is_empty());
    }

    #[test]
    fn run_metrics_json_round_trips_losslessly() {
        let _l = locked();
        reset();
        enable();
        count_by(Counter::DelaunayInserts, 42);
        count(Counter::SurvivorFallbacks);
        drop(time(Phase::DeltaQuadrature, 8));
        disable();
        let mut m = snapshot();
        m.merge_survivability(
            serde_json::from_str("{\"surviving_nodes\":8,\"degradation\":0.25}").unwrap(),
        );
        let json = m.to_json().unwrap();
        let back = RunMetrics::from_json(&json).unwrap();
        assert_eq!(m, back);
        // Second round trip is a fixed point.
        assert_eq!(json, back.to_json().unwrap());
    }

    #[test]
    fn snapshot_has_a_stable_counter_schema() {
        let _l = locked();
        disable();
        reset();
        let m = snapshot();
        assert_eq!(m.counters.len(), Counter::ALL.len());
        for c in Counter::ALL {
            assert!(m.counters.contains_key(c.as_str()), "{}", c.as_str());
        }
    }
}
