//! The four workloads. Each builds its inputs from the benchmark seed,
//! then runs rounds of a fixed amount of work through the library's
//! public API as a closed loop: one driver issues the next slot, plan or
//! job only when the previous one has finished.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cps_field::Parallelism;
use cps_geometry::{GridSpec, Point2, Rect};

pub mod osd;
pub mod ostd;
pub mod sweep;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["ostd_cma", "osd_fra", "ostd_faults_resume", "sweep_faults"];

/// Threads for every parallel layer, pinned rather than `auto` so runs
/// on different machines do the same work.
pub const THREADS: usize = 2;

/// The paper's communication radius `Rc`, metres.
pub const RC: f64 = 10.0;

/// The fault plan of `ostd_faults_resume` and the faulty half of
/// `sweep_faults`.
pub const FAULT_PLAN: &str = "seed=3,cull=0.1@10,death=0.01,dropout=0.05,stuck=0.02:5,loss=0.2:2";

/// Benchmark seed whose outputs are pinned in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// How much work a round does: `Full` is the benchmark, `Smoke` a tiny
/// version for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Scale {
    Full,
    Smoke,
}

/// What a workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub scale: Scale,
    /// Corrupts one output of every round, to show the checks see it.
    pub corrupt: bool,
}

/// The paper's 100 × 100 m region of interest at (20, 20)–(120, 120).
pub fn region() -> Rect {
    Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).expect("static region")
}

/// The 101² evaluation grid over [`region`].
pub fn grid() -> GridSpec {
    GridSpec::new(region(), 101, 101).expect("static grid")
}

pub fn parallelism() -> Parallelism {
    Parallelism::fixed(THREADS)
}

/// The `i`-th forest seed of `stream`, derived from the benchmark seed
/// with SplitMix64 and kept below 2³² so it prints as a plain number.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(i.wrapping_mul(0x8cb9_2ba7_2f3d_8dd7))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 32
}

/// What one round did: op latencies, attempted and failed ops and
/// checks, outputs for the reference check, and layer figures only the
/// benchmark can see.
#[derive(Debug, Default)]
pub struct Round {
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(ops, seconds)` for `ops_per_s` when it is not every op over
    /// the round's wall time.
    pub throughput: Option<(u64, f64)>,
    /// Named outputs compared against `reference.txt` on the default
    /// seed and across rounds.
    pub outputs: BTreeMap<String, f64>,
    /// Layer counts measured by the benchmark (must repeat exactly).
    pub layer_counts: BTreeMap<&'static str, u64>,
}

impl Round {
    /// Records one op that started at `started` and just ended.
    pub fn op(&mut self, started: Instant, result: Result<(), String>) {
        self.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
        self.attempted += 1;
        if let Err(why) = result {
            self.note_failure(why);
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.note_failure(why());
        }
    }

    /// Records `ops` ops that could not run because an earlier call
    /// failed.
    pub fn fail(&mut self, ops: u64, why: String) {
        let ops = ops.max(1);
        self.attempted += ops;
        self.failed += ops - 1;
        self.note_failure(why);
    }

    fn note_failure(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn output(&mut self, key: String, value: f64) {
        self.outputs.insert(key, value);
    }

    pub fn add_count(&mut self, key: &'static str, n: u64) {
        *self.layer_counts.entry(key).or_default() += n;
    }
}

/// One benchmark workload.
pub trait Workload {
    /// `slot`, `plan` or `job`: what one op is.
    fn op_name(&self) -> &'static str;

    /// Untimed housekeeping before each round (clearing checkpoint
    /// directories and manifests left by the previous one).
    fn prepare(&mut self) -> Result<(), String>;

    /// A small slice of the round, run during set-up so lazy
    /// initialisation (the worker pool, first-touch allocation) is not
    /// timed.
    fn warm_up(&mut self) -> Result<(), String>;

    /// One round; op failures are counted in `round`, not returned.
    /// `traced` installs the per-stage timing observer.
    fn round(&mut self, round: &mut Round, traced: bool);
}

/// Builds workload `name`; this is the timed set-up.
pub fn build(name: &str, opts: &Options) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ostd_cma" => Box::new(ostd::Ostd::new(opts, false)?),
        "ostd_faults_resume" => Box::new(ostd::Ostd::new(opts, true)?),
        "osd_fra" => Box::new(osd::Osd::new(opts)?),
        "sweep_faults" => Box::new(sweep::Sweep::new(opts)?),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    })
}

/// A scratch directory under the working directory, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(name: &str) -> Result<Self, String> {
        let path = Path::new(".perfbench_tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 0, 0), derive_seed(1, 0, 0));
        let seeds: std::collections::BTreeSet<u64> =
            (0..24).map(|i| derive_seed(7, 0, i)).collect();
        assert_eq!(seeds.len(), 24);
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        assert_ne!(derive_seed(1, 0, 0), derive_seed(1, 1, 0));
        assert!(seeds.iter().all(|&s| s < 1 << 32));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut round = Round::default();
        round.op(Instant::now(), Ok(()));
        round.check(false, || "bad".into());
        round.fail(3, "skipped".into());
        assert_eq!((round.attempted, round.failed), (5, 4));
        assert_eq!(round.op_ms.len(), 1);
    }
}
