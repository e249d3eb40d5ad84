//! Emits `BENCH_delta.json`: wall-clock timings of the δ quadrature
//! (Eqn. 2) on the row-sharded parallel engine, serial vs 2/4/auto
//! threads, plus the raster-vs-walk kernel comparison and the
//! persistent-pool dispatch overhead.
//!
//! The workload is the hot path the engine was built for: δ between an
//! analytic reference and a Delaunay [`ReconstructedSurface`] (every
//! grid point costs a triangle walk — or, on the raster kernel, one
//! incremental scanline fill per alive triangle) on a 201×201 grid
//! with 150 nodes. Results are checked bit-identical across thread
//! counts before any timing is reported, and the two kernels are
//! cross-checked to within 1e-9.
//!
//! Besides the current timings the file carries a `trajectory` array:
//! one point per recorded run (kernel, threads, git SHA, median),
//! appended on every invocation, so the performance history of the
//! repository stays reviewable in-tree. Points written by older
//! schema versions are salvaged field-by-field.
//!
//! Run with: `cargo run --release -p cps-bench --bin bench_delta_json`
//! (writes `BENCH_delta.json` in the current directory; pass a path to
//! override and an optional label for the trajectory points).

use std::env;
use std::fs;
use std::time::Instant;

use cps_core::osd::baselines;
use cps_field::par::map_rows;
use cps_field::raster::delta_rms_raster;
use cps_field::{delta, DeltaTotals, Field, Parallelism, PeaksField, ReconstructedSurface};
use cps_field::{GaussianBlob, Static};
use cps_geometry::{GridSpec, Point2, Rect};
use cps_sim::sweep::{run_sweep, SweepJob, SweepSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use serde_json::Value;

const NODES: usize = 150;
const RESOLUTION: usize = 201;
const WARMUP: usize = 3;
const REPS: usize = 15;

#[derive(Serialize, Deserialize)]
struct ResultEntry {
    mode: String,
    threads: usize,
    min_ns: u64,
    median_ns: u64,
    speedup_vs_serial: f64,
}

#[derive(Serialize, Deserialize)]
struct KernelEntry {
    resolution: usize,
    walk_median_ns: u64,
    raster_median_ns: u64,
    speedup: f64,
    rel_diff: f64,
}

#[derive(Serialize, Deserialize)]
struct PoolEntry {
    threads: usize,
    rows: usize,
    calls: usize,
    spawn_median_ns: u64,
    pooled_median_ns: u64,
    speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct SweepWorkerEntry {
    workers: usize,
    total_ns: u64,
    jobs_per_sec: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize, Deserialize)]
struct SweepEntry {
    jobs: usize,
    minutes: u64,
    bit_identical_across_workers: bool,
    bit_identical_after_resume: bool,
    workers: Vec<SweepWorkerEntry>,
}

#[derive(Serialize, Deserialize)]
struct TrajectoryPoint {
    label: String,
    git_sha: String,
    kernel: String,
    threads: usize,
    delta: f64,
    median_ns: u64,
    available_cores: usize,
}

#[derive(Serialize, Deserialize)]
struct BenchDoc {
    benchmark: String,
    workload: String,
    grid: Vec<usize>,
    available_cores: usize,
    warmup: usize,
    repetitions: usize,
    delta: f64,
    bit_identical_across_policies: bool,
    results: Vec<ResultEntry>,
    raster_vs_walk: Vec<KernelEntry>,
    pool: PoolEntry,
    sweep: SweepEntry,
    trajectory: Vec<TrajectoryPoint>,
}

/// The repository's short commit SHA, or "unknown" outside a git
/// checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Salvages the trajectory from a previous `BENCH_delta.json`, if one
/// exists. Points are decoded field-by-field so entries written by
/// older schema versions (no kernel/threads/git_sha) survive: they
/// were serial walk runs, and read back as such.
fn previous_trajectory(path: &str) -> Vec<TrajectoryPoint> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    let Some(points) = doc.get("trajectory").and_then(|v| v.as_array()) else {
        return Vec::new();
    };
    points
        .iter()
        .filter_map(|p| {
            let s = |k: &str| p.get(k).and_then(|v| v.as_str()).map(str::to_string);
            let u = |k: &str| p.get(k).and_then(|v| v.as_u64());
            Some(TrajectoryPoint {
                label: s("label")?,
                git_sha: s("git_sha").unwrap_or_else(|| "unknown".to_string()),
                kernel: s("kernel").unwrap_or_else(|| "walk".to_string()),
                threads: u("threads").unwrap_or(1) as usize,
                delta: p.get("delta").and_then(|v| v.as_f64())?,
                median_ns: u("median_ns").or_else(|| u("serial_median_ns"))?,
                available_cores: u("available_cores").unwrap_or(1) as usize,
            })
        })
        .collect()
}

/// Builds the standard workload surface at `resolution`.
fn workload(resolution: usize) -> (PeaksField, GridSpec, ReconstructedSurface) {
    let region = Rect::square(100.0).expect("square region");
    let grid = GridSpec::new(region, resolution, resolution).expect("grid");
    let reference = PeaksField::new(region, 8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let nodes = baselines::random_deployment(region, NODES, &mut rng);
    let samples: Vec<f64> = nodes.iter().map(|&p| reference.value(p)).collect();
    let rebuilt =
        ReconstructedSurface::from_samples(region, &nodes, &samples).expect("reconstruction");
    (reference, grid, rebuilt)
}

fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut runs: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    runs.sort_unstable();
    runs[reps / 2]
}

fn main() {
    let out_path = env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_delta.json".into());
    let label = env::args().nth(2).unwrap_or_else(|| "local".into());

    let (reference, grid, rebuilt) = workload(RESOLUTION);

    let policies: [(&'static str, Parallelism); 4] = [
        ("serial", Parallelism::serial()),
        ("2-threads", Parallelism::fixed(2)),
        ("4-threads", Parallelism::fixed(4)),
        ("auto", Parallelism::auto()),
    ];

    // Determinism gate: every policy must reproduce the serial bits,
    // on the walk pair and the raster kernel independently.
    let expected = delta::volume_difference(&reference, &rebuilt, &grid);
    let expected_raster = delta_rms_raster(&reference, &rebuilt, &grid, Parallelism::serial());
    for (label, par) in policies {
        let got = delta::volume_difference_with(&reference, &rebuilt, &grid, par);
        assert_eq!(
            expected.to_bits(),
            got.to_bits(),
            "{label} diverged from serial"
        );
        let got = delta_rms_raster(&reference, &rebuilt, &grid, par);
        assert_eq!(
            expected_raster.delta.to_bits(),
            got.delta.to_bits(),
            "raster {label} diverged from serial"
        );
    }
    assert!(
        (expected_raster.delta - expected).abs() <= 1e-9 * expected.abs().max(1.0),
        "kernels disagree: raster {} walk {expected}",
        expected_raster.delta
    );

    let timings: Vec<(&'static str, usize, u64, u64)> = policies
        .iter()
        .map(|&(label, par)| {
            for _ in 0..WARMUP {
                delta::volume_difference_with(&reference, &rebuilt, &grid, par);
            }
            let mut runs: Vec<u64> = (0..REPS)
                .map(|_| {
                    let start = Instant::now();
                    delta::volume_difference_with(&reference, &rebuilt, &grid, par);
                    start.elapsed().as_nanos() as u64
                })
                .collect();
            runs.sort_unstable();
            (label, par.threads(), runs[0], runs[REPS / 2])
        })
        .collect();

    let serial_median = timings[0].3;
    let results: Vec<ResultEntry> = timings
        .iter()
        .map(|&(mode, threads, min_ns, median_ns)| ResultEntry {
            mode: mode.to_string(),
            threads,
            min_ns,
            median_ns,
            speedup_vs_serial: serial_median as f64 / median_ns as f64,
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let raster_vs_walk = bench_kernels();
    let pool = bench_pool();
    let sweep = bench_sweep();

    let sha = git_sha();
    let mut trajectory = previous_trajectory(&out_path);
    trajectory.push(TrajectoryPoint {
        label: label.clone(),
        git_sha: sha.clone(),
        kernel: "walk".to_string(),
        threads: 1,
        delta: expected,
        median_ns: serial_median,
        available_cores: cores,
    });
    let raster_201 = raster_vs_walk
        .iter()
        .find(|e| e.resolution == RESOLUTION)
        .expect("201 entry");
    trajectory.push(TrajectoryPoint {
        label,
        git_sha: sha,
        kernel: "raster".to_string(),
        threads: 1,
        delta: expected_raster.delta,
        median_ns: raster_201.raster_median_ns,
        available_cores: cores,
    });

    let doc = BenchDoc {
        benchmark: "volume_difference (Eqn. 2)".to_string(),
        workload: format!("PeaksField vs ReconstructedSurface({NODES} nodes)"),
        grid: vec![RESOLUTION, RESOLUTION],
        available_cores: cores,
        warmup: WARMUP,
        repetitions: REPS,
        delta: expected,
        bit_identical_across_policies: true,
        results,
        raster_vs_walk,
        pool,
        sweep,
        trajectory,
    };

    let json = serde_json::to_string_pretty(&doc).expect("serialize BENCH_delta.json");
    fs::write(&out_path, json).expect("write BENCH_delta.json");
    println!(
        "wrote {out_path} ({} trajectory points)",
        doc.trajectory.len()
    );
    for t in &doc.results {
        println!(
            "  {:>10}: median {:>8.2} ms (x{:.2} vs serial)",
            t.mode,
            t.median_ns as f64 / 1e6,
            t.speedup_vs_serial
        );
    }
    for k in &doc.raster_vs_walk {
        println!(
            "  {0}x{0}: walk {1:>8.2} ms, raster {2:>8.2} ms (x{3:.2}, rel diff {4:.2e})",
            k.resolution,
            k.walk_median_ns as f64 / 1e6,
            k.raster_median_ns as f64 / 1e6,
            k.speedup,
            k.rel_diff,
        );
    }
    println!(
        "  pool dispatch ({} calls x {} rows, {} threads): spawn {:.2} ms, pooled {:.2} ms (x{:.2})",
        doc.pool.calls,
        doc.pool.rows,
        doc.pool.threads,
        doc.pool.spawn_median_ns as f64 / 1e6,
        doc.pool.pooled_median_ns as f64 / 1e6,
        doc.pool.speedup,
    );
    for w in &doc.sweep.workers {
        println!(
            "  sweep ({} jobs, {} workers): {:.2} ms, {:.2} jobs/s (x{:.2} vs serial)",
            doc.sweep.jobs,
            w.workers,
            w.total_ns as f64 / 1e6,
            w.jobs_per_sec,
            w.speedup_vs_serial,
        );
    }
}

/// Times a 16-job batch sweep at 1/2/8 workers, gating the timings on
/// the engine's two determinism guarantees: aggregate JSON byte-equal
/// across worker counts, and byte-equal again after an interrupt
/// (simulated by a half-full manifest) plus resume.
fn bench_sweep() -> SweepEntry {
    let spec = SweepSpec {
        seeds: vec![1, 2, 3, 4],
        k: vec![9, 16],
        comm_radius: vec![10.0, 12.0],
        minutes: 5,
        sample_every: 5,
        resolution: 41,
        ..SweepSpec::default()
    };
    let field_for = |job: &SweepJob| {
        Static::new(GaussianBlob::isotropic(
            Point2::new(40.0 + job.seed as f64 * 9.0, 70.0),
            45.0,
            18.0,
        ))
    };
    let jobs = spec.jobs().len();

    // One warm pass (spawns the pool workers) doubles as the reference
    // for the bit-identity gates.
    let reference = run_sweep(&spec, 2, None, false, field_for).expect("sweep");
    let reference_json = reference.to_json().expect("sweep json");

    let mut bit_identical_across_workers = true;
    let timings: Vec<(usize, u64)> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let start = Instant::now();
            let results = run_sweep(&spec, w, None, false, field_for).expect("sweep");
            let total_ns = start.elapsed().as_nanos() as u64;
            bit_identical_across_workers &=
                results.to_json().expect("sweep json") == reference_json;
            (w, total_ns)
        })
        .collect();
    let serial_ns = timings[0].1;
    let workers: Vec<SweepWorkerEntry> = timings
        .into_iter()
        .map(|(w, total_ns)| SweepWorkerEntry {
            workers: w,
            total_ns,
            jobs_per_sec: jobs as f64 / (total_ns as f64 / 1e9),
            speedup_vs_serial: serial_ns as f64 / total_ns as f64,
        })
        .collect();

    // Interrupt + resume gate: a manifest holding half the outcomes
    // must replay into byte-identical output.
    let dir = env::temp_dir().join(format!("cps_bench_sweep_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("bench temp dir");
    let manifest_path = dir.join("sweep.manifest");
    let digest = spec.digest().expect("finite spec digests");
    let expanded = spec.jobs();
    let mut partial = cps_sim::SweepManifest::create(&manifest_path, digest).expect("manifest");
    for i in (0..jobs).step_by(2) {
        partial
            .record(
                i as u64,
                expanded[i].digest(digest),
                reference.outcomes[i].clone(),
            )
            .expect("manifest record");
    }
    let resumed =
        run_sweep(&spec, 8, Some(&manifest_path), true, field_for).expect("resumed sweep");
    let bit_identical_after_resume = resumed.to_json().expect("sweep json") == reference_json;
    let _ = fs::remove_dir_all(&dir);

    SweepEntry {
        jobs,
        minutes: spec.minutes,
        bit_identical_across_workers,
        bit_identical_after_resume,
        workers,
    }
}

/// The per-cell walk pair the raster kernel replaced: one
/// point-location walk per grid cell for the δ sweep and again for the
/// RMS sweep.
fn walk_delta_rms(
    reference: &PeaksField,
    rebuilt: &ReconstructedSurface,
    grid: &GridSpec,
    par: Parallelism,
) -> DeltaTotals {
    DeltaTotals {
        delta: delta::volume_difference_with(reference, rebuilt, grid, par),
        rms: delta::rms_difference_with(reference, rebuilt, grid, par),
    }
}

/// Times the full δ+RMS evaluation — the quantity the evaluator
/// actually computes — on the raster kernel and on the walk pair
/// across grid resolutions. The raster kernel fuses both sweeps into
/// one scanline pass.
fn bench_kernels() -> Vec<KernelEntry> {
    [101usize, 201, 401]
        .iter()
        .map(|&resolution| {
            // The 401² walk is expensive; fewer reps keep the runtime sane.
            let reps = if resolution >= 401 { 5 } else { REPS };
            let (reference, grid, rebuilt) = workload(resolution);
            let serial = Parallelism::serial();
            let walk = walk_delta_rms(&reference, &rebuilt, &grid, serial);
            let raster = delta_rms_raster(&reference, &rebuilt, &grid, serial);
            let rel_diff = (raster.delta - walk.delta).abs() / walk.delta.abs().max(1.0);
            assert!(rel_diff <= 1e-9, "kernels diverged at {resolution}");
            for _ in 0..WARMUP {
                delta_rms_raster(&reference, &rebuilt, &grid, serial);
            }
            let raster_median_ns = median_ns(reps, || {
                delta_rms_raster(&reference, &rebuilt, &grid, serial);
            });
            for _ in 0..WARMUP.min(1) {
                walk_delta_rms(&reference, &rebuilt, &grid, serial);
            }
            let walk_median_ns = median_ns(reps, || {
                walk_delta_rms(&reference, &rebuilt, &grid, serial);
            });
            KernelEntry {
                resolution,
                walk_median_ns,
                raster_median_ns,
                speedup: walk_median_ns as f64 / raster_median_ns as f64,
                rel_diff,
            }
        })
        .collect()
}

/// Times many small parallel row sweeps through the persistent pool
/// (what `map_rows` does now) against an inline per-call
/// `thread::scope` dispatch of the identical chunked workload (what it
/// did before). The work per call is deliberately small so the
/// dispatch overhead — thread creation vs queue handoff — dominates.
fn bench_pool() -> PoolEntry {
    const ROWS: usize = 128;
    const CALLS: usize = 50;
    let row_work = |j: usize| -> f64 {
        let mut acc = 0.0;
        for i in 0..ROWS {
            acc += ((i * 31 + j * 17) as f64).sqrt();
        }
        acc
    };
    let par = Parallelism::fixed(2);

    let pooled = || {
        let mut total = 0.0;
        for _ in 0..CALLS {
            total += map_rows(ROWS, par, row_work).iter().sum::<f64>();
        }
        total
    };
    let spawned = || {
        let mut total = 0.0;
        for _ in 0..CALLS {
            // The pre-pool dispatch: fresh scoped threads every call,
            // same halved row deal, same fold order.
            let mut rows: Vec<f64> = vec![0.0; ROWS];
            let (lo, hi) = rows.split_at_mut(ROWS / 2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for (j, slot) in hi.iter_mut().enumerate() {
                        *slot = row_work(ROWS / 2 + j);
                    }
                });
                for (j, slot) in lo.iter_mut().enumerate() {
                    *slot = row_work(j);
                }
            });
            total += rows.iter().sum::<f64>();
        }
        total
    };

    // Warm both paths (the pool spawns its workers on the first call).
    let a = pooled();
    let b = spawned();
    assert!(
        (a - b).abs() <= 1e-6 * a.abs().max(1.0),
        "dispatch paths disagree"
    );

    let pooled_median_ns = median_ns(REPS, || {
        pooled();
    });
    let spawn_median_ns = median_ns(REPS, || {
        spawned();
    });
    PoolEntry {
        threads: 2,
        rows: ROWS,
        calls: CALLS,
        spawn_median_ns,
        pooled_median_ns,
        speedup: spawn_median_ns as f64 / pooled_median_ns as f64,
    }
}
