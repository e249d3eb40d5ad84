//! Guard benchmark for the instrumentation layer: the hooks compiled
//! into the δ quadrature must cost (almost) nothing when observation is
//! off.
//!
//! Strategy: time the same δ workload with `cps_obs` disabled and
//! enabled. The disabled path is a strict subset of the enabled path
//! (one relaxed atomic load vs load + two clock reads + a map update),
//! so bounding the *enabled* slowdown bounds the disabled overhead from
//! above. The disabled and enabled reps alternate, so machine noise
//! (another tenant, a frequency step) lands on both sides rather than
//! on whichever side happened to run during it. The process exits
//! non-zero when the bound is violated, so CI can gate on it.
//!
//! Run with: `cargo run --release -p cps-bench --bin obs_overhead`

use std::process::ExitCode;
use std::time::Instant;

use cps_core::osd::baselines;
use cps_field::raster::delta_rms_raster;
use cps_field::{delta, Field, Parallelism, PeaksField, ReconstructedSurface};
use cps_geometry::{GridSpec, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 150;
const RESOLUTION: usize = 201;
const WARMUP: usize = 3;
const REPS: usize = 21;

/// The guard: the enabled-vs-disabled ratio on best-of-N runs, the
/// two sides' reps interleaved. 2% is
/// the budget ISSUE'd for the whole layer; the measured cost of one
/// atomic load plus two `Instant::now` calls per ~millisecond quadrature
/// is orders of magnitude below it, so a trip means a real regression
/// (a hook moved into an inner loop, a lock on the hot path, ...).
const MAX_OVERHEAD: f64 = 1.02;

/// Budget for the pool-enabled raster path. Looser than the serial
/// guard: with worker threads in play, best-of-N still carries a few
/// percent of scheduler jitter that has nothing to do with the hooks.
const MAX_OVERHEAD_POOLED: f64 = 1.05;

/// Times `work` with observation off and on, alternating the two
/// settings rep by rep (off, on, off, …) so that a slow patch of the
/// machine hits both sides alike, and returns the best time of each:
/// `(disabled_ns, enabled_ns)`. Observation is left disabled.
fn interleaved_best_of<F: FnMut() -> f64>(mut work: F) -> (u64, u64) {
    for _ in 0..WARMUP {
        std::hint::black_box(work());
    }
    let mut best = [u64::MAX; 2];
    for _ in 0..REPS {
        for (side, enabled) in [false, true].into_iter().enumerate() {
            if enabled {
                cps_obs::enable();
            } else {
                cps_obs::disable();
            }
            let start = Instant::now();
            std::hint::black_box(work());
            best[side] = best[side].min(start.elapsed().as_nanos() as u64);
        }
    }
    cps_obs::disable();
    (best[0], best[1])
}

fn main() -> ExitCode {
    let region = Rect::square(100.0).expect("square region");
    let grid = GridSpec::new(region, RESOLUTION, RESOLUTION).expect("grid");
    let reference = PeaksField::new(region, 8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let nodes = baselines::random_deployment(region, NODES, &mut rng);
    let samples: Vec<f64> = nodes.iter().map(|&p| reference.value(p)).collect();
    let rebuilt =
        ReconstructedSurface::from_samples(region, &nodes, &samples).expect("reconstruction");
    let par = Parallelism::serial();

    cps_obs::reset();
    let (disabled_ns, enabled_ns) =
        interleaved_best_of(|| delta::volume_difference_with(&reference, &rebuilt, &grid, par));
    let metrics = cps_obs::snapshot();

    // Sanity: the enabled run must actually have recorded itself.
    let recorded = metrics.phase_total_ns(cps_obs::Phase::DeltaQuadrature);
    assert!(
        recorded > 0,
        "enabled run recorded no delta_quadrature time — hooks are dead"
    );

    let ratio = enabled_ns as f64 / disabled_ns as f64;
    println!(
        "delta quadrature: disabled {:.3} ms, enabled {:.3} ms, ratio {:.4} (budget {:.2})",
        disabled_ns as f64 / 1e6,
        enabled_ns as f64 / 1e6,
        ratio,
        MAX_OVERHEAD
    );
    if ratio > MAX_OVERHEAD {
        eprintln!("instrumentation overhead exceeds the {MAX_OVERHEAD} budget");
        return ExitCode::FAILURE;
    }

    // Same guard on the pool-enabled raster path: the hooks it adds
    // (raster counters, pool-task counter, delta_raster timer) must
    // also be free when observation is off.
    let pooled = Parallelism::fixed(2);
    cps_obs::reset();
    let (disabled_ns, enabled_ns) =
        interleaved_best_of(|| delta_rms_raster(&reference, &rebuilt, &grid, pooled).delta);
    let metrics = cps_obs::snapshot();

    let recorded = metrics.phase_total_ns(cps_obs::Phase::DeltaRaster);
    assert!(
        recorded > 0,
        "enabled run recorded no delta_raster time — hooks are dead"
    );
    assert!(
        metrics.counter(cps_obs::Counter::TrianglesRasterized) > 0,
        "enabled run rasterized no triangles — hooks are dead"
    );

    let ratio = enabled_ns as f64 / disabled_ns as f64;
    println!(
        "raster kernel (2t pool): disabled {:.3} ms, enabled {:.3} ms, ratio {:.4} (budget {:.2})",
        disabled_ns as f64 / 1e6,
        enabled_ns as f64 / 1e6,
        ratio,
        MAX_OVERHEAD_POOLED
    );
    if ratio > MAX_OVERHEAD_POOLED {
        eprintln!("instrumentation overhead exceeds the {MAX_OVERHEAD_POOLED} budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
