//! The reproduced headline claims of the paper, as executable
//! assertions (sizes are reduced in debug builds; run with `--release`
//! for the full experiment scale — see EXPERIMENTS.md for those
//! numbers).

use cps::core::osd::{baselines, FraBuilder};
use cps::core::DeltaEvaluator;
use cps::geometry::{GridSpec, Point2, Rect};
use cps::greenorbs::{Channel, Dataset, ForestConfig, LatentLightField};
use cps::sim::{scenario, CmaBuilder, DeltaTimeline};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trace() -> Dataset {
    Dataset::generate(&ForestConfig {
        node_count: if cfg!(debug_assertions) { 400 } else { 1000 },
        hours: 12,
        ..ForestConfig::default()
    })
}

fn region() -> Rect {
    Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap()
}

/// Fig. 7's core claim: at a healthy budget, the foresighted refinement
/// deployment reconstructs the environment far better than random
/// scattering, while also being connected (which random is not asked
/// to be).
#[test]
fn fra_beats_random_scattering_at_healthy_budgets() {
    let resolution = if cfg!(debug_assertions) { 51 } else { 101 };
    let k = 80;
    let dataset = trace();
    let reference = dataset
        .region_field(region(), Channel::Light, 10, resolution)
        .unwrap();
    let grid = GridSpec::new(region(), resolution, resolution).unwrap();
    let fra = FraBuilder::new(k, 10.0).grid(grid).run(&reference).unwrap();
    let evaluator = DeltaEvaluator::new(&reference, &grid, 10.0);
    let fe = evaluator.evaluate(&fra.positions).unwrap();
    assert!(fe.connected);

    let mut worse = 0;
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = baselines::random_deployment(region(), k, &mut rng);
        let re = evaluator.evaluate(&pts).unwrap();
        if fe.delta < re.delta {
            worse += 1;
        }
    }
    assert_eq!(worse, 3, "FRA must beat every random draw at k = {k}");
}

/// Figs. 8–10's core claims: from the connected grid start, CMA (i) never
/// disconnects the network and (ii) does not lose reconstruction
/// quality while adapting to the time-varying field.
#[test]
fn cma_stays_connected_and_does_not_regress() {
    let steps = if cfg!(debug_assertions) { 8 } else { 45 };
    let resolution = if cfg!(debug_assertions) { 41 } else { 101 };
    let field = LatentLightField::new(&ForestConfig::default());
    let grid = GridSpec::new(region(), resolution, resolution).unwrap();
    let start = scenario::grid_start_spaced(region(), 100, 9.3).unwrap();
    let mut sim = CmaBuilder::new(region(), start)
        .start_time(600.0)
        .run(&field)
        .unwrap();
    let mut timeline = DeltaTimeline::new();
    let e0 = timeline.record(&sim, &grid).unwrap();
    assert!(e0.connected, "the paper's initial grid must be connected");
    for _ in 0..steps {
        sim.step().unwrap();
    }
    let e1 = timeline.record(&sim, &grid).unwrap();
    assert!(e1.connected, "CMA+LCM must preserve connectivity");
    assert!(
        e1.delta <= 1.1 * e0.delta,
        "delta must not regress: {} -> {}",
        e0.delta,
        e1.delta
    );
}

/// Theorem 3.1: the δ definition via polytope volumes equals the
/// pointwise integral — checked on the actual trace surface.
#[test]
fn theorem_3_1_volume_identity_on_the_trace_surface() {
    use cps::field::{delta, Parallelism, PlaneField};
    let resolution = 41;
    let dataset = trace();
    let f = dataset
        .region_field(region(), Channel::Light, 10, resolution)
        .unwrap();
    let g = PlaneField::new(0.05, -0.02, 8.0);
    let grid = GridSpec::new(region(), resolution, resolution).unwrap();
    let u = delta::union_volume_with(&f, &g, &grid, Parallelism::serial());
    let i = delta::intersection_volume_with(&f, &g, &grid, Parallelism::serial());
    let d = delta::volume_difference_with(&f, &g, &grid, Parallelism::serial());
    assert!((u - i - d).abs() < 1e-6 * d.max(1.0));
}
