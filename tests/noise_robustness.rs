//! Integration: the full pipeline on terrain nobody designed — seeded
//! noise fields across many seeds.

use cps::core::osd::FraBuilder;
use cps::core::{analyze_deployment_with, DeltaEvaluator};
use cps::field::{NoiseField, Parallelism};
use cps::geometry::{GridSpec, Rect};
use cps::network::UnitDiskGraph;

#[test]
fn fra_is_robust_across_noise_seeds() {
    let region = Rect::square(80.0).unwrap();
    let grid = GridSpec::new(region, 41, 41).unwrap();
    for seed in 0..8 {
        let field = NoiseField::new(seed, 18.0, 12.0);
        let plan = FraBuilder::new(30, 12.0)
            .grid(grid)
            .run(&field)
            .unwrap_or_else(|e| panic!("seed {seed}: FRA failed: {e}"));
        assert_eq!(plan.positions.len(), 30);
        let graph = UnitDiskGraph::new(plan.positions.clone(), 12.0).unwrap();
        assert!(graph.is_connected(), "seed {seed}: disconnected");
        let eval = DeltaEvaluator::new(&field, &grid, 12.0)
            .evaluate(&plan.positions)
            .unwrap();
        assert!(eval.delta.is_finite() && eval.delta >= 0.0);
    }
}

#[test]
fn deployment_reports_stay_sound_on_noise() {
    let region = Rect::square(80.0).unwrap();
    let grid = GridSpec::new(region, 41, 41).unwrap();
    let field = NoiseField::new(3, 14.0, 10.0);
    let plan = FraBuilder::new(40, 10.0).grid(grid).run(&field).unwrap();
    let report =
        analyze_deployment_with(&field, &plan.positions, 10.0, &grid, Parallelism::serial())
            .unwrap();
    assert!(report.evaluation.connected);
    // Coverage cells tile the region.
    let total_coverage = report.coverage.mean * report.coverage.count as f64;
    assert!((total_coverage - region.area()).abs() < 1.0);
    // Diameter can't exceed the k-hop worst case.
    assert!(report.network_diameter.unwrap() <= 40.0 * 10.0);
}

#[test]
fn cma_swarm_handles_noise_terrain() {
    use cps::field::Static;
    use cps::sim::{scenario, CmaBuilder};
    let region = Rect::square(80.0).unwrap();
    let field = Static::new(NoiseField::new(11, 16.0, 20.0));
    let start = scenario::grid_start_spaced(region, 49, 9.3).unwrap();
    let mut sim = CmaBuilder::new(region, start).run(field).unwrap();
    for _ in 0..20 {
        sim.step().unwrap();
    }
    assert!(sim.positions().iter().all(|p| region.contains(*p)));
    let graph = UnitDiskGraph::new(sim.positions(), 10.0).unwrap();
    assert!(graph.is_connected());
}
