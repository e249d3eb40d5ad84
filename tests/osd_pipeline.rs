//! Integration: the full OSD pipeline — trace → reference surface →
//! FRA plan → reconstruction → δ — spanning every crate.

use cps::core::osd::{baselines, FraBuilder};
use cps::core::{DeltaEvaluator, EvalOptions};
use cps::field::Parallelism;
use cps::geometry::{GridSpec, Point2, Rect};
use cps::greenorbs::{Channel, Dataset, ForestConfig};
use cps::network::UnitDiskGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario() -> (Dataset, Rect, GridSpec) {
    let dataset = Dataset::generate(&ForestConfig {
        node_count: 600,
        hours: 12,
        ..ForestConfig::default()
    });
    let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
    let grid = GridSpec::new(region, 51, 51).unwrap();
    (dataset, region, grid)
}

#[test]
fn fra_plan_is_feasible_and_beats_random_at_mid_budget() {
    let (dataset, region, grid) = scenario();
    let reference = dataset
        .region_field(region, Channel::Light, 10, 51)
        .unwrap();

    let k = 80;
    let plan = FraBuilder::new(k, 10.0).grid(grid).run(&reference).unwrap();
    assert_eq!(plan.positions.len(), k);
    assert_eq!(plan.refined + plan.relays, k);

    let evaluator = DeltaEvaluator::new(&reference, &grid, 10.0);
    let eval = evaluator.evaluate(&plan.positions).unwrap();
    assert!(
        eval.connected,
        "FRA must satisfy the connectivity constraint"
    );
    assert!(eval.delta.is_finite() && eval.delta > 0.0);

    // Fig. 7's headline: at a healthy mid-range budget FRA beats the
    // random baseline decisively.
    let mut deltas = Vec::new();
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = baselines::random_deployment(region, k, &mut rng);
        deltas.push(evaluator.evaluate(&pts).unwrap().delta);
    }
    let random_mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    assert!(
        eval.delta < random_mean,
        "FRA {} should beat random {}",
        eval.delta,
        random_mean
    );
}

#[test]
fn more_budget_means_no_worse_reconstruction() {
    let (dataset, region, grid) = scenario();
    let reference = dataset
        .region_field(region, Channel::Light, 10, 51)
        .unwrap();
    let small = FraBuilder::new(40, 10.0)
        .grid(grid)
        .run(&reference)
        .unwrap();
    let large = FraBuilder::new(120, 10.0)
        .grid(grid)
        .run(&reference)
        .unwrap();
    let evaluator = DeltaEvaluator::new(&reference, &grid, 10.0);
    let es = evaluator.evaluate(&small.positions).unwrap();
    let el = evaluator.evaluate(&large.positions).unwrap();
    assert!(
        el.delta < es.delta,
        "tripling the budget should reduce delta ({} vs {})",
        el.delta,
        es.delta
    );
}

#[test]
fn fra_networks_are_connected_across_budgets_and_radii() {
    let (dataset, region, grid) = scenario();
    let reference = dataset
        .region_field(region, Channel::Light, 10, 51)
        .unwrap();
    for k in [5usize, 25, 60] {
        for rc in [8.0, 12.0, 25.0] {
            let plan = FraBuilder::new(k, rc).grid(grid).run(&reference).unwrap();
            let graph = UnitDiskGraph::new(plan.positions.clone(), rc).unwrap();
            assert!(
                graph.is_connected(),
                "k={k} rc={rc}: {} components",
                graph.component_count()
            );
            assert!(plan.positions.iter().all(|p| region.contains(*p)));
        }
    }
}

#[test]
fn fra_plan_replays_the_cli_golden() {
    // `cps generate --seed 5` then `cps plan --k 80 --hour 12` (through
    // the trace's JSON round trip, as the CLI reads it): the placement
    // must match the recorded golden exactly, at 1, 2 and 8 threads.
    let golden: Vec<Point2> = include_str!("goldens/plan_seed5_k80.csv")
        .lines()
        .skip(1)
        .map(|line| {
            let (x, y) = line.split_once(',').unwrap();
            Point2::new(x.parse().unwrap(), y.parse().unwrap())
        })
        .collect();
    assert_eq!(golden.len(), 80);
    let generated = Dataset::generate(&ForestConfig {
        seed: 5,
        ..ForestConfig::default()
    });
    let dataset = Dataset::from_json(&generated.to_json().unwrap()).unwrap();
    let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
    let reference = dataset
        .region_field(region, Channel::Light, 12, 101)
        .unwrap();
    let grid = GridSpec::new(region, 101, 101).unwrap();
    for threads in [1, 2, 8] {
        let plan = FraBuilder::new(80, 10.0)
            .grid(grid)
            .evaluator(EvalOptions::new().parallelism(Parallelism::fixed(threads)))
            .run(&reference)
            .unwrap();
        assert_eq!(plan.positions, golden, "{threads} threads");
    }
}
