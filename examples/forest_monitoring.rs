//! Forest monitoring: plan a stationary deployment from a historical
//! sensing trace — the paper's OSD workflow end to end.
//!
//! A GreenOrbs-style forest trace provides the historical reference
//! surface; FRA plans where `k` long-lived nodes should be installed so
//! that future light maps rebuilt from their readings track reality,
//! and the plan is validated against a *later* hour of the trace.
//!
//! Run with: `cargo run --release --example forest_monitoring`

use cps::core::osd::baselines;
use cps::greenorbs::{Channel, Dataset, ForestConfig};
use cps::prelude::*;
use cps::viz::{ascii_heatmap, ascii_scatter, topology_summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), cps::Error> {
    // Load (here: synthesize) the sensing trace and pick the region of
    // interest — a 100 x 100 m patch of the forest.
    let dataset = Dataset::generate(&ForestConfig::default());
    let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0))?;
    let grid = GridSpec::new(region, 101, 101)?;
    println!(
        "trace: {} nodes, {} hourly rounds over a {:.0} m plot",
        dataset.node_count(),
        dataset.hours(),
        dataset.side()
    );

    // Historical reference: the light surface at 10:00.
    let reference = dataset.region_field(region, Channel::Light, 10, 101)?;
    println!("\nhistorical light surface (10:00):");
    println!("{}", ascii_heatmap(&reference, &grid, 60, 22)?);

    // Plan 80 stationary nodes with the paper's parameters (Rc = 10 m).
    let k = 80;
    let plan = FraBuilder::new(k, 10.0).grid(grid).run(&reference)?;
    println!(
        "FRA deployment plan — {}",
        topology_summary(&plan.positions)
    );
    println!("{}", ascii_scatter(&plan.positions, region, 60, 22)?);

    // Validate on the planning hour and on a later hour (11:00): the
    // spatial structure persists, so the plan keeps working.
    for hour in [10u32, 11] {
        let truth = dataset.region_field(region, Channel::Light, hour, 101)?;
        let evaluator = DeltaEvaluator::new(&truth, &grid, 10.0);
        let planned = evaluator.evaluate(&plan.positions)?;
        let mut rng = StdRng::seed_from_u64(1);
        let random = baselines::random_deployment(region, k, &mut rng);
        let rand_eval = evaluator.evaluate(&random)?;
        println!(
            "{hour}:00  FRA delta = {:>9.1} (connected: {})   random delta = {:>9.1}",
            planned.delta, planned.connected, rand_eval.delta
        );
    }
    Ok(())
}
