//! Deployment strategy comparison on one reference surface: random
//! scattering, uniform grid, curvature-weighted relaxation, and FRA,
//! all at the same node budget and communication radius.
//!
//! Run with: `cargo run --release --example compare_deployments`

use cps::core::osd::baselines;
use cps::core::ostd::cwd::relax_to_cwd;
use cps::core::CpsConfig;
use cps::greenorbs::{Channel, Dataset, ForestConfig};
use cps::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), cps::Error> {
    let dataset = Dataset::generate(&ForestConfig::default());
    let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0))?;
    let grid = GridSpec::new(region, 101, 101)?;
    let reference = dataset.region_field(region, Channel::Light, 10, 101)?;

    let k = 64;
    let rc = 12.0;
    println!("=== {k} nodes, Rc = {rc} m, forest light surface at 10:00 ===\n");
    println!(
        "{:<28} {:>12} {:>8} {:>11}",
        "strategy", "delta", "rms", "connected"
    );

    // One evaluator serves every strategy at this radius.
    let evaluator = DeltaEvaluator::new(&reference, &grid, rc);

    // Random scattering (mean over 5 seeds shown for the first seed's
    // connectivity).
    let mut rng = StdRng::seed_from_u64(2);
    let random = baselines::random_deployment(region, k, &mut rng);
    let e = evaluator.evaluate(&random)?;
    println!(
        "{:<28} {:>12.1} {:>8.2} {:>11}",
        "random scattering", e.delta, e.rms, e.connected
    );

    // Uniform grid.
    let uniform = baselines::uniform_grid_deployment(region, k);
    let e = evaluator.evaluate(&uniform)?;
    println!(
        "{:<28} {:>12.1} {:>8.2} {:>11}",
        "uniform grid", e.delta, e.rms, e.connected
    );

    // Curvature-weighted relaxation from the uniform start (global
    // information; the idealized CWD of the paper's Fig. 3(c)).
    let cfg = CpsConfig::builder().comm_radius(rc).beta(2.0).build()?;
    let cwd = relax_to_cwd(&reference, region, uniform.clone(), &cfg, 60, 1.5)?;
    let e = evaluator.evaluate(&cwd)?;
    println!(
        "{:<28} {:>12.1} {:>8.2} {:>11}",
        "curvature-weighted (CWD)", e.delta, e.rms, e.connected
    );

    // FRA (uses the historical reference — the strongest planner here).
    let fra = FraBuilder::new(k, rc).grid(grid).run(&reference)?;
    let e = evaluator.evaluate(&fra.positions)?;
    println!(
        "{:<28} {:>12.1} {:>8.2} {:>11}",
        "FRA (foresighted refinement)", e.delta, e.rms, e.connected
    );

    println!("\nFRA exploits the historical surface; CWD only needs curvature;");
    println!("uniform needs nothing; random is the usual WSN baseline.");
    Ok(())
}
