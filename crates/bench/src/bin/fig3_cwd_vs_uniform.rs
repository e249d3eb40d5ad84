//! **Fig. 3** — uniform vs curvature-weighted distribution on the
//! `peaks` surface.
//!
//! The paper places 16 nodes with `Rc = 30` on Matlab's `peaks(100)`
//! surface and contrasts the uniform grid (Fig. 3(b)) with the
//! curvature-weighted distribution (Fig. 3(c)), arguing that CWD
//! "outlines the surface obviously more clear". This harness builds
//! both configurations — CWD via the global-information relaxation of
//! Eqns. 9–10 — and quantifies the claim with δ and total curvature.

use cps_core::osd::baselines::uniform_grid_deployment;
use cps_core::ostd::cwd::{cwd_metrics, relax_to_cwd};
use cps_core::ostd::gaussian_curvature_at;
use cps_core::{CpsConfig, DeltaEvaluator};
use cps_field::PeaksField;
use cps_geometry::{GridSpec, Rect};
use cps_viz::ascii_scatter;

fn main() {
    let region = Rect::square(100.0).unwrap();
    let field = PeaksField::new(region, 8.0);
    let grid = GridSpec::new(region, 101, 101).unwrap();
    let cfg = CpsConfig::builder()
        .comm_radius(30.0)
        .beta(1.0)
        .build()
        .unwrap();

    let uniform = uniform_grid_deployment(region, 16);
    let cwd =
        relax_to_cwd(&field, region, uniform.clone(), &cfg, 120, 2.0).expect("relaxation succeeds");

    let curvature = |pts: &[cps_geometry::Point2]| -> Vec<f64> {
        pts.iter()
            .map(|&p| gaussian_curvature_at(&field, p, 1.0).unwrap_or(0.0))
            .collect()
    };

    println!("=== Fig. 3: 16 nodes on peaks(100), Rc = 30 ===");
    for (name, pts) in [("uniform (Fig. 3b)", &uniform), ("CWD (Fig. 3c)", &cwd)] {
        let eval = DeltaEvaluator::new(&field, &grid, cfg.comm_radius())
            .evaluate(pts)
            .expect("evaluation succeeds");
        let curv = curvature(pts);
        let metrics = cwd_metrics(pts, &curv, cfg.comm_radius()).expect("metrics");
        println!("\n--- {name} ---");
        println!("{}", ascii_scatter(pts, region, 50, 20).expect("render"));
        println!(
            "delta = {:.1}   connected = {}   total |G| = {:.4}   balance residual mean/max = {:.3}/{:.3}",
            eval.delta,
            eval.connected,
            metrics.total_curvature,
            metrics.mean_balance_residual,
            metrics.max_balance_residual
        );
    }
    let evaluator = DeltaEvaluator::new(&field, &grid, cfg.comm_radius());
    let u = evaluator.evaluate(&uniform).unwrap();
    let c = evaluator.evaluate(&cwd).unwrap();
    let cu = curvature(&uniform).iter().map(|g| g.abs()).sum::<f64>();
    let cc = curvature(&cwd).iter().map(|g| g.abs()).sum::<f64>();
    println!(
        "\nCWD raises the Eqn. 10 objective (total |G|) by {:.1}x over uniform — the",
        cc / cu
    );
    println!("nodes outline the surface features, as in the paper's Fig. 3(c).");
    println!(
        "delta changes by {:+.1}% (16 point samples are too few for peaks either way).",
        100.0 * (c.delta - u.delta) / u.delta
    );
}
