//! **Ablation** — non-convex ("concave") surfaces.
//!
//! The paper assumes a convex virtual surface and names concave cases
//! as future work (Section 7). This ablation runs FRA and the random
//! baseline on a strongly oscillating ridge field — every assumption
//! about a single dominant curvature sign is violated — to check the
//! algorithms degrade gracefully rather than break.

use cps_core::osd::{baselines, FraBuilder};
use cps_core::DeltaEvaluator;
use cps_field::RidgeField;
use cps_geometry::{GridSpec, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let region = Rect::square(100.0).unwrap();
    let field = RidgeField::new(10.0, 33.0, 41.0);
    let grid = GridSpec::new(region, 101, 101).unwrap();

    println!("=== Ablation: non-convex ridge surface (Rc = 10) ===");
    println!("{:>5} {:>12} {:>12} {:>8}", "k", "fra", "random", "ratio");
    for k in [20usize, 50, 100, 150] {
        let fra = FraBuilder::new(k, 10.0)
            .grid(grid)
            .run(&field)
            .expect("FRA succeeds on non-convex input");
        let evaluator = DeltaEvaluator::new(&field, &grid, 10.0);
        let fe = evaluator.evaluate(&fra.positions).expect("evaluation");
        assert!(
            fe.connected,
            "FRA must stay connected even on concave fields"
        );

        let mut sum = 0.0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = baselines::random_deployment(region, k, &mut rng);
            sum += evaluator.evaluate(&pts).expect("evaluation").delta;
        }
        let random = sum / 5.0;
        println!(
            "{k:>5} {:>12.1} {random:>12.1} {:>8.2}",
            fe.delta,
            fe.delta / random
        );
    }
    println!("\nno panics, connectivity holds: the pipeline degrades gracefully on");
    println!("surfaces that violate the paper's convexity assumption.");
}
