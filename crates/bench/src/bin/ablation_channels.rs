//! **Extension** — generality across environmental channels.
//!
//! The paper evaluates on light; its motivation also names temperature
//! and humidity. This ablation runs the Fig. 7 comparison (FRA vs
//! random at the paper's budget sweet spot) on all three channels of
//! the synthetic trace.

use cps_bench::{eval_grid, paper_dataset, paper_region, PAPER_RC};
use cps_core::osd::{baselines, FraBuilder};
use cps_core::DeltaEvaluator;
use cps_greenorbs::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dataset = paper_dataset();
    let grid = eval_grid();
    let region = paper_region();
    let k = 80;

    println!("=== Extension: FRA vs random across channels (k = {k}, Rc = 10) ===");
    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>10}",
        "channel", "fra", "random", "ratio", "connected"
    );
    for channel in Channel::ALL {
        let reference = dataset
            .region_field(region, channel, 10, 101)
            .expect("surface extraction succeeds");
        let fra = FraBuilder::new(k, PAPER_RC)
            .grid(grid)
            .run(&reference)
            .expect("FRA succeeds");
        let evaluator = DeltaEvaluator::new(&reference, &grid, PAPER_RC);
        let fe = evaluator
            .evaluate(&fra.positions)
            .expect("evaluation succeeds");
        let mut sum = 0.0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = baselines::random_deployment(region, k, &mut rng);
            sum += evaluator.evaluate(&pts).expect("evaluation succeeds").delta;
        }
        let random = sum / 5.0;
        println!(
            "{:<14} {:>12.1} {random:>12.1} {:>8.2} {:>10}",
            channel.to_string(),
            fe.delta,
            fe.delta / random,
            fe.connected
        );
    }
    println!("\nhumidity/temperature are smoother than light, so both methods do");
    println!("better in absolute terms — and FRA keeps its relative advantage.");
}
