//! **Fig. 7** — δ versus node budget `k`: FRA against random
//! deployment.
//!
//! The paper sweeps `k` from 1 to 200 at `Rc = 10` and reports that FRA
//! clearly beats random deployment until both flatten once coverage
//! saturates (`k ≥ 125`). This harness sweeps the same range (from
//! `k = 4`, the smallest budget the reconstruction accepts on every
//! seed), averaging the random baseline over five seeds.

use cps_bench::{eval_grid, output_dir, paper_dataset, reference_light_surface, PAPER_RC};
use cps_core::osd::{baselines, FraBuilder};
use cps_core::DeltaEvaluator;
use cps_viz::write_xy_series;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;

const RANDOM_SEEDS: u64 = 5;

fn main() {
    let dataset = paper_dataset();
    let reference = reference_light_surface(&dataset);
    let grid = eval_grid();
    let region = grid.rect();

    println!("=== Fig. 7: delta vs k (FRA vs random), Rc = 10 ===");
    println!(
        "{:>5} {:>12} {:>12} {:>8} {:>7} {:>7}",
        "k", "fra", "random", "ratio", "refine", "relay"
    );

    let ks = [
        4usize, 5, 10, 15, 20, 25, 30, 40, 50, 60, 75, 90, 100, 110, 125, 150, 175, 200,
    ];
    let mut rows = Vec::new();
    for &k in &ks {
        let fra = FraBuilder::new(k, PAPER_RC)
            .grid(grid)
            .run(&reference)
            .expect("FRA succeeds");
        let evaluator = DeltaEvaluator::new(&reference, &grid, PAPER_RC);
        let fe = evaluator
            .evaluate(&fra.positions)
            .expect("FRA evaluation succeeds");

        let mut sum = 0.0;
        let mut count = 0usize;
        for seed in 0..RANDOM_SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = baselines::random_deployment(region, k, &mut rng);
            if let Ok(e) = evaluator.evaluate(&pts) {
                sum += e.delta;
                count += 1;
            }
        }
        let random = sum / count as f64;
        println!(
            "{k:>5} {:>12.1} {random:>12.1} {:>8.2} {:>7} {:>7}",
            fe.delta,
            fe.delta / random,
            fra.refined,
            fra.relays
        );
        rows.push((k as f64, vec![fe.delta, random]));
    }

    let dir = output_dir();
    let file = File::create(dir.join("fig7_delta_vs_k.csv")).expect("create csv");
    write_xy_series(file, "k", &["fra", "random"], &rows).expect("write csv");
    println!("\nwrote {}/fig7_delta_vs_k.csv", dir.display());
    println!("expected shape: FRA well below random for mid k; both flatten at high k.");
}
