//! **Ablation** — FRA's foresight step.
//!
//! FRA reserves budget for connectivity *during* refinement (Table 1
//! lines 5–8). The naive alternative refines greedily with no
//! connectivity plan and repairs afterwards. This ablation compares:
//!
//! * **foresighted** — FRA as published: exactly `k` nodes, connected
//!   by construction;
//! * **naive repair** — `k` pure-greedy picks, then as many relays as
//!   connectivity needs *on top* (budget overrun);
//! * **naive truncated** — pure-greedy picks cut back until picks +
//!   repair relays fit in `k` (a fair same-budget comparison).

use cps_bench::{eval_grid, paper_dataset, reference_light_surface, PAPER_RC};
use cps_core::osd::FraBuilder;
use cps_core::DeltaEvaluator;
use cps_geometry::Point2;
use cps_network::{RelayPlan, UnitDiskGraph};

/// Pure greedy refinement: FRA with a communication radius so large
/// that the foresight step never activates.
fn greedy_positions(
    reference: &cps_field::GridField,
    grid: cps_geometry::GridSpec,
    k: usize,
) -> Vec<Point2> {
    FraBuilder::new(k, 1e6)
        .grid(grid)
        .run(reference)
        .expect("greedy run succeeds")
        .positions
}

fn repair(positions: &[Point2]) -> Vec<Point2> {
    let graph = UnitDiskGraph::new(positions.to_vec(), PAPER_RC).expect("graph");
    let plan = RelayPlan::for_graph(&graph);
    let mut all = positions.to_vec();
    all.extend_from_slice(plan.relays());
    all
}

fn main() {
    let dataset = paper_dataset();
    let reference = reference_light_surface(&dataset);
    let grid = eval_grid();

    println!("=== Ablation: FRA foresight vs naive post-hoc repair (Rc = 10) ===");
    println!(
        "{:>5} {:>14} {:>20} {:>22}",
        "k", "foresighted", "naive repair (cost)", "naive truncated (k)"
    );
    for k in [30usize, 60, 100, 150] {
        let fra = FraBuilder::new(k, PAPER_RC)
            .grid(grid)
            .run(&reference)
            .expect("FRA succeeds");
        let evaluator = DeltaEvaluator::new(&reference, &grid, PAPER_RC);
        let fe = evaluator.evaluate(&fra.positions).expect("evaluation");

        // Naive with overrun: k greedy picks + however many relays.
        let greedy = greedy_positions(&reference, grid, k);
        let repaired = repair(&greedy);
        let re = evaluator.evaluate(&repaired).expect("evaluation");

        // Naive truncated to the same budget: shrink the greedy pick
        // count until picks + repair relays fit within k (damped steps;
        // at least 3 picks so the reconstruction stays defined).
        let mut g = k;
        let truncated = loop {
            let picks = greedy_positions(&reference, grid, g);
            let fixed = repair(&picks);
            if fixed.len() <= k || g <= 3 {
                break fixed;
            }
            let over = fixed.len() - k;
            g = g.saturating_sub(over.div_ceil(2).max(1)).max(3);
        };
        let te = evaluator.evaluate(&truncated).expect("evaluation");

        println!(
            "{k:>5} {:>14.1} {:>12.1} ({:>4}) {:>14.1} ({:>4})",
            fe.delta,
            re.delta,
            repaired.len(),
            te.delta,
            truncated.len()
        );
    }
    println!("\nforesight meets the budget exactly; naive repair overruns it, and");
    println!("truncating the naive plan back to budget shows the foresight benefit.");
}
