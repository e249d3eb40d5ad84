//! NP-hardness companion (Theorem 4.1): OSD admits no efficient exact
//! algorithm, so FRA is a heuristic — on instances tiny enough to brute
//! force, its approximation quality can be measured directly.

use cps::core::osd::FraBuilder;
use cps::core::DeltaEvaluator;
use cps::field::{Field, GaussianBlob, GaussianMixtureField};
use cps::geometry::{GridSpec, Point2, Rect};

/// Brute-force optimum: δ over every way to choose `k` positions from
/// the candidate grid that yields a connected deployment.
fn brute_force_best(
    field: &(impl Field + Sync),
    candidates: &[Point2],
    k: usize,
    rc: f64,
    grid: &GridSpec,
) -> f64 {
    assert!(k == 3, "the exhaustive search is written for k = 3");
    let evaluator = DeltaEvaluator::new(field, grid, rc);
    let mut best = f64::INFINITY;
    let n = candidates.len();
    for a in 0..n {
        for b in a + 1..n {
            for c in b + 1..n {
                let pts = [candidates[a], candidates[b], candidates[c]];
                if let Ok(eval) = evaluator.evaluate(&pts) {
                    if eval.connected {
                        best = best.min(eval.delta);
                    }
                }
            }
        }
    }
    best
}

#[test]
fn fra_is_near_optimal_on_a_brute_forcible_instance() {
    // A 20×20 region with one off-centre bump; candidates on a 5×5
    // grid (25 choose 3 = 2300 subsets).
    let region = Rect::square(20.0).unwrap();
    let field = GaussianMixtureField::new(
        1.0,
        vec![GaussianBlob::isotropic(Point2::new(13.0, 7.0), 8.0, 3.0)],
    );
    let eval_grid_spec = GridSpec::new(region, 21, 21).unwrap();
    let candidate_grid = GridSpec::new(region, 5, 5).unwrap();
    let candidates: Vec<Point2> = candidate_grid.iter().map(|(_, _, p)| p).collect();

    let rc = 12.0;
    let optimal = brute_force_best(&field, &candidates, 3, rc, &eval_grid_spec);
    assert!(optimal.is_finite());

    // FRA on the same candidate grid.
    let fra = FraBuilder::new(3, rc)
        .grid(candidate_grid)
        .run(&field)
        .unwrap();
    let fra_eval = DeltaEvaluator::new(&field, &eval_grid_spec, rc)
        .evaluate(&fra.positions)
        .unwrap();
    assert!(fra_eval.connected);

    // The greedy heuristic will not always match the optimum, but on a
    // single-feature instance it must land within a small factor.
    assert!(
        fra_eval.delta <= 2.0 * optimal,
        "FRA {:.2} vs optimal {:.2}",
        fra_eval.delta,
        optimal
    );
}
