//! Property tests on the foresighted refinement algorithm.

use cps_core::osd::FraBuilder;
use cps_core::DeltaEvaluator;
use cps_field::{GaussianBlob, GaussianMixtureField};
use cps_geometry::{GridSpec, Point2, Rect};
use cps_network::UnitDiskGraph;
use proptest::prelude::*;

const SIDE: f64 = 60.0;

/// Random multi-bump fields: 1–4 Gaussians of varying sharpness.
fn field_strategy() -> impl Strategy<Value = GaussianMixtureField> {
    prop::collection::vec(
        (
            5.0f64..55.0,   // cx
            5.0f64..55.0,   // cy
            -10.0f64..25.0, // amplitude (dips allowed)
            2.0f64..10.0,   // sigma
        ),
        1..5,
    )
    .prop_map(|blobs| {
        GaussianMixtureField::new(
            3.0,
            blobs
                .into_iter()
                .map(|(cx, cy, a, s)| GaussianBlob::isotropic(Point2::new(cx, cy), a, s))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the field, FRA returns exactly k in-region positions
    /// forming a connected network, with no duplicates.
    #[test]
    fn fra_output_invariants(
        field in field_strategy(),
        k in 3usize..40,
        rc in 8.0f64..30.0,
    ) {
        let region = Rect::square(SIDE).unwrap();
        let grid = GridSpec::new(region, 31, 31).unwrap();
        let result = FraBuilder::new(k, rc).grid(grid).run(&field).unwrap();
        prop_assert_eq!(result.positions.len(), k);
        prop_assert_eq!(result.refined + result.relays, k);
        prop_assert!(result.positions.iter().all(|p| region.contains(*p)));
        for i in 0..k {
            for j in i + 1..k {
                prop_assert!(
                    result.positions[i].distance(result.positions[j]) > 1e-9,
                    "duplicate positions at {} and {}", i, j
                );
            }
        }
        let graph = UnitDiskGraph::new(result.positions.clone(), rc).unwrap();
        prop_assert!(graph.is_connected(), "{} components", graph.component_count());
    }

    /// FRA is deterministic: same inputs, same plan.
    #[test]
    fn fra_is_deterministic(field in field_strategy()) {
        let region = Rect::square(SIDE).unwrap();
        let grid = GridSpec::new(region, 31, 31).unwrap();
        let a = FraBuilder::new(15, 12.0).grid(grid).run(&field).unwrap();
        let b = FraBuilder::new(15, 12.0).grid(grid).run(&field).unwrap();
        prop_assert_eq!(a.positions, b.positions);
    }

    /// With a generous radius (no relay tax), greedy refinement is
    /// never catastrophically worse than the value-blind uniform grid
    /// — a bounded-regression guard (greedy is a heuristic; it loses
    /// to uniform on some adversarial draws, but only by a bounded
    /// factor).
    #[test]
    fn fra_with_loose_radius_is_competitive_with_uniform(field in field_strategy()) {
        let region = Rect::square(SIDE).unwrap();
        let grid = GridSpec::new(region, 31, 31).unwrap();
        let k = 25;
        let fra = FraBuilder::new(k, 100.0).grid(grid).run(&field).unwrap();
        let evaluator = DeltaEvaluator::new(&field, &grid, 100.0);
        let fe = evaluator.evaluate(&fra.positions).unwrap();
        let uniform = cps_core::osd::baselines::uniform_grid_deployment(region, k);
        let ue = evaluator.evaluate(&uniform).unwrap();
        prop_assert!(
            fe.delta <= 2.0 * ue.delta + 1e-6,
            "fra {} vs uniform {}", fe.delta, ue.delta
        );
    }
}
