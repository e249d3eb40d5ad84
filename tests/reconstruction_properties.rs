//! Property tests on the reconstruction + δ pipeline, across crates.

use cps::field::{
    delta, Field, GaussianBlob, GaussianMixtureField, Parallelism, ReconstructedSurface,
};
use cps::geometry::{GridSpec, Point2, Rect};
use proptest::prelude::*;

const SIDE: f64 = 50.0;

fn positions_strategy() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((1u32..=99, 1u32..=99), 4..25).prop_map(|raw| {
        let mut v: Vec<(u32, u32)> = raw;
        v.sort_unstable();
        v.dedup();
        v.into_iter()
            .map(|(i, j)| Point2::new(f64::from(i) * 0.5, f64::from(j) * 0.5))
            .collect()
    })
}

fn bumpy_field() -> GaussianMixtureField {
    GaussianMixtureField::new(
        3.0,
        vec![
            GaussianBlob::isotropic(Point2::new(15.0, 35.0), 10.0, 5.0),
            GaussianBlob::isotropic(Point2::new(35.0, 15.0), -4.0, 7.0),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rebuilt surface passes exactly through every sample.
    #[test]
    fn reconstruction_interpolates_its_samples(positions in positions_strategy()) {
        prop_assume!(positions.len() >= 3);
        let region = Rect::square(SIDE).unwrap();
        let field = bumpy_field();
        let samples: Vec<f64> = positions.iter().map(|&p| field.value(p)).collect();
        let surface = ReconstructedSurface::from_samples(region, &positions, &samples).unwrap();
        for (&p, &z) in positions.iter().zip(&samples) {
            prop_assert!((surface.value(p) - z).abs() < 1e-6, "at {p}: {} vs {z}", surface.value(p));
        }
    }

    /// δ of a surface against itself is exactly zero, and against the
    /// reference it is non-negative and finite.
    #[test]
    fn delta_axioms(positions in positions_strategy()) {
        prop_assume!(positions.len() >= 3);
        let region = Rect::square(SIDE).unwrap();
        let grid = GridSpec::new(region, 26, 26).unwrap();
        let field = bumpy_field();
        let samples: Vec<f64> = positions.iter().map(|&p| field.value(p)).collect();
        let surface = ReconstructedSurface::from_samples(region, &positions, &samples).unwrap();
        prop_assert_eq!(delta::volume_difference_with(&surface, &surface, &grid, Parallelism::serial()), 0.0);
        let d = delta::volume_difference_with(&field, &surface, &grid, Parallelism::serial());
        prop_assert!(d.is_finite() && d >= 0.0);
        // Theorem 3.1: union − intersection == ∬|f − g|.
        let u = delta::union_volume_with(&field, &surface, &grid, Parallelism::serial());
        let i = delta::intersection_volume_with(&field, &surface, &grid, Parallelism::serial());
        prop_assert!((u - i - d).abs() < 1e-6);
    }

    /// Adding the grid points of the evaluation grid as samples drives
    /// δ towards zero (denser sampling can't hurt on this smooth field).
    #[test]
    fn denser_sampling_does_not_hurt(seed_positions in positions_strategy()) {
        prop_assume!(seed_positions.len() >= 3);
        let region = Rect::square(SIDE).unwrap();
        let grid = GridSpec::new(region, 26, 26).unwrap();
        let field = bumpy_field();

        let sparse_samples: Vec<f64> = seed_positions.iter().map(|&p| field.value(p)).collect();
        let sparse = ReconstructedSurface::from_samples(region, &seed_positions, &sparse_samples).unwrap();
        let d_sparse = delta::volume_difference_with(&field, &sparse, &grid, Parallelism::serial());

        // Dense: every grid point is a sample → reconstruction error at
        // grid points is zero, so δ collapses to quadrature noise.
        let dense_positions: Vec<Point2> = grid.iter().map(|(_, _, p)| p).collect();
        let dense_samples: Vec<f64> = dense_positions.iter().map(|&p| field.value(p)).collect();
        let dense = ReconstructedSurface::from_samples(region, &dense_positions, &dense_samples).unwrap();
        let d_dense = delta::volume_difference_with(&field, &dense, &grid, Parallelism::serial());

        prop_assert!(d_dense <= d_sparse + 1e-9, "dense {d_dense} vs sparse {d_sparse}");
        prop_assert!(d_dense < 1e-6, "dense sampling should nearly eliminate delta, got {d_dense}");
    }
}
