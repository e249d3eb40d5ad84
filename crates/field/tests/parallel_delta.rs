//! Property tests for the parallel evaluation engine: every quadrature
//! must be **bit-identical** under any thread policy to its
//! [`Parallelism::serial`] result, for arbitrary fields, grid shapes,
//! and thread counts.

use cps_field::delta::{intersection_volume_with, union_volume_with, volume_difference_with};
use cps_field::{Field, GaussianBlob, GaussianMixtureField, Parallelism, ReconstructedSurface};
use cps_geometry::{GridSpec, Point2, Rect};
use proptest::prelude::*;

const SIDE: f64 = 10.0;

fn region() -> Rect {
    Rect::square(SIDE).unwrap()
}

/// Random Gaussian-mixture fields: smooth but spatially busy.
fn blobs_strategy() -> impl Strategy<Value = GaussianMixtureField> {
    prop::collection::vec((0.5..9.5f64, 0.5..9.5f64, 0.5..3.0f64, -4.0..4.0f64), 1..5).prop_map(
        |blobs| {
            GaussianMixtureField::new(
                0.5,
                blobs
                    .into_iter()
                    .map(|(x, y, sigma, amp)| {
                        GaussianBlob::isotropic(Point2::new(x, y), sigma, amp)
                    })
                    .collect(),
            )
        },
    )
}

/// Random odd-shaped grids (non-square on purpose: row sharding must
/// not assume nx == ny).
fn grid_strategy() -> impl Strategy<Value = GridSpec> {
    (2..40usize, 2..40usize).prop_map(|(nx, ny)| GridSpec::new(region(), nx, ny).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole determinism guarantee: δ computed in parallel is
    /// bit-for-bit the serial δ, for every thread count.
    #[test]
    fn parallel_volume_difference_is_bit_identical(
        f in blobs_strategy(),
        g in blobs_strategy(),
        grid in grid_strategy(),
        threads in 1..9usize,
    ) {
        let serial = volume_difference_with(&f, &g, &grid, Parallelism::serial());
        let parallel = volume_difference_with(&f, &g, &grid, Parallelism::fixed(threads));
        prop_assert_eq!(serial.to_bits(), parallel.to_bits());
        // Auto must agree too, whatever the machine's core count is.
        let auto = volume_difference_with(&f, &g, &grid, Parallelism::auto());
        prop_assert_eq!(serial.to_bits(), auto.to_bits());
    }

    /// Union/intersection quadratures share the same engine and must
    /// share the same guarantee (Theorem 3.1 link: u − i == δ).
    #[test]
    fn parallel_union_and_intersection_are_bit_identical(
        f in blobs_strategy(),
        g in blobs_strategy(),
        threads in 1..9usize,
    ) {
        let grid = GridSpec::new(region(), 33, 21).unwrap();
        let par = Parallelism::fixed(threads);
        prop_assert_eq!(
            union_volume_with(&f, &g, &grid, Parallelism::serial()).to_bits(),
            union_volume_with(&f, &g, &grid, par).to_bits()
        );
        prop_assert_eq!(
            intersection_volume_with(&f, &g, &grid, Parallelism::serial()).to_bits(),
            intersection_volume_with(&f, &g, &grid, par).to_bits()
        );
    }

    /// The reconstruction surface is the paper's hot consumer: its
    /// point-location cache must not break determinism when evaluated
    /// from many threads.
    #[test]
    fn parallel_delta_against_reconstruction_is_bit_identical(
        f in blobs_strategy(),
        rows in prop::collection::vec((0.5..9.5f64, 0.5..9.5f64), 8..20),
        threads in 1..9usize,
    ) {
        let positions: Vec<Point2> = region()
            .corners()
            .into_iter()
            .chain(rows.into_iter().map(|(x, y)| Point2::new(x, y)))
            .collect();
        let samples: Vec<f64> = positions.iter().map(|&p| f.value(p)).collect();
        let surf = ReconstructedSurface::from_samples(region(), &positions, &samples).unwrap();
        let grid = GridSpec::new(region(), 41, 41).unwrap();
        let serial = volume_difference_with(&f, &surf, &grid, Parallelism::serial());
        let parallel = volume_difference_with(&f, &surf, &grid, Parallelism::fixed(threads));
        prop_assert_eq!(serial.to_bits(), parallel.to_bits());
    }
}
