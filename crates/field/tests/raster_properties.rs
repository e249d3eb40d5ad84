//! Property tests for the rasterized δ-quadrature kernel: on arbitrary
//! triangulations — slivers and mostly-exterior grids included — the
//! scanline kernel must (i) agree with the per-cell walk quadrature
//! (`volume_difference_with` + `rms_difference_with`, kept as the
//! oracle) within 1e-9 and (ii) stay **bit-identical** to itself across
//! thread counts.

use cps_field::delta::{rms_difference_with, volume_difference_with};
use cps_field::raster::delta_rms_raster;
use cps_field::{
    DeltaTotals, GaussianBlob, GaussianMixtureField, Parallelism, ReconstructedSurface,
};
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

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// The per-cell locate-walk pair the raster kernel is checked against.
fn walk_totals(
    f: &GaussianMixtureField,
    surface: &ReconstructedSurface,
    grid: &GridSpec,
    par: Parallelism,
) -> DeltaTotals {
    DeltaTotals {
        delta: volume_difference_with(f, surface, grid, par),
        rms: rms_difference_with(f, surface, grid, par),
    }
}

fn surface_from(f: &GaussianMixtureField, points: &[(f64, f64)]) -> Option<ReconstructedSurface> {
    let positions: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
    let samples: Vec<f64> = positions
        .iter()
        .map(|&p| cps_field::Field::value(f, p))
        .collect();
    ReconstructedSurface::from_samples(region(), &positions, &samples).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline guarantee: on arbitrary scattered triangulations
    /// the raster kernel reproduces the walk's δ and RMS within 1e-9,
    /// at any thread count, and is bit-identical to its own serial run.
    #[test]
    fn raster_agrees_with_walk_on_random_triangulations(
        f in blobs_strategy(),
        points in prop::collection::vec((0.5..9.5f64, 0.5..9.5f64), 5..25),
        nx in 23..47usize,
        ny in 23..47usize,
    ) {
        let Some(surface) = surface_from(&f, &points) else { return Ok(()) };
        let grid = GridSpec::new(region(), nx, ny).unwrap();
        let serial = Parallelism::serial();
        let walk = walk_totals(&f, &surface, &grid, serial);
        let raster = delta_rms_raster(&f, &surface, &grid, serial);
        prop_assert!(close(raster.delta, walk.delta), "delta: raster {} walk {}", raster.delta, walk.delta);
        prop_assert!(close(raster.rms, walk.rms), "rms: raster {} walk {}", raster.rms, walk.rms);
        for threads in [1usize, 2, 8] {
            let r = delta_rms_raster(&f, &surface, &grid, Parallelism::fixed(threads));
            prop_assert_eq!(r.delta.to_bits(), raster.delta.to_bits(), "raster delta at {} threads", threads);
            prop_assert_eq!(r.rms.to_bits(), raster.rms.to_bits(), "raster rms at {} threads", threads);
        }
    }

    /// Sliver triangulations: nearly collinear clusters produce
    /// degenerate triangles whose plane gradients blow up; those
    /// triangles must fall back to the walk path without breaking the
    /// 1e-9 agreement.
    #[test]
    fn raster_survives_sliver_triangulations(
        f in blobs_strategy(),
        line in prop::collection::vec(0.5..9.5f64, 4..10),
        jitter in prop::collection::vec(-1e-9..1e-9f64, 10),
        off in (0.5..9.5f64, 0.5..9.5f64),
    ) {
        // Most points hug the diagonal within ±1e-9; two anchors off
        // the line keep the hull two-dimensional.
        let mut points: Vec<(f64, f64)> = line
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, x + jitter[i % jitter.len()]))
            .collect();
        points.push(off);
        points.push((9.5 - off.0, off.1));
        let Some(surface) = surface_from(&f, &points) else { return Ok(()) };
        let grid = GridSpec::new(region(), 31, 29).unwrap();
        let serial = Parallelism::serial();
        let walk = walk_totals(&f, &surface, &grid, serial);
        let raster = delta_rms_raster(&f, &surface, &grid, serial);
        prop_assert!(close(raster.delta, walk.delta), "delta: raster {} walk {}", raster.delta, walk.delta);
        prop_assert!(close(raster.rms, walk.rms), "rms: raster {} walk {}", raster.rms, walk.rms);
    }

    /// Hull-exterior cells: with every sample confined to a small
    /// interior box most of the grid falls outside the hull, so the
    /// raster scratch stays NaN there and the extrapolation fallback
    /// must reproduce the walk's values.
    #[test]
    fn raster_agrees_where_most_cells_are_outside_the_hull(
        f in blobs_strategy(),
        points in prop::collection::vec((4.0..6.0f64, 4.0..6.0f64), 3..8),
        threads in 1..9usize,
    ) {
        let Some(surface) = surface_from(&f, &points) else { return Ok(()) };
        let grid = GridSpec::new(region(), 41, 41).unwrap();
        let par = Parallelism::fixed(threads);
        let walk = walk_totals(&f, &surface, &grid, par);
        let raster = delta_rms_raster(&f, &surface, &grid, par);
        prop_assert!(close(raster.delta, walk.delta), "delta: raster {} walk {}", raster.delta, walk.delta);
        prop_assert!(close(raster.rms, walk.rms), "rms: raster {} walk {}", raster.rms, walk.rms);
    }
}
