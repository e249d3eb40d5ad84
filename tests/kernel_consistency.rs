//! Integration: the raster kernel against the per-cell triangle walk
//! it replaced. FRA's local error is integrated by the locate-mode
//! raster sweep, which must pick exactly the deployment the walk
//! picks, and the δ quadrature must agree with the walk pair. The
//! walk's deployment is recorded in `goldens/fra_peaks_k30_walk.csv`
//! (peaks field, k = 30, r_c = 10, 51×51 grid; coordinates printed
//! with `{:?}`, so they parse back bit-exactly).

use cps::core::osd::{baselines, FraBuilder};
use cps::core::EvalOptions;
use cps::field::par::AUTO_SERIAL_CUTOFF;
use cps::field::raster::delta_rms_raster;
use cps::field::{delta, Field, Parallelism, PeaksField, ReconstructedSurface};
use cps::geometry::{GridSpec, Point2, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn region() -> Rect {
    Rect::square(100.0).unwrap()
}

fn grid() -> GridSpec {
    GridSpec::new(region(), 51, 51).unwrap()
}

/// The load-bearing guarantee of the raster path: FRA's greedy
/// refinement — argmax choices, relay placement, everything — picks the
/// walk's deployment bit for bit, at every thread count.
#[test]
fn fra_deployments_are_identical_across_kernels() {
    let walk: Vec<Point2> = include_str!("goldens/fra_peaks_k30_walk.csv")
        .lines()
        .skip(1)
        .map(|line| {
            let (x, y) = line.split_once(',').unwrap();
            Point2::new(x.parse().unwrap(), y.parse().unwrap())
        })
        .collect();
    assert_eq!(walk.len(), 30);
    let f = PeaksField::new(region(), 8.0);
    for threads in [1usize, 2, 8] {
        let raster = FraBuilder::new(30, 10.0)
            .grid(grid())
            .evaluator(EvalOptions::new().parallelism(Parallelism::fixed(threads)))
            .run(&f)
            .unwrap();
        assert_eq!(
            raster.positions, walk,
            "raster diverged from the walk at {threads} threads"
        );
        assert_eq!((raster.refined, raster.relays), (8, 22));
    }
}

/// The δ quadrature's two integrators on a Delaunay reconstruction
/// (`PeaksField`, 150 random nodes, seed 5): the raster kernel's δ and
/// RMS stay within 1e-9 of the per-cell walk pair and are bitwise
/// equal at every thread policy. Both grids have at least
/// `AUTO_SERIAL_CUTOFF` rows, so `auto` shards them across every core.
#[test]
fn raster_delta_matches_the_walk_and_every_policy_on_large_grids() {
    let f = PeaksField::new(region(), 8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let nodes = baselines::random_deployment(region(), 150, &mut rng);
    let samples: Vec<f64> = nodes.iter().map(|&p| f.value(p)).collect();
    let g = ReconstructedSurface::from_samples(region(), &nodes, &samples).unwrap();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    for resolution in [101usize, 201] {
        assert!(resolution >= AUTO_SERIAL_CUTOFF);
        let grid = GridSpec::new(region(), resolution, resolution).unwrap();
        let serial = Parallelism::serial();
        let raster = delta_rms_raster(&f, &g, &grid, serial);
        let walk_delta = delta::volume_difference_with(&f, &g, &grid, serial);
        let walk_rms = delta::rms_difference_with(&f, &g, &grid, serial);
        assert!(
            close(raster.delta, walk_delta) && close(raster.rms, walk_rms),
            "{resolution}²: raster ({}, {}) vs walk ({walk_delta}, {walk_rms})",
            raster.delta,
            raster.rms
        );
        for par in [
            Parallelism::fixed(2),
            Parallelism::fixed(4),
            Parallelism::auto(),
        ] {
            let got = delta_rms_raster(&f, &g, &grid, par);
            assert_eq!(
                (got.delta.to_bits(), got.rms.to_bits()),
                (raster.delta.to_bits(), raster.rms.to_bits()),
                "{resolution}²: {par:?} diverged from serial"
            );
        }
    }
}
