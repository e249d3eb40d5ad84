//! Integration: FRA's local error is integrated by the locate-mode
//! raster sweep, which must pick exactly the deployment the per-cell
//! triangle walk picks. The walk's deployment is recorded in
//! `goldens/fra_peaks_k30_walk.csv` (peaks field, k = 30, r_c = 10,
//! 51×51 grid; coordinates printed with `{:?}`, so they parse back
//! bit-exactly).

use cps::core::osd::FraBuilder;
use cps::core::EvalOptions;
use cps::field::{Parallelism, PeaksField};
use cps::geometry::{GridSpec, Point2, Rect};

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
