//! Metamorphic properties of the `cps plan` path and of δ itself.
//!
//! Scaling every light reading by a power of two `c` scales the
//! reference surface by `c`, leaves FRA's placements unchanged and
//! scales δ by `c` — all bit for bit, at a sharded thread policy.
//!
//! δ and RMS, through both the raster path (`DeltaEvaluator`) and the
//! walk pair (`volume_difference_with`, `rms_difference_with`), and at
//! the serial, two-thread and auto policies: are never negative; are 0
//! up to rounding for a plane rebuilt over a hull that covers the grid;
//! and, with connectivity, do not depend on the order of the nodes —
//! so far only for nodes inserted inside the hull (see
//! `reordering_any_nodes_keeps_delta_rms_and_connectivity`) — nor,
//! up to rounding, on translating the region, the field and the nodes
//! together.
//!
//! # Why the scaling relations are exact
//!
//! Multiplying a double by `c = 2ᵉ` only moves its exponent. While
//! nothing overflows or sinks into the subnormal range, every rounded
//! product and partial sum therefore scales exactly:
//! `fl(c·a + c·b) = c·fl(a + b)` and `fl(c·a · w) = c·fl(a · w)`.
//!
//! * **Reference surface.** The kernel smoother's numerator `Σ w·z`
//!   scales by `c` term by term, its denominator `Σ w` does not change,
//!   and the pruning floor on the numerator is proportional to the
//!   largest reading, so the pruned sum stops at the same index. The
//!   quotient scales by `c`, and so does the nearest-reading fallback.
//! * **Placements.** A local error `|f − DT|` is a difference of the
//!   scaled reference and a barycentric combination of scaled samples,
//!   so it scales by `c`. Scaling by a positive constant keeps every
//!   comparison, ties and NaN rule included, so the argmax order is
//!   unchanged; the foresight relay plans read positions only.
//! * **δ.** The quadrature sums `c·|f − DT|` with unscaled weights, and
//!   RMS takes the square root of a sum scaled by `c²`, itself a power
//!   of two.

use cps::core::osd::FraBuilder;
use cps::core::{analyze_deployment_with, DeltaEvaluator, DeploymentReport, EvalOptions};
use cps::field::{
    delta, Field, GaussianBlob, GaussianMixtureField, GridField, Parallelism, PeaksField,
    PlaneField, ReconstructedSurface,
};
use cps::geometry::{GridSpec, Point2, Rect};
use cps::greenorbs::{Channel, Dataset, ForestConfig, SensorReading, DEFAULT_KERNEL_BANDWIDTH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 80;
const RC: f64 = 10.0;
const SCALES: [f64; 3] = [0.5, 2.0, 8.0];

fn region() -> Rect {
    Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap()
}

fn par() -> Parallelism {
    Parallelism::fixed(2)
}

/// The trace with every light reading multiplied by `c`.
fn scaled(dataset: &Dataset, c: f64) -> Dataset {
    let readings = dataset
        .readings()
        .iter()
        .map(|r| SensorReading {
            light: c * r.light,
            ..*r
        })
        .collect();
    Dataset::from_records(dataset.nodes().to_vec(), readings, dataset.side()).unwrap()
}

/// The `cps plan` path: reference surface, FRA placement, report.
fn plan(dataset: &Dataset, hour: u32) -> (GridField, Vec<Point2>, DeploymentReport) {
    let grid = GridSpec::new(region(), 101, 101).unwrap();
    let reference = dataset
        .region_field_with_bandwidth(
            region(),
            Channel::Light,
            hour,
            101,
            DEFAULT_KERNEL_BANDWIDTH,
            par(),
        )
        .unwrap();
    let positions = FraBuilder::new(K, RC)
        .grid(grid)
        .evaluator(EvalOptions::new().parallelism(par()))
        .run(&reference)
        .unwrap()
        .positions;
    let report = analyze_deployment_with(&reference, &positions, RC, &grid, par()).unwrap();
    (reference, positions, report)
}

fn bits(points: &[Point2]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

#[test]
fn scaling_the_light_readings_scales_the_plan_path_bitwise() {
    for seed in [1, 5, 9] {
        let dataset = Dataset::generate(&ForestConfig {
            seed,
            ..ForestConfig::default()
        });
        for hour in [9, 12] {
            let (reference, positions, report) = plan(&dataset, hour);
            for c in SCALES {
                let case = format!("seed {seed} hour {hour} c {c}");
                let (scaled_reference, scaled_positions, scaled_report) =
                    plan(&scaled(&dataset, c), hour);
                for (k, (&s, &v)) in scaled_reference
                    .values()
                    .iter()
                    .zip(reference.values())
                    .enumerate()
                {
                    assert_eq!(s.to_bits(), (c * v).to_bits(), "{case}: cell {k}");
                }
                assert_eq!(bits(&scaled_positions), bits(&positions), "{case}");
                let (got, want) = (&scaled_report.evaluation, &report.evaluation);
                assert_eq!(got.delta.to_bits(), (c * want.delta).to_bits(), "{case}");
                assert_eq!(got.rms.to_bits(), (c * want.rms).to_bits(), "{case}");
                assert_eq!(got.connected, want.connected, "{case}");
            }
        }
    }
}

// ---- δ itself --------------------------------------------------------

/// The thread policies every δ property is checked at.
fn policies() -> [Parallelism; 3] {
    [
        Parallelism::serial(),
        Parallelism::fixed(2),
        Parallelism::auto(),
    ]
}

/// δ and RMS of one deployment, through the raster path
/// ([`DeltaEvaluator`]) and through the walk pair
/// (`volume_difference_with`, `rms_difference_with`), with the
/// evaluator's connectivity verdict.
struct Measured {
    raster: (f64, f64),
    walk: (f64, f64),
    connected: bool,
}

fn measure<F: Field + Sync>(
    reference: &F,
    positions: &[Point2],
    grid: &GridSpec,
    par: Parallelism,
) -> Measured {
    let eval = DeltaEvaluator::new(reference, grid, RC)
        .parallelism(par)
        .evaluate(positions)
        .unwrap();
    let samples: Vec<f64> = positions.iter().map(|&p| reference.value(p)).collect();
    let surface = ReconstructedSurface::from_samples(grid.rect(), positions, &samples).unwrap();
    Measured {
        raster: (eval.delta, eval.rms),
        walk: (
            delta::volume_difference_with(reference, &surface, grid, par),
            delta::rms_difference_with(reference, &surface, grid, par),
        ),
        connected: eval.connected,
    }
}

/// A random deployment of 5–40 nodes over the region; with `corners`
/// the four region corners lead it, so its hull covers the whole grid.
fn deployment(rng: &mut StdRng, corners: bool) -> Vec<Point2> {
    let r = region();
    let n = rng.gen_range(5..=40usize);
    let lead = if corners {
        r.corners().to_vec()
    } else {
        Vec::new()
    };
    lead.into_iter()
        .chain((0..n).map(|_| {
            Point2::new(
                rng.gen_range(r.min().x..=r.max().x),
                rng.gen_range(r.min().y..=r.max().y),
            )
        }))
        .collect()
}

fn shuffled(rng: &mut StdRng, points: &[Point2]) -> Vec<Point2> {
    let mut v = points.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

fn delta_grid() -> GridSpec {
    GridSpec::new(region(), 41, 41).unwrap()
}

/// Deployments per property.
const CASES: u64 = 24;

#[test]
fn delta_and_rms_are_never_negative() {
    let grid = delta_grid();
    let field = PeaksField::new(region(), 8.0);
    let mut rng = StdRng::seed_from_u64(0xde17a);
    for case in 0..CASES {
        let nodes = deployment(&mut rng, case % 2 == 0);
        for par in policies() {
            let m = measure(&field, &nodes, &grid, par);
            for (name, v) in [
                ("raster δ", m.raster.0),
                ("raster RMS", m.raster.1),
                ("walk δ", m.walk.0),
                ("walk RMS", m.walk.1),
            ] {
                assert!(v >= 0.0, "case {case} {par:?}: {name} = {v}");
            }
        }
    }
}

/// A deployment whose hull covers the grid rebuilds a plane exactly up
/// to rounding: barycentric interpolation reproduces any affine
/// function. δ and RMS are not exactly 0 on every case (the worst seen
/// is about 2e-10 against a bound of 2.5e-6), so they are held to
/// `1e-12 · area · max|f|` for δ and `1e-12 · max|f|` for RMS.
#[test]
fn a_plane_is_rebuilt_with_zero_delta() {
    let grid = delta_grid();
    let area = grid.rect().width() * grid.rect().height();
    let mut rng = StdRng::seed_from_u64(0x91a4e);
    for case in 0..CASES {
        let plane = PlaneField::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-5.0..5.0),
        );
        let peak = grid
            .rect()
            .corners()
            .iter()
            .map(|&p| plane.value(p).abs())
            .fold(0.0, f64::max);
        let nodes = deployment(&mut rng, true);
        for par in policies() {
            let m = measure(&plane, &nodes, &grid, par);
            for delta in [m.raster.0, m.walk.0] {
                assert!(
                    delta <= 1e-12 * area * peak,
                    "case {case} {par:?}: δ = {delta}"
                );
            }
            for rms in [m.raster.1, m.walk.1] {
                assert!(rms <= 1e-12 * peak, "case {case} {par:?}: RMS = {rms}");
            }
        }
    }
}

/// δ, RMS and connectivity of `nodes` against those of `other`, the
/// same nodes in another order. δ and RMS agree to a relative `1e-9`:
/// the triangles are the same, but a triangle's vertex order, and with
/// it the rounding of its interpolation, can differ.
fn assert_order_free(field: &PeaksField, nodes: &[Point2], other: &[Point2], case: u64) {
    let grid = delta_grid();
    for par in policies() {
        let (a, b) = (
            measure(field, nodes, &grid, par),
            measure(field, other, &grid, par),
        );
        assert_eq!(a.connected, b.connected, "case {case} {par:?}");
        for (x, y) in [
            (a.raster.0, b.raster.0),
            (a.raster.1, b.raster.1),
            (a.walk.0, b.walk.0),
            (a.walk.1, b.walk.1),
        ] {
            assert!(
                (x - y).abs() <= 1e-9 * x.abs(),
                "case {case} {par:?}: {x} against {y} after reordering"
            );
        }
    }
}

/// With the region corners inserted first every later node lands
/// inside the hull, and the order of those nodes does not matter.
#[test]
fn reordering_the_nodes_inside_the_hull_keeps_delta_rms_and_connectivity() {
    let field = PeaksField::new(region(), 8.0);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..CASES {
        let nodes = deployment(&mut rng, true);
        let (corners, rest) = nodes.split_at(4);
        let other: Vec<Point2> = corners
            .iter()
            .copied()
            .chain(shuffled(&mut rng, rest))
            .collect();
        assert_order_free(&field, &nodes, &other, case);
    }
}

/// Any order at all: fails today. A node inserted outside the current
/// hull can leave part of the final convex hull untriangulated, and the
/// nearest-node fallback fills that part in; 9 of these 24 shuffles
/// move δ, by up to 0.8 %.
#[test]
#[ignore = "insertion order changes the Delaunay hull's coverage (ROADMAP)"]
fn reordering_any_nodes_keeps_delta_rms_and_connectivity() {
    let field = PeaksField::new(region(), 8.0);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..CASES {
        let nodes = deployment(&mut rng, case % 2 == 0);
        let other = shuffled(&mut rng, &nodes);
        assert_order_free(&field, &nodes, &other, case);
    }
}

/// A mixture of 3–6 random blobs over the region.
fn mixture(rng: &mut StdRng) -> GaussianMixtureField {
    let r = region();
    let blobs = (0..rng.gen_range(3..=6usize))
        .map(|_| {
            let center = Point2::new(
                rng.gen_range(r.min().x..=r.max().x),
                rng.gen_range(r.min().y..=r.max().y),
            );
            GaussianBlob::isotropic(center, rng.gen_range(-40.0..80.0), rng.gen_range(6.0..25.0))
        })
        .collect();
    GaussianMixtureField::new(rng.gen_range(0.0..20.0), blobs)
}

/// Translating the region, the δ grid, the field and every node by the
/// same offset moves every grid point and node together, so δ and RMS
/// would not change in exact arithmetic. In floats each translated
/// coordinate is rounded once, which perturbs the sampled values and
/// the interpolation weights. The largest relative change measured is
/// 2.1e-15 over these 24 cases (2.4e-15 over 300, and 1.0e-14 at an
/// offset of (1234.567, 891.01)), so δ and RMS are held to a relative
/// `1e-12`. Connectivity is equal. The region corners lead every
/// deployment, so the hull covers the grid in both frames.
#[test]
fn translating_everything_keeps_delta_rms_and_connectivity() {
    let (dx, dy) = (313.7, -58.9);
    let shift = |p: Point2| Point2::new(p.x + dx, p.y + dy);
    let r = region();
    let grid = delta_grid();
    let moved_grid =
        GridSpec::new(Rect::new(shift(r.min()), shift(r.max())).unwrap(), 41, 41).unwrap();
    let mut rng = StdRng::seed_from_u64(0x7a4e);
    for case in 0..CASES {
        let field = mixture(&mut rng);
        let moved_field = field.translated(dx, dy);
        let nodes = deployment(&mut rng, true);
        let moved_nodes: Vec<Point2> = nodes.iter().map(|&p| shift(p)).collect();
        for par in policies() {
            let (a, b) = (
                measure(&field, &nodes, &grid, par),
                measure(&moved_field, &moved_nodes, &moved_grid, par),
            );
            assert_eq!(a.connected, b.connected, "case {case} {par:?}");
            for (x, y) in [
                (a.raster.0, b.raster.0),
                (a.raster.1, b.raster.1),
                (a.walk.0, b.walk.0),
                (a.walk.1, b.walk.1),
            ] {
                assert!(
                    (x - y).abs() <= 1e-12 * x.abs(),
                    "case {case} {par:?}: {x} against {y} after translation"
                );
            }
        }
    }
}
