//! Metamorphic properties of the `cps plan` path: scaling every light
//! reading by a power of two `c` scales the reference surface by `c`,
//! leaves FRA's placements unchanged and scales δ by `c` — all bit for
//! bit, at a sharded thread policy.
//!
//! # Why the relations are exact
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
use cps::core::{analyze_deployment_with, DeploymentReport, EvalOptions};
use cps::field::{GridField, Parallelism};
use cps::geometry::{GridSpec, Point2, Rect};
use cps::greenorbs::{Channel, Dataset, ForestConfig, SensorReading, DEFAULT_KERNEL_BANDWIDTH};

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
