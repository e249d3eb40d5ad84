//! Substrate bench: the δ quadrature (Eqn. 2) and reconstruction.

use cps_core::osd::baselines;
use cps_core::DeltaEvaluator;
use cps_field::par::map_rows;
use cps_field::raster::delta_rms_raster;
use cps_field::{delta, Field, Parallelism, PeaksField, PlaneField, ReconstructedSurface};
use cps_geometry::{GridSpec, Rect};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread policies exercised by the parallel variants.
fn policies() -> [(&'static str, Parallelism); 4] {
    [
        ("serial", Parallelism::serial()),
        ("2t", Parallelism::fixed(2)),
        ("4t", Parallelism::fixed(4)),
        ("auto", Parallelism::auto()),
    ]
}

fn bench_volume_difference(c: &mut Criterion) {
    let region = Rect::square(100.0).unwrap();
    let grid = GridSpec::new(region, 101, 101).unwrap();
    let f = PeaksField::new(region, 8.0);
    let g = PlaneField::new(0.1, -0.05, 1.0);
    c.bench_function("volume_difference_101x101", |b| {
        b.iter(|| delta::volume_difference(&f, &g, &grid))
    });
}

/// The parallel engine on the expensive case: δ against a Delaunay
/// reconstruction (per-point triangle walks) on the 201×201 grid.
fn bench_volume_difference_parallel(c: &mut Criterion) {
    let region = Rect::square(100.0).unwrap();
    let grid = GridSpec::new(region, 201, 201).unwrap();
    let f = PeaksField::new(region, 8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let nodes = baselines::random_deployment(region, 150, &mut rng);
    let samples: Vec<f64> = nodes.iter().map(|&p| f.value(p)).collect();
    let g = ReconstructedSurface::from_samples(region, &nodes, &samples).unwrap();
    let mut group = c.benchmark_group("volume_difference_201x201_reconstructed");
    group.sample_size(20);
    for (label, par) in policies() {
        group.bench_with_input(BenchmarkId::from_parameter(label), &par, |b, &par| {
            b.iter(|| delta::volume_difference_with(&f, &g, &grid, par))
        });
    }
    group.finish();
}

fn bench_full_evaluation(c: &mut Criterion) {
    let region = Rect::square(100.0).unwrap();
    let grid = GridSpec::new(region, 101, 101).unwrap();
    let f = PeaksField::new(region, 8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let nodes = baselines::random_deployment(region, 100, &mut rng);
    c.bench_function("evaluate_deployment_100_nodes", |b| {
        let evaluator = DeltaEvaluator::new(&f, &grid, 10.0).parallelism(Parallelism::serial());
        b.iter(|| evaluator.evaluate(&nodes).unwrap().delta)
    });
    let mut group = c.benchmark_group("evaluate_deployment_100_nodes_par");
    for (label, par) in policies() {
        group.bench_with_input(BenchmarkId::from_parameter(label), &par, |b, &par| {
            let evaluator = DeltaEvaluator::new(&f, &grid, 10.0).parallelism(par);
            b.iter(|| evaluator.evaluate(&nodes).unwrap().delta)
        });
    }
    group.finish();
}

/// Raster scanline kernel vs the per-cell walk pair
/// (`volume_difference_with` + `rms_difference_with`) on the full δ+RMS
/// evaluation, across grid resolutions.
fn bench_kernels(c: &mut Criterion) {
    let region = Rect::square(100.0).unwrap();
    let f = PeaksField::new(region, 8.0);
    let mut rng = StdRng::seed_from_u64(5);
    let nodes = baselines::random_deployment(region, 150, &mut rng);
    let samples: Vec<f64> = nodes.iter().map(|&p| f.value(p)).collect();
    let g = ReconstructedSurface::from_samples(region, &nodes, &samples).unwrap();
    let serial = Parallelism::serial();
    for resolution in [101usize, 201, 401] {
        let grid = GridSpec::new(region, resolution, resolution).unwrap();
        let mut group = c.benchmark_group(format!("delta_rms_{resolution}x{resolution}"));
        group.sample_size(if resolution >= 401 { 10 } else { 20 });
        group.bench_function("walk", |b| {
            b.iter(|| {
                (
                    delta::volume_difference_with(&f, &g, &grid, serial),
                    delta::rms_difference_with(&f, &g, &grid, serial),
                )
            })
        });
        group.bench_function("raster", |b| {
            b.iter(|| delta_rms_raster(&f, &g, &grid, serial))
        });
        group.finish();
    }
}

/// Pool reuse vs per-call thread spawn on many small row sweeps: the
/// dispatch overhead the persistent pool exists to eliminate.
fn bench_pool_dispatch(c: &mut Criterion) {
    const ROWS: usize = 128;
    let row_work = |j: usize| -> f64 {
        let mut acc = 0.0;
        for i in 0..ROWS {
            acc += ((i * 31 + j * 17) as f64).sqrt();
        }
        acc
    };
    let par = Parallelism::fixed(2);
    let mut group = c.benchmark_group("pool_dispatch_128_rows_2t");
    group.bench_function("pooled", |b| {
        b.iter(|| map_rows(ROWS, par, row_work).iter().sum::<f64>())
    });
    group.bench_function("spawn_per_call", |b| {
        b.iter(|| {
            // The pre-pool dispatch: fresh scoped threads every call.
            let mut rows: Vec<f64> = vec![0.0; ROWS];
            let (lo, hi) = rows.split_at_mut(ROWS / 2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for (j, slot) in hi.iter_mut().enumerate() {
                        *slot = row_work(ROWS / 2 + j);
                    }
                });
                for (j, slot) in lo.iter_mut().enumerate() {
                    *slot = row_work(j);
                }
            });
            rows.iter().sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_volume_difference,
    bench_volume_difference_parallel,
    bench_full_evaluation,
    bench_kernels,
    bench_pool_dispatch
);
criterion_main!(benches);
