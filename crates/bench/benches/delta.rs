//! Substrate bench: the δ quadrature (Eqn. 2) and reconstruction.

use cps_core::osd::baselines;
use cps_core::DeltaEvaluator;
use cps_field::{delta, Parallelism, PeaksField, PlaneField};
use cps_geometry::{GridSpec, Rect};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread policies exercised by the parallel evaluation group.
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
        b.iter(|| delta::volume_difference_with(&f, &g, &grid, Parallelism::serial()))
    });
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

criterion_group!(benches, bench_volume_difference, bench_full_evaluation);
criterion_main!(benches);
