//! End-to-end bench: one FRA run on the canonical scenario.

use cps_bench::{paper_dataset, paper_region, reference_light_surface, PAPER_RC};
use cps_core::osd::FraBuilder;
use cps_core::EvalOptions;
use cps_field::Parallelism;
use cps_geometry::GridSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_fra(c: &mut Criterion) {
    let dataset = paper_dataset();
    let reference = reference_light_surface(&dataset);
    // A 51-point grid keeps bench runtimes civil; the experiments use
    // the full 101-point grid.
    let grid = GridSpec::new(paper_region(), 51, 51).unwrap();
    let mut group = c.benchmark_group("fra_run");
    group.sample_size(10);
    for k in [20usize, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                FraBuilder::new(k, PAPER_RC)
                    .grid(grid)
                    .run(&reference)
                    .unwrap()
                    .positions
                    .len()
            })
        });
    }
    group.finish();

    // The same planning run on the parallel error-grid engine.
    let mut group = c.benchmark_group("fra_run_k50_par");
    group.sample_size(10);
    for (label, par) in [
        ("serial", Parallelism::serial()),
        ("4t", Parallelism::fixed(4)),
        ("auto", Parallelism::auto()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &par, |b, &par| {
            b.iter(|| {
                FraBuilder::new(50, PAPER_RC)
                    .grid(grid)
                    .evaluator(EvalOptions::new().parallelism(par))
                    .run(&reference)
                    .unwrap()
                    .positions
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fra);
criterion_main!(benches);
