//! Offline stand-in for `criterion`.
//!
//! The build container has no registry access, so the workspace patches
//! `criterion` to this crate (see `[patch.crates-io]` in the root
//! `Cargo.toml`). The benches keep their upstream-shaped source; this
//! stand-in runs each benchmark body a small fixed number of times and
//! prints a rough mean instead of doing statistical analysis. That
//! keeps `cargo bench` usable for coarse comparisons and keeps the
//! bench targets compiling under `cargo test --all-targets`. As
//! upstream, `cargo bench -- --test` runs each body exactly once, as a
//! smoke test.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How many timed iterations the stand-in runs per benchmark.
const ITERS: u32 = 10;

/// The benchmark manager: collects and immediately runs benchmarks.
#[derive(Debug, Default)]
pub struct Criterion {
    /// `--test` was passed: run each body once instead of [`ITERS`]
    /// times.
    test_mode: bool,
}

impl Criterion {
    /// Upstream parses CLI args here; the stand-in honours only
    /// `--test` (one iteration per benchmark) and ignores the rest.
    pub fn configure_from_args(self) -> Self {
        self.with_args(std::env::args().skip(1))
    }

    fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.test_mode = args.into_iter().any(|arg| arg == "--test");
        self
    }

    fn bencher(&self) -> Bencher {
        let per_call = if self.test_mode { 1 } else { ITERS };
        Bencher {
            total: Duration::ZERO,
            iters: 0,
            per_call,
        }
    }

    /// Runs one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = self.bencher();
        f(&mut b);
        b.report(id);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
        }
    }
}

/// A named set of benchmarks (upstream adds shared configuration; the
/// stand-in only prefixes the name).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted and ignored (the stand-in has no statistics to scale).
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Accepted and ignored (the stand-in's iteration count is fixed
    /// by [`Criterion`]).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted and ignored.
    pub fn measurement_time(&mut self, _dur: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let mut b = self.parent.bencher();
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id.into_benchmark_id().0));
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = self.parent.bencher();
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.into_benchmark_id().0));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Times benchmark bodies.
#[derive(Debug)]
pub struct Bencher {
    total: Duration,
    iters: u32,
    per_call: u32,
}

impl Bencher {
    /// Times `routine`, running it a fixed number of iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..self.per_call {
            let start = Instant::now();
            black_box(routine());
            self.total += start.elapsed();
        }
        self.iters += self.per_call;
    }

    /// Times `routine` on fresh inputs from `setup` (setup untimed).
    pub fn iter_batched<I, O, S: FnMut() -> I, F: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: F,
        _size: BatchSize,
    ) {
        for _ in 0..self.per_call {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.total += start.elapsed();
        }
        self.iters += self.per_call;
    }

    fn report(&self, id: &str) {
        if self.iters > 0 {
            let mean = self.total / self.iters;
            println!("bench {id}: {mean:?}/iter (stand-in, {} iters)", self.iters);
        } else {
            println!("bench {id}: no measurement");
        }
    }
}

/// How much work one iteration represents (ignored by the stand-in).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// How inputs are batched in [`Bencher::iter_batched`] (ignored).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// A benchmark identifier, possibly parameterised.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// Just the parameter as the id.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

/// Conversion into [`BenchmarkId`] accepted by group methods.
pub trait IntoBenchmarkId {
    /// The concrete id.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self.to_string())
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self)
    }
}

/// Declares a group of benchmark functions (upstream-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("grp");
        group.throughput(Throughput::Elements(4));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &n| b.iter(|| n * n));
        group.bench_with_input(BenchmarkId::from_parameter(9), &9u64, |b, &n| {
            b.iter_batched(|| n, |m| m + 1, BatchSize::LargeInput)
        });
        group.finish();
    }

    criterion_group!(benches, quick);

    #[test]
    fn harness_runs_every_benchmark() {
        benches();
    }

    /// Runs of each body under a configured harness: standalone,
    /// grouped, parameterised and batched.
    fn body_runs(mut c: Criterion) -> [u32; 4] {
        let mut runs = [0u32; 4];
        c.bench_function("count", |b| b.iter(|| runs[0] += 1));
        let mut group = c.benchmark_group("grp");
        group.bench_function("count", |b| b.iter(|| runs[1] += 1));
        group.bench_with_input(BenchmarkId::from_parameter(2), &2u32, |b, &n| {
            b.iter(|| runs[2] += n / 2)
        });
        group.bench_function("batched", |b| {
            b.iter_batched(|| 1, |one| runs[3] += one, BatchSize::SmallInput)
        });
        group.finish();
        runs
    }

    #[test]
    fn test_flag_runs_every_body_exactly_once() {
        let args = ["--bench", "--test"].map(String::from);
        assert_eq!(body_runs(Criterion::default().with_args(args)), [1; 4]);
        let args = ["--bench", "delta"].map(String::from);
        assert_eq!(body_runs(Criterion::default().with_args(args)), [ITERS; 4]);
    }
}
