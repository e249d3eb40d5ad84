//! Row-sharded parallel execution for grid sweeps.
//!
//! Every experiment in the paper reduces to dense-grid evaluation —
//! quadrature for the δ metric, curvature sweeps, per-cell error
//! refreshes — so this module provides the one primitive they all
//! share: *split the rows of a grid across threads, compute each row
//! independently, and reduce in row order*. Reducing in a fixed order
//! keeps floating-point results **bit-identical regardless of thread
//! count**, which the workspace's determinism tests rely on.
//!
//! Parallel batches run on the persistent worker pool in [`cps_pool`]
//! rather than spawning scoped threads per call: workers are created
//! lazily on first use and then parked between calls, so the hot
//! evaluation path pays no spawn cost. Small batches under
//! [`AUTO_SERIAL_CUTOFF`] stay on the calling thread when the policy is
//! [`Parallelism::auto`]. This crate itself stays `unsafe`-free; the
//! one lifetime-erasure `unsafe` lives in `cps-pool`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::OnceLock;
use std::thread;

/// Row counts below this stay serial under [`Parallelism::auto`].
///
/// Handing a batch to the pool costs a couple of microseconds of
/// queueing and wake-up; a grid sweep of a few dozen rows finishes in
/// less than that, so `auto` never forwards such batches. Explicit
/// [`Parallelism::fixed`] requests are always honored.
pub const AUTO_SERIAL_CUTOFF: usize = 64;

/// Each worker's share is split this many ways so that uneven rows
/// (e.g. hull-heavy bands) rebalance dynamically via the chunk counter.
const CHUNKS_PER_WORKER: usize = 4;

/// Thread-count policy for the parallel evaluation engine.
///
/// The default asks the OS via [`std::thread::available_parallelism`],
/// once per process; [`Parallelism::serial`] pins everything to the calling thread, and
/// [`Parallelism::fixed`] requests an exact worker count. Results of
/// the engine are bit-identical across all of these — the policy only
/// changes wall-clock time.
///
/// # Example
///
/// ```
/// use cps_field::Parallelism;
///
/// assert_eq!(Parallelism::serial().threads(), 1);
/// assert_eq!(Parallelism::fixed(4).threads(), 4);
/// assert!(Parallelism::auto().threads() >= 1);
/// // `from_threads` maps a CLI-style `--threads 0` to auto.
/// assert_eq!(Parallelism::from_threads(0), Parallelism::auto());
/// assert_eq!(Parallelism::from_threads(2), Parallelism::fixed(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Requested worker count; `0` means "ask the OS".
    requested: usize,
}

impl Parallelism {
    /// Uses [`std::thread::available_parallelism`], resolved on first
    /// use and then fixed for the life of the process.
    pub fn auto() -> Self {
        Parallelism { requested: 0 }
    }

    /// Runs everything on the calling thread.
    pub fn serial() -> Self {
        Parallelism { requested: 1 }
    }

    /// Requests exactly `n` workers (`n = 0` is treated as 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism {
            requested: n.max(1),
        }
    }

    /// CLI-flag convention: `0` selects [`Parallelism::auto`], anything
    /// else [`Parallelism::fixed`].
    pub fn from_threads(n: usize) -> Self {
        if n == 0 {
            Parallelism::auto()
        } else {
            Parallelism::fixed(n)
        }
    }

    /// The effective worker count this policy resolves to.
    pub fn threads(&self) -> usize {
        if self.requested == 0 {
            available_cores()
        } else {
            self.requested
        }
    }

    /// Worker count actually used for a batch of `items` rows.
    ///
    /// [`Parallelism::auto`] resolves to a single (calling) thread for
    /// batches under [`AUTO_SERIAL_CUTOFF`] — small grids never pay
    /// pool overhead — while explicit `fixed` requests are honored as
    /// given. Never exceeds `items` and never returns 0.
    pub fn effective_workers(&self, items: usize) -> usize {
        if self.requested == 0 && items < AUTO_SERIAL_CUTOFF {
            return 1;
        }
        self.threads().min(items.max(1))
    }
}

/// The OS's core count, asked once per process: the query reads the
/// cgroup quota files on Linux, which costs tens of microseconds, and
/// `auto` batches ask on every call.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Computes `f(0), f(1), …, f(n - 1)` with rows sharded across up to
/// `par.threads()` pool workers, returning results **in index order**.
///
/// Rows are dealt out in contiguous chunks through a shared counter;
/// the calling thread participates alongside the pool workers, and
/// results are reassembled by chunk start index, so any fold over the
/// returned vector observes the same operand order at every thread
/// count — the determinism guarantee the δ quadrature builds on. Falls
/// back to a plain serial loop when one worker (or one item) remains,
/// and under [`Parallelism::auto`] whenever `n` is below
/// [`AUTO_SERIAL_CUTOFF`].
pub fn map_rows<T, F>(n: usize, par: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.effective_workers(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let n_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let (res_tx, res_rx) = channel::<(usize, Vec<T>)>();
    let next = &next;
    let f = &f;
    let work = move |tx: Sender<(usize, Vec<T>)>| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let start = c * chunk;
        let end = (start + chunk).min(n);
        let vals: Vec<T> = (start..end).map(f).collect();
        let _ = tx.send((start, vals));
    };
    let jobs: Vec<cps_pool::Job<'_>> = (1..workers)
        .map(|_| {
            let tx = res_tx.clone();
            Box::new(move || work(tx)) as cps_pool::Job<'_>
        })
        .collect();
    cps_obs::count_by(cps_obs::Counter::PoolTasks, jobs.len() as u64);
    cps_pool::run_with(jobs, || work(res_tx.clone()));
    drop(res_tx);

    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    while let Ok((start, vals)) = res_rx.try_recv() {
        for (k, v) in vals.into_iter().enumerate() {
            out[start + k] = Some(v);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("pool workers filled every chunk"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_resolve_to_expected_counts() {
        assert_eq!(Parallelism::serial().threads(), 1);
        assert_eq!(Parallelism::fixed(3).threads(), 3);
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert!(Parallelism::auto().threads() >= 1);
        // `auto` resolves to the OS's count, once: every call agrees.
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Parallelism::auto().threads(), cores);
        assert_eq!(Parallelism::auto().threads(), available_cores());
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert_eq!(Parallelism::from_threads(0), Parallelism::auto());
        assert_eq!(Parallelism::from_threads(5), Parallelism::fixed(5));
    }

    #[test]
    fn auto_stays_serial_below_the_cutoff() {
        let auto = Parallelism::auto();
        assert_eq!(auto.effective_workers(0), 1);
        assert_eq!(auto.effective_workers(1), 1);
        assert_eq!(auto.effective_workers(AUTO_SERIAL_CUTOFF - 1), 1);
        // At or above the cutoff, auto scales with the hardware again.
        let at = auto.effective_workers(AUTO_SERIAL_CUTOFF);
        assert_eq!(at, auto.threads().min(AUTO_SERIAL_CUTOFF));
        // Explicit requests are honored even for tiny batches.
        assert_eq!(Parallelism::fixed(4).effective_workers(8), 4);
        assert_eq!(Parallelism::fixed(4).effective_workers(2), 2);
        assert_eq!(Parallelism::serial().effective_workers(1000), 1);
    }

    #[test]
    fn map_rows_preserves_index_order() {
        for par in [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::fixed(7),
            Parallelism::auto(),
        ] {
            let got = map_rows(23, par, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "with {par:?}");
        }
    }

    #[test]
    fn map_rows_handles_edge_sizes() {
        assert!(map_rows(0, Parallelism::fixed(4), |i| i).is_empty());
        assert_eq!(map_rows(1, Parallelism::fixed(4), |i| i + 10), vec![10]);
        // More workers than items.
        assert_eq!(map_rows(3, Parallelism::fixed(16), |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_rows_folds_bit_identically_across_thread_counts() {
        // A deliberately ill-conditioned per-row value: summing it in a
        // different order would change the result's last bits.
        let row = |j: usize| ((j as f64) * 0.1).sin() * 1e10 + 1.0 / (j as f64 + 1.0);
        let fold = |par: Parallelism| -> f64 { map_rows(97, par, row).iter().sum() };
        let reference = fold(Parallelism::serial());
        for threads in [2, 3, 4, 8] {
            let got = fold(Parallelism::fixed(threads));
            assert_eq!(got.to_bits(), reference.to_bits(), "{threads} threads");
        }
    }
}
