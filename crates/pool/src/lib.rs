//! Persistent worker-thread pool for the hot evaluation path.
//!
//! The δ quadrature and the FRA local-error refresh are called thousands of
//! times per simulation, and spawning scoped threads on every call costs far
//! more than the row work itself on small grids.  This crate keeps a small set of
//! long-lived workers parked on a shared queue; callers hand over a batch of
//! erased jobs plus a closure to run on the calling thread, and block until
//! every job has signalled completion.
//!
//! # Soundness
//!
//! Jobs borrow the caller's stack, so they are transmuted to `'static` before
//! crossing into the pool.  This is sound because [`run_with`] does not return
//! until it has received one completion signal per submitted job, and a
//! worker sends that signal only *after* the job closure has been consumed
//! and dropped (via `catch_unwind`).  No borrow held by a job can therefore
//! outlive the `run_with` call.  Panics inside jobs are captured, forwarded
//! over the completion channel, and re-raised on the calling thread once the
//! batch has fully drained.
//!
//! # Nesting
//!
//! A batch started on a thread that is already inside one — a worker
//! running a job, or a caller running its `local` share — runs its jobs
//! inline on that thread instead of queueing them. Queueing would
//! deadlock as soon as every worker is blocked in such a nested batch:
//! each waits on a queued job that no idle worker is left to take. One
//! thread-local flag, `IN_BATCH`, marks those threads. The inline path
//! keeps the same contract (every job runs exactly once, and panics are
//! re-raised only after all of them finished), so callers built on the
//! chunk-counter pattern get the same results, only without the extra
//! threads.
//!
//! This is the only crate in the workspace that contains `unsafe`; everything
//! above it (`cps-field`, `cps-core`, …) keeps `#![forbid(unsafe_code)]`.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

/// A borrowed job: a closure the pool runs exactly once on some worker.
pub type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;
type DoneSignal = Result<(), Box<dyn Any + Send>>;
type QueueItem = (StaticJob, Sender<DoneSignal>);

/// Upper bound on pool size; requests beyond this are clamped.  Generous
/// compared to any realistic `Parallelism::fixed` setting, but bounds the
/// damage of a runaway request.
const MAX_WORKERS: usize = 64;

struct WorkerPool {
    injector: Mutex<Sender<QueueItem>>,
    queue: Arc<Mutex<Receiver<QueueItem>>>,
    spawned: Mutex<usize>,
}

impl WorkerPool {
    fn new() -> Self {
        let (tx, rx) = channel();
        WorkerPool {
            injector: Mutex::new(tx),
            queue: Arc::new(Mutex::new(rx)),
            spawned: Mutex::new(0),
        }
    }

    /// Lazily grow the pool until at least `want` workers exist.
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().expect("pool spawn lock");
        while *spawned < want {
            let queue = Arc::clone(&self.queue);
            thread::Builder::new()
                .name(format!("cps-pool-{}", *spawned))
                .spawn(move || worker_loop(queue))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }
}

thread_local! {
    /// Whether this thread is running a job or a caller's `local`
    /// share; a batch started here runs inline (see the crate docs).
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

fn worker_loop(queue: Arc<Mutex<Receiver<QueueItem>>>) {
    // A worker only ever runs jobs, so it is inside a batch for life.
    IN_BATCH.set(true);
    loop {
        // Take one job under the lock, then release it before running so a
        // panicking job cannot poison the queue for other workers.
        let item = match queue.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok((job, done)) = item else { return };
        let result = catch_unwind(AssertUnwindSafe(job));
        // The job closure (and every borrow it held) is dead by this point;
        // only now is the caller allowed to observe completion.
        let _ = done.send(result);
    }
}

fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Runs `jobs` on pool workers while executing `local` on the calling
/// thread, then blocks until every job has completed.
///
/// The typical pattern is a shared atomic chunk counter: each of the `jobs`
/// and the `local` closure pull chunks from it until the work is exhausted,
/// so the caller participates instead of idling.  Completion order is
/// irrelevant to callers because results are keyed by chunk index.
///
/// If any job — or `local` itself — panics, the panic is re-raised here, but
/// only after every submitted job has finished, so borrows never escape.
///
/// Called from inside a batch (on a worker, or within another call's
/// `local`), it runs `local` and then every job on the calling thread;
/// see the crate-level notes on nesting.
pub fn run_with<'a>(jobs: Vec<Job<'a>>, local: impl FnOnce()) {
    if IN_BATCH.get() {
        return run_inline(jobs, local);
    }
    let pool = global();
    pool.ensure_workers(jobs.len());
    let count = jobs.len();
    let (done_tx, done_rx) = channel();
    {
        let injector = pool.injector.lock().expect("pool injector lock");
        for job in jobs {
            // SAFETY: `run_with` blocks below until `count` completion
            // signals arrive, and each signal is sent only after its job
            // closure has been consumed and dropped.  The borrows captured
            // by `job` therefore strictly outlive every use of it.
            let job: StaticJob = unsafe { std::mem::transmute::<Job<'a>, StaticJob>(job) };
            injector
                .send((job, done_tx.clone()))
                .expect("pool workers alive");
        }
    }
    drop(done_tx);

    IN_BATCH.set(true);
    let local_result = catch_unwind(AssertUnwindSafe(local));
    IN_BATCH.set(false);

    // Closure-death barrier: every job must signal before we return (or
    // unwind), whether it succeeded or panicked.
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    for _ in 0..count {
        match done_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => {
                first_panic.get_or_insert(payload);
            }
            // Unreachable by construction: the queue holds the paired
            // sender until a worker takes the job, and workers always send.
            Err(_) => panic!("pool worker vanished mid-batch"),
        }
    }
    reraise(local_result, first_panic);
}

/// The nested form of [`run_with`]: `local`, then each job, all on the
/// calling thread, with the same panic contract.
fn run_inline<'a>(jobs: Vec<Job<'a>>, local: impl FnOnce()) {
    let local_result = catch_unwind(AssertUnwindSafe(local));
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    for job in jobs {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            first_panic.get_or_insert(payload);
        }
    }
    reraise(local_result, first_panic);
}

/// Re-raises a finished batch's panic: `local`'s first, then the first
/// job's.
fn reraise(local_result: thread::Result<()>, first_panic: Option<Box<dyn Any + Send>>) {
    if let Err(payload) = local_result {
        resume_unwind(payload);
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job_exactly_once() {
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = (0..7)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Job<'_>
            })
            .collect();
        run_with(jobs, || {
            hits.fetch_add(100, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 107);
    }

    #[test]
    fn workers_persist_across_batches() {
        for _ in 0..3 {
            let jobs: Vec<Job<'_>> = (0..4).map(|_| Box::new(|| {}) as Job<'_>).collect();
            run_with(jobs, || {});
        }
        let spawned = || *global().spawned.lock().expect("pool spawn lock");
        let after_first = spawned();
        let jobs: Vec<Job<'_>> = (0..4).map(|_| Box::new(|| {}) as Job<'_>).collect();
        run_with(jobs, || {});
        assert_eq!(spawned(), after_first, "pool must not respawn");
        assert!(after_first >= 4);
    }

    #[test]
    fn chunk_counter_pattern_covers_all_items() {
        let n = 1000;
        let next = AtomicUsize::new(0);
        let claimed: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            claimed[i].fetch_add(1, Ordering::Relaxed);
        };
        let jobs: Vec<Job<'_>> = (0..3).map(|_| Box::new(work) as Job<'_>).collect();
        run_with(jobs, work);
        assert!(claimed.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn job_panic_is_reraised_after_the_batch_drains() {
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<'_>> = vec![
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    survivors.fetch_add(1, Ordering::Relaxed);
                }),
            ];
            run_with(jobs, || {});
        }));
        assert!(result.is_err(), "job panic must propagate to the caller");
        assert_eq!(
            survivors.load(Ordering::Relaxed),
            1,
            "sibling jobs still run to completion before the panic surfaces"
        );
        // The pool must stay usable after a panicking batch.
        let ok = AtomicUsize::new(0);
        let jobs: Vec<Job<'_>> = vec![Box::new(|| {
            ok.fetch_add(1, Ordering::Relaxed);
        })];
        run_with(jobs, || {});
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn local_panic_waits_for_outstanding_jobs() {
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Job<'_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        done.fetch_add(1, Ordering::Relaxed);
                    }) as Job<'_>
                })
                .collect();
            run_with(jobs, || panic!("local boom"));
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 4, "jobs finish before unwind");
    }

    #[test]
    fn nested_batches_run_inline_with_the_same_panic_contract() {
        let ran = AtomicUsize::new(0);
        let outer: Vec<Job<'_>> = vec![Box::new(|| {
            let nested = catch_unwind(AssertUnwindSafe(|| {
                let inner: Vec<Job<'_>> = vec![
                    Box::new(|| panic!("inner boom")),
                    Box::new(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }),
                ];
                run_with(inner, || {
                    ran.fetch_add(10, Ordering::Relaxed);
                });
            }));
            assert!(nested.is_err(), "a nested job's panic must propagate");
        })];
        run_with(outer, || {});
        assert_eq!(ran.load(Ordering::Relaxed), 11, "every nested job ran");
    }

    #[test]
    fn borrowed_results_are_visible_after_run_with() {
        let mut out = vec![0usize; 16];
        let chunks: Vec<&mut [usize]> = out.chunks_mut(4).collect();
        let jobs: Vec<Job<'_>> = chunks
            .into_iter()
            .enumerate()
            .map(|(c, chunk)| {
                Box::new(move || {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = c * 4 + k;
                    }
                }) as Job<'_>
            })
            .collect();
        run_with(jobs, || {});
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }
}
