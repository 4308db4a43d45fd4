//! A dependency-free scoped worker pool for intra-rank kernel
//! parallelism.
//!
//! Every partition rank of the training engine runs Algorithm 1's
//! compute phase (dense matmul + sparse aggregation) on its own OS
//! thread. This module gives each rank a small pool of `std::thread`
//! workers so those two kernels use the cores the rank was budgeted —
//! without pulling in rayon or crossbeam (the workspace builds fully
//! offline; see `vendor/README.md`).
//!
//! # Design
//!
//! * [`ThreadPool`] owns `threads - 1` persistent workers fed over an
//!   `mpsc` channel; the dispatching thread always participates as the
//!   extra worker, so `ThreadPool::new(1)` spawns nothing and runs
//!   jobs inline.
//! * Kernels never take a pool argument. A pool is *installed* on the
//!   current thread ([`install`]) and the `Matrix` / aggregation
//!   kernels pick it up via thread-local lookup ([`current`]). The
//!   engine installs one pool per rank thread, which is exactly the
//!   per-rank scoping the paper's partition-parallel layout needs.
//! * **Determinism**: [`parallel_row_blocks`] partitions work into
//!   contiguous row blocks. Each output row is produced by exactly one
//!   job with a fixed per-element operation order, so results are
//!   bitwise identical no matter how many threads execute the blocks
//!   (including zero, i.e. the serial fallback).
//!
//! # Configuration
//!
//! [`ThreadConfig::from_env`] resolves the thread budget: the
//! `BNS_THREADS` environment variable when set, otherwise
//! [`std::thread::available_parallelism`]. The engine divides that
//! budget across ranks ([`ThreadConfig::for_ranks`]) so
//! `ranks x threads <= cores`.
//!
//! # Example
//!
//! ```
//! use bns_tensor::pool::{self, ThreadPool};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let _guard = pool::install(pool);
//! let hits = AtomicUsize::new(0);
//! pool::parallel_row_blocks(100, 1, &|start, end| {
//!     hits.fetch_add(end - start, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 100);
//! ```

// Protocol state (`JobBatch.next`, the completion latch, the dispatch
// channel, worker threads) goes through `crate::sync`, which resolves
// to `std` normally and to the loom shims under `--cfg loom` so the
// latch protocol can be model-checked exhaustively (tests/loom_pool.rs).
// Monotonic telemetry counters stay on real std atomics: they play no
// role in the protocol and would only inflate the model's state space.
use crate::sync::{mpsc, thread, AtomicUsize, Condvar, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type JoinHandle = thread::JoinHandle<()>;

/// Environment variable overriding the thread budget.
pub const ENV_THREADS: &str = "BNS_THREADS";

/// Resolved thread budget for kernel parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadConfig {
    /// Total worker threads available to kernels (>= 1).
    pub threads: usize,
}

impl ThreadConfig {
    /// A budget of exactly `threads` (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The process-wide budget: `BNS_THREADS` when set to a positive
    /// integer, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        let env = std::env::var(ENV_THREADS).ok();
        Self::resolve(env.as_deref())
    }

    /// Pure resolution helper backing [`ThreadConfig::from_env`]
    /// (separated so the parse rules are testable without mutating
    /// process environment).
    pub fn resolve(env: Option<&str>) -> Self {
        if let Some(s) = env {
            if let Ok(n) = s.trim().parse::<usize>() {
                if n >= 1 {
                    return Self::new(n);
                }
            }
        }
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Splits the budget over `ranks` partition workers so that the
    /// shares sum to the budget when it is large enough (each rank gets
    /// at least one). The remainder `budget % ranks` is handed out
    /// deterministically to the lowest-index ranks, so a budget of 6
    /// over 4 ranks yields shares `[2, 2, 1, 1]` — not `[1, 1, 1, 1]`
    /// with two cores idle.
    pub fn for_ranks(self, ranks: usize, rank: usize) -> Self {
        let ranks = ranks.max(1);
        let base = self.threads / ranks;
        let rem = self.threads % ranks;
        Self::new(base + usize::from(rank < rem))
    }
}

/// Snapshot of a pool's dispatch counters (for telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// `run` calls that fanned jobs out to workers.
    pub parallel_dispatches: u64,
    /// Individual jobs executed (by workers or the caller).
    pub jobs: u64,
}

/// One fan-out of jobs `0..total` over the shared closure.
///
/// Workers claim indices from `next`; the dispatcher waits until
/// `completed == total`. The struct is reference-counted so a late
/// worker that claims an exhausted index after the dispatcher has
/// already returned only touches memory it co-owns (the closure
/// pointer is never dereferenced once `next >= total`).
struct JobBatch {
    /// Type-erased pointer to the caller's closure. Only valid while
    /// the dispatching `run` call is blocked in `wait`.
    f: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    total: usize,
    completed: Mutex<usize>,
    all_done: Condvar,
}

// SAFETY: the closure pointer is only dereferenced for claimed job
// indices `< total`, and `run` does not return until all such jobs
// have completed, so the borrow the pointer erases is always live at
// dereference time. All other fields are Sync primitives.
unsafe impl Send for JobBatch {}
unsafe impl Sync for JobBatch {}

impl JobBatch {
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // SAFETY: i < total, so the dispatcher is still parked in
            // `wait` and the closure borrow is live.
            (unsafe { &*self.f })(i);
            let mut done = self.completed.lock().unwrap();
            *done += 1;
            if *done == self.total {
                self.all_done.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut done = self.completed.lock().unwrap();
        while *done < self.total {
            done = self.all_done.wait(done).unwrap();
        }
    }
}

/// A fixed-size pool of persistent worker threads (see module docs).
pub struct ThreadPool {
    threads: usize,
    sender: Option<mpsc::Sender<Arc<JobBatch>>>,
    workers: Vec<JoinHandle>,
    parallel_dispatches: AtomicU64,
    jobs: AtomicU64,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// A pool with `threads` total execution slots: `threads - 1`
    /// spawned workers plus the dispatching thread itself.
    pub fn new(threads: usize) -> Arc<Self> {
        let threads = threads.max(1);
        let mut workers = Vec::new();
        let sender = if threads > 1 {
            let (tx, rx) = mpsc::channel::<Arc<JobBatch>>();
            let rx = Arc::new(Mutex::new(rx));
            for w in 0..threads - 1 {
                let rx = Arc::clone(&rx);
                workers.push(
                    thread::Builder::new()
                        .name(format!("bns-pool-{w}"))
                        .spawn(move || loop {
                            let batch = {
                                let guard = rx.lock().unwrap();
                                guard.recv()
                            };
                            match batch {
                                Ok(b) => b.work(),
                                Err(_) => return, // pool dropped
                            }
                        })
                        .expect("failed to spawn pool worker"),
                );
            }
            Some(tx)
        } else {
            None
        };
        Arc::new(Self {
            threads,
            sender,
            workers,
            parallel_dispatches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        })
    }

    /// Total execution slots (including the dispatching thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Dispatch counters accumulated since construction.
    pub fn stats(&self) -> DispatchStats {
        DispatchStats {
            parallel_dispatches: self.parallel_dispatches.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(0)..f(n_jobs - 1)` across the pool, blocking until all
    /// jobs finish. The dispatching thread participates. Jobs must be
    /// independent (they run concurrently in unspecified order).
    pub fn run(&self, n_jobs: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_jobs == 0 {
            return;
        }
        self.jobs.fetch_add(n_jobs as u64, Ordering::Relaxed);
        if n_jobs == 1 || self.sender.is_none() {
            for i in 0..n_jobs {
                f(i);
            }
            return;
        }
        self.parallel_dispatches.fetch_add(1, Ordering::Relaxed);
        // SAFETY: lifetime erasure only; `wait` below keeps the borrow
        // live until every dereference has happened.
        let f_static = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync + 'static)>(
                f,
            )
        };
        // The batch is shared with the woken workers by refcount; one
        // small control block per parallel dispatch, not per row.
        // bns-allow(BNS-A005): one job control block per parallel dispatch
        let batch = Arc::new(JobBatch {
            f: f_static as *const _,
            next: AtomicUsize::new(0),
            total: n_jobs,
            completed: Mutex::new(0),
            all_done: Condvar::new(),
        });
        // Wake at most one worker per remaining job.
        let sender = self.sender.as_ref().unwrap();
        for _ in 0..(self.threads - 1).min(n_jobs - 1) {
            // A send error means workers are gone (pool shutting
            // down); the caller thread then just runs everything.
            let _ = sender.send(Arc::clone(&batch));
        }
        batch.work();
        batch.wait();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.sender.take(); // closes the channel; workers exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

thread_local! {
    static CURRENT_POOL: RefCell<Option<Arc<ThreadPool>>> = const { RefCell::new(None) };
}

/// Serial executions of [`parallel_row_blocks`] (no pool installed,
/// one thread, or work below the parallel threshold), process-wide.
static SERIAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// RAII guard returned by [`install`]; restores the previously
/// installed pool (if any) on drop.
#[must_use = "dropping the guard immediately uninstalls the pool"]
pub struct PoolGuard {
    prev: Option<Arc<ThreadPool>>,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        CURRENT_POOL.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `pool` as the current thread's kernel pool. Kernels on
/// this thread dispatch to it until the guard drops.
pub fn install(pool: Arc<ThreadPool>) -> PoolGuard {
    let prev = CURRENT_POOL.with(|c| c.borrow_mut().replace(pool));
    PoolGuard { prev }
}

/// The pool installed on the current thread, if any.
pub fn current() -> Option<Arc<ThreadPool>> {
    // bns-allow(BNS-A005): an Arc refcount bump, no heap allocation
    CURRENT_POOL.with(|c| c.borrow().clone())
}

/// Execution slots available to kernels on this thread (1 when no
/// pool is installed).
pub fn current_threads() -> usize {
    CURRENT_POOL.with(|c| c.borrow().as_ref().map(|p| p.threads()).unwrap_or(1))
}

/// Process-wide count of serial kernel dispatches (telemetry).
pub fn serial_fallbacks() -> u64 {
    SERIAL_FALLBACKS.load(Ordering::Relaxed)
}

/// Splits `rows` into at most `threads` contiguous blocks and runs
/// `body(start, end)` for each, in parallel when a pool is installed
/// and the work is worth fanning out.
///
/// `min_rows_per_block` bounds fan-out granularity: blocks are never
/// smaller than it (except the last), and when `rows` fits in a single
/// block the body runs inline on the caller.
///
/// Each row lands in exactly one block regardless of thread count, so
/// kernels whose per-row computation has a fixed operation order are
/// bitwise deterministic under any pool size.
pub fn parallel_row_blocks(
    rows: usize,
    min_rows_per_block: usize,
    body: &(dyn Fn(usize, usize) + Sync),
) {
    if rows == 0 {
        return;
    }
    let pool = current();
    let threads = pool.as_ref().map(|p| p.threads()).unwrap_or(1);
    let min_rows = min_rows_per_block.max(1);
    let max_blocks = rows.div_ceil(min_rows);
    let blocks = threads.min(max_blocks);
    if blocks <= 1 {
        SERIAL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        body(0, rows);
        return;
    }
    let chunk = rows.div_ceil(blocks);
    let pool = pool.unwrap();
    pool.run(blocks, &|b| {
        let start = b * chunk;
        let end = ((b + 1) * chunk).min(rows);
        if start < end {
            body(start, end);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn config_clamps_and_splits() {
        assert_eq!(ThreadConfig::new(0).threads, 1);
        assert_eq!(ThreadConfig::new(8).for_ranks(4, 0).threads, 2);
        assert_eq!(ThreadConfig::new(4).for_ranks(8, 0).threads, 1);
        assert_eq!(ThreadConfig::new(4).for_ranks(0, 0).threads, 4);
    }

    /// Regression: the old `budget / ranks` split threw the remainder
    /// away — budget 6 over 4 ranks gave every rank 1 thread (via the
    /// floor 6/4 = 1) and left 2 cores idle. The remainder must go to
    /// the lowest-index ranks instead.
    #[test]
    fn for_ranks_distributes_remainder() {
        let shares = |budget: usize, k: usize| -> Vec<usize> {
            (0..k)
                .map(|r| ThreadConfig::new(budget).for_ranks(k, r).threads)
                .collect()
        };
        // Non-dividing budget: remainder to ranks 0 and 1.
        assert_eq!(shares(6, 4), vec![2, 2, 1, 1]);
        // Full budget is used (no idle cores) whenever budget >= ranks.
        for (budget, k) in [(6, 4), (7, 3), (9, 4), (8, 8), (13, 5)] {
            let s = shares(budget, k);
            assert_eq!(s.iter().sum::<usize>(), budget, "budget {budget} k {k}");
            // Deterministic, monotone non-increasing with rank index.
            assert!(s.windows(2).all(|w| w[0] >= w[1]), "{s:?}");
        }
        // More ranks than budget: everyone still gets the 1-thread floor.
        assert_eq!(shares(4, 8), vec![1; 8]);
        assert_eq!(shares(1, 3), vec![1, 1, 1]);
        // Exact division is unchanged.
        assert_eq!(shares(8, 4), vec![2, 2, 2, 2]);
    }

    #[test]
    fn config_env_resolution() {
        assert_eq!(ThreadConfig::resolve(Some("3")).threads, 3);
        assert_eq!(ThreadConfig::resolve(Some(" 2 ")).threads, 2);
        // Invalid / zero values fall back to available parallelism.
        assert!(ThreadConfig::resolve(Some("0")).threads >= 1);
        assert!(ThreadConfig::resolve(Some("lots")).threads >= 1);
        assert!(ThreadConfig::resolve(None).threads >= 1);
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 64);
        assert_eq!(stats.parallel_dispatches, 1);
    }

    #[test]
    fn single_thread_pool_is_inline() {
        let pool = ThreadPool::new(1);
        let count = AtomicUsize::new(0);
        pool.run(5, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
        assert_eq!(pool.stats().parallel_dispatches, 0);
    }

    #[test]
    fn install_guard_restores_previous_pool() {
        assert!(current().is_none());
        let p2 = ThreadPool::new(2);
        let p3 = ThreadPool::new(3);
        let g2 = install(p2);
        assert_eq!(current_threads(), 2);
        {
            let _g3 = install(p3);
            assert_eq!(current_threads(), 3);
        }
        assert_eq!(current_threads(), 2);
        drop(g2);
        assert!(current().is_none());
        assert_eq!(current_threads(), 1);
    }

    #[test]
    fn row_blocks_cover_range_without_overlap() {
        for threads in [1usize, 2, 3, 4, 7] {
            let pool = ThreadPool::new(threads);
            let _g = install(pool);
            for rows in [1usize, 2, 5, 17, 100] {
                let hits: Vec<AtomicUsize> = (0..rows).map(|_| AtomicUsize::new(0)).collect();
                parallel_row_blocks(rows, 1, &|s, e| {
                    for h in &hits[s..e] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (r, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "row {r} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn min_block_size_limits_fanout() {
        let pool = ThreadPool::new(8);
        let _g = install(Arc::clone(&pool));
        // 10 rows with 16-row minimum: single serial block.
        parallel_row_blocks(10, 16, &|s, e| {
            assert_eq!((s, e), (0, 10));
        });
        assert_eq!(pool.stats().parallel_dispatches, 0);
    }

    #[test]
    fn reentrant_dispatch_from_worker_runs_inline() {
        // A worker thread has no pool installed, so nested kernels run
        // serially instead of deadlocking the shared queue.
        let pool = ThreadPool::new(3);
        let _g = install(Arc::clone(&pool));
        let n = AtomicUsize::new(0);
        parallel_row_blocks(3, 1, &|_, _| {
            parallel_row_blocks(4, 1, &|s, e| {
                n.fetch_add(e - s, Ordering::Relaxed);
            });
        });
        assert_eq!(n.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn oversubscribed_jobs_complete() {
        // More jobs than threads: the claim loop drains them all.
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        pool.run(50, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }
}
