//! Cooperative rank scheduler: k rank tasks on a fixed OS worker set.
//!
//! The paper's headline experiments run at up to k=192 partitions
//! (Fig. 3/8, Table 6). A thread-per-rank engine oversubscribes the
//! host as soon as k exceeds the core count and starves every rank's
//! kernel-pool share down to one thread. This crate decouples the two:
//! each rank becomes a [`Task`] that runs until its next blocking point
//! and then returns [`Step::Park`], and a fixed set of workers (default
//! `available_parallelism`, override [`ENV_WORKERS`]) polls whichever
//! tasks are runnable. A parked task costs a queue slot, not a core.
//!
//! A rank program is normally an `async fn`: [`future_task`] turns its
//! future into a [`Task`] whose `step` is one poll, so the compiler
//! generates the resumable state machine. [`block_on`] drives one
//! future on a plain thread (the communicator's blocking `recv` is a
//! `block_on` over its asynchronous receive).
//!
//! # Determinism
//!
//! The scheduler never touches task-owned data: each task is stepped by
//! at most one worker at a time (enforced by the per-task state machine
//! below), and each task's steps execute in program order regardless of
//! which worker runs them or how runs interleave across tasks. A task
//! whose per-step computation is deterministic therefore produces
//! bitwise-identical results at any worker count — the property the
//! engine's loss-curve pinning tests assert (DESIGN.md §12).
//!
//! # Wakeup protocol
//!
//! Each task carries an atomic state: `Parked`, `Ready` (queued),
//! `Running`, `Notified` (wake arrived mid-step), or `Done`. A wake on
//! a `Parked` task enqueues it; a wake on a `Running` task flips it to
//! `Notified` so that when its step returns [`Step::Park`] the worker
//! re-enqueues it immediately instead of parking. A future task's
//! `std::task::Waker` is this same [`Waker`], so a receive that
//! registers `cx.waker()` and then re-checks its mailbox before
//! returning `Pending` cannot lose a message that lands in between.
//!
//! # Lost messages
//!
//! Only tasks in the set wake each other: every wake comes from inside
//! another task's step (the engine's mailbox sends, perfbench's token
//! ring). So once the last runnable task parks or finishes while others
//! are still parked, nothing can ever wake them. [`run_tasks`] then
//! fails the run with a panic that lists the parked tasks, instead of
//! sleeping forever.

// The scheduler itself holds no unsafe; the audited unsafe stays in
// bns-tensor/bns-nn (see UNSAFE_LEDGER.md).
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake};

/// Environment variable overriding the scheduler worker count.
pub const ENV_WORKERS: &str = "BNS_WORKERS";

/// Resolved scheduler worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerConfig {
    /// OS threads the scheduler may occupy, caller included (>= 1).
    pub workers: usize,
}

impl WorkerConfig {
    /// Exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The process-wide worker count: `BNS_WORKERS` when set to a
    /// positive integer, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        let env = std::env::var(ENV_WORKERS).ok();
        Self::resolve(env.as_deref())
    }

    /// Pure resolution helper backing [`WorkerConfig::from_env`]
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
}

/// What a task's step ended with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// More work is immediately available; re-enqueue behind the other
    /// ready tasks (cooperative fairness point).
    Yield,
    /// Blocked on an external event; sleep until [`Waker::wake`].
    Park,
    /// The task has finished and will never be stepped again.
    Done,
}

/// A resumable unit of work multiplexed by [`run_tasks`].
///
/// `step` runs the task up to its next blocking point. The scheduler
/// guarantees steps of one task never overlap, so `&mut self` state
/// carries across steps exactly like local variables across a blocking
/// call in thread-per-rank code.
pub trait Task: Send {
    /// Called once before the first step with this task's waker.
    fn bind(&mut self, waker: Waker) {
        let _ = waker;
    }

    /// Runs until the next blocking point (or completion).
    fn step(&mut self) -> Step;
}

// Per-task scheduling states (stored in an AtomicU8).
const PARKED: u8 = 0;
const READY: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct Shared {
    states: Vec<AtomicU8>,
    /// FIFO of READY task indices.
    queue: Mutex<VecDeque<usize>>,
    /// Signals "queue non-empty or run over" to sleeping workers.
    available: Condvar,
    /// Tasks not yet DONE; the run ends when it reaches zero.
    live: AtomicUsize,
    /// Tasks neither PARKED nor DONE. A wake counts its task before the
    /// waking step ends, so zero while `live > 0` means no task can
    /// ever wake again.
    runnable: AtomicUsize,
    /// Set when a task panicked; all workers drain out.
    poisoned: AtomicBool,
    /// First captured panic payload, re-raised on the caller.
    panic: Mutex<Option<PanicPayload>>,
    /// Which worker last stepped each task (steal accounting).
    last_worker: Vec<AtomicUsize>,
    parks: AtomicU64,
    steals: AtomicU64,
    wakes: AtomicU64,
    max_ready_depth: AtomicU64,
}

impl Shared {
    fn enqueue(&self, idx: usize) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(idx);
        // The edge to WeightedSampler::len (which locks `state`) is a
        // name collision, not a real call.
        // bns-allow(BNS-A003): VecDeque::len, not WeightedSampler::len
        let depth = q.len() as u64;
        drop(q);
        self.max_ready_depth.fetch_max(depth, Ordering::Relaxed);
        self.available.notify_one();
    }

    fn wake(&self, idx: usize) {
        loop {
            match self.states[idx].load(Ordering::SeqCst) {
                PARKED => {
                    if self.states[idx]
                        .compare_exchange(PARKED, READY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.runnable.fetch_add(1, Ordering::SeqCst);
                        self.wakes.fetch_add(1, Ordering::Relaxed);
                        self.enqueue(idx);
                        return;
                    }
                }
                RUNNING => {
                    if self.states[idx]
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.wakes.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                // Already queued, already notified, or finished: the
                // pending wake is subsumed.
                _ => return,
            }
        }
    }

    /// Aborts the run: the first payload is re-raised on the caller and
    /// every worker drains out.
    fn fail(&self, payload: PanicPayload) {
        self.panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_or_insert(payload);
        // Under the queue lock, like the end-of-run notify.
        let _q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        self.poisoned.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Called after a task parked or finished. If it was the last
    /// runnable task and others are still live, they wait for wakes
    /// that can no longer come: fail the run instead of hanging.
    fn retire_runnable(&self) {
        if self.runnable.fetch_sub(1, Ordering::SeqCst) != 1
            || self.live.load(Ordering::SeqCst) == 0
        {
            return;
        }
        let parked: Vec<usize> = (0..self.states.len())
            .filter(|&i| self.states[i].load(Ordering::SeqCst) == PARKED)
            .collect();
        self.fail(Box::new(format!(
            "run_tasks: tasks {parked:?} are parked and no task is left to wake them \
             (a message they await was never sent)"
        )));
    }
}

/// Handle that marks one task runnable; clonable, callable from any
/// thread (the engine stores one inside each rank's mailbox hook).
#[derive(Clone)]
pub struct Waker {
    shared: Arc<Shared>,
    idx: usize,
}

impl Waker {
    /// Marks the task runnable (no-op if it is already queued or done).
    pub fn wake(&self) {
        self.shared.wake(self.idx);
    }
}

/// A future task's `std::task::Waker` is backed by its scheduler
/// [`Waker`], so waking it runs the same Parked/Ready/Running/Notified
/// protocol.
impl Wake for Waker {
    fn wake(self: Arc<Self>) {
        self.shared.wake(self.idx);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.wake(self.idx);
    }
}

/// Runs a future as a [`Task`]: each step is one poll, `Pending` parks
/// and `Ready` finishes. The future is boxed once here, for the whole
/// run, and its `std::task::Waker` is built once in `bind`.
///
/// A future that returns `Pending` must have registered `cx.waker()`
/// with whatever will wake it, as any future must.
pub fn future_task<'a, F>(fut: F) -> Box<dyn Task + 'a>
where
    F: Future<Output = ()> + Send + 'a,
{
    Box::new(FutureTask {
        fut: Box::pin(fut),
        waker: None,
    })
}

struct FutureTask<'a> {
    fut: Pin<Box<dyn Future<Output = ()> + Send + 'a>>,
    waker: Option<std::task::Waker>,
}

impl Task for FutureTask<'_> {
    fn bind(&mut self, waker: Waker) {
        self.waker = Some(Arc::new(waker).into());
    }

    fn step(&mut self) -> Step {
        let waker = self
            .waker
            .as_ref()
            .expect("run_tasks binds before stepping");
        match self.fut.as_mut().poll(&mut Context::from_waker(waker)) {
            Poll::Pending => Step::Park,
            Poll::Ready(()) => Step::Done,
        }
    }
}

/// Drives `fut` to completion on the calling thread, parking the thread
/// whenever the future is pending, for a caller outside any task set.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    struct Unpark(std::thread::Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Arc::new(Unpark(std::thread::current())).into();
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        // An unpark that landed since the poll makes this return at
        // once; spurious returns just poll again.
        std::thread::park();
    }
}

/// Counters from one [`run_tasks`] call, for `rt.*` telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Times a task parked (returned [`Step::Park`] with no pending
    /// notify).
    pub parks: u64,
    /// Times a task resumed on a different worker than its last step.
    pub steals: u64,
    /// Wakes that transitioned a task to runnable.
    pub wakes: u64,
    /// High-water mark of the ready queue.
    pub max_ready_depth: u64,
}

/// Runs `tasks` to completion on `workers` OS threads (the calling
/// thread serves as worker 0; `workers - 1` are spawned). `setup(w)`
/// runs once on each worker before it starts stepping tasks and the
/// guard it returns is dropped when the worker drains out — the engine
/// uses it to install each worker's kernel thread pool.
///
/// The worker count is clamped to `tasks.len()` — extra workers would
/// never have a task to run.
///
/// Only tasks in the set may wake each other (see "Lost messages" in
/// the crate docs); a wake from outside the set can arrive too late.
///
/// # Panics
///
/// A panic inside any task aborts the run and resurfaces on the caller
/// with its original payload. So does a run in which every live task is
/// parked and none is left to wake another.
pub fn run_tasks<S, G>(mut tasks: Vec<Box<dyn Task + '_>>, workers: usize, setup: S) -> RunStats
where
    S: Fn(usize) -> G + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return RunStats::default();
    }
    let workers = workers.clamp(1, n);
    let shared = Arc::new(Shared {
        states: (0..n).map(|_| AtomicU8::new(READY)).collect(),
        queue: Mutex::new((0..n).collect()),
        available: Condvar::new(),
        live: AtomicUsize::new(n),
        runnable: AtomicUsize::new(n),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        last_worker: (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect(),
        parks: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        wakes: AtomicU64::new(0),
        max_ready_depth: AtomicU64::new(n as u64),
    });
    for (idx, task) in tasks.iter_mut().enumerate() {
        task.bind(Waker {
            shared: Arc::clone(&shared),
            idx,
        });
    }
    // Tasks are stepped by at most one worker at a time (state machine),
    // but *which* worker migrates, so each slot is a Mutex. Steps hold
    // the lock for their full duration; wakers never touch it.
    let slots: Vec<Mutex<Box<dyn Task + '_>>> = tasks.into_iter().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for w in 1..workers {
            let shared = Arc::clone(&shared);
            let slots = &slots;
            let setup = &setup;
            scope.spawn(move || {
                let _guard = setup(w);
                worker_loop(&shared, slots, w);
            });
        }
        let _guard = setup(0);
        worker_loop(&shared, &slots, 0);
    });
    // Re-raise the first captured panic on the caller.
    let payload = {
        let mut first = shared.panic.lock().unwrap_or_else(|e| e.into_inner());
        // The edge to Reader::take (whose .len() reaches the sampler
        // `state` lock) is a name collision.
        // bns-allow(BNS-A003): Option::take, not Reader::take
        first.take()
    };
    if let Some(p) = payload {
        panic::resume_unwind(p);
    }
    let stats = RunStats {
        parks: shared.parks.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        wakes: shared.wakes.load(Ordering::Relaxed),
        max_ready_depth: shared.max_ready_depth.load(Ordering::Relaxed),
    };
    bns_telemetry::counter_add("rt.parks", stats.parks);
    bns_telemetry::counter_add("rt.steals", stats.steals);
    bns_telemetry::counter_add("rt.wakes", stats.wakes);
    bns_telemetry::gauge_set("rt.ready_depth", stats.max_ready_depth as f64);
    stats
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

fn worker_loop(shared: &Shared, slots: &[Mutex<Box<dyn Task + '_>>], w: usize) {
    loop {
        let idx = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if shared.live.load(Ordering::SeqCst) == 0 || shared.poisoned.load(Ordering::SeqCst)
                {
                    return;
                }
                if let Some(idx) = q.pop_front() {
                    break idx;
                }
                // The edge to JobBatch::wait (which locks
                // `completed`) is a name collision.
                // bns-allow(BNS-A003): Condvar::wait, not JobBatch::wait
                q = shared.available.wait(q).unwrap();
            }
        };
        shared.states[idx].store(RUNNING, Ordering::SeqCst);
        let prev = shared.last_worker[idx].swap(w, Ordering::Relaxed);
        if prev != usize::MAX && prev != w {
            shared.steals.fetch_add(1, Ordering::Relaxed);
        }
        let step = {
            let mut task = slots[idx].lock().unwrap_or_else(|e| e.into_inner());
            // AssertUnwindSafe: on Err the payload is re-raised and the
            // run aborts, so no one observes the task's broken state.
            panic::catch_unwind(AssertUnwindSafe(|| task.step()))
        };
        match step {
            Err(payload) => {
                shared.fail(payload);
                return;
            }
            Ok(Step::Done) => {
                shared.states[idx].store(DONE, Ordering::SeqCst);
                // Decrement and notify under the queue lock: a worker
                // holds that lock from its `live` check until `wait`
                // releases it, so it either sees `live == 0` or is
                // already waiting when `notify_all` fires. Unlocked, the
                // notify could land between the two and the worker would
                // sleep forever.
                let q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                if shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                    shared.available.notify_all();
                }
                drop(q);
                shared.retire_runnable();
            }
            Ok(Step::Yield) => {
                shared.states[idx].store(READY, Ordering::SeqCst);
                shared.enqueue(idx);
            }
            Ok(Step::Park) => {
                match shared.states[idx].compare_exchange(
                    RUNNING,
                    PARKED,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        shared.parks.fetch_add(1, Ordering::Relaxed);
                        shared.retire_runnable();
                    }
                    // A wake landed mid-step (state is NOTIFIED):
                    // runnable again immediately.
                    Err(_) => {
                        shared.states[idx].store(READY, Ordering::SeqCst);
                        shared.enqueue(idx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Countdown {
        left: usize,
        hits: Arc<AtomicUsize>,
    }

    impl Task for Countdown {
        fn step(&mut self) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            self.left -= 1;
            self.hits.fetch_add(1, Ordering::SeqCst);
            Step::Yield
        }
    }

    #[test]
    fn all_tasks_run_to_completion_at_any_worker_count() {
        for workers in [1usize, 2, 8, 64] {
            let hits = Arc::new(AtomicUsize::new(0));
            let tasks: Vec<Box<dyn Task>> = (0..12)
                .map(|i| {
                    Box::new(Countdown {
                        left: i + 1,
                        hits: Arc::clone(&hits),
                    }) as Box<dyn Task>
                })
                .collect();
            let stats = run_tasks(tasks, workers, |_| ());
            assert_eq!(hits.load(Ordering::SeqCst), (1..=12).sum::<usize>());
            assert_eq!(stats.parks, 0, "yield-only tasks never park");
        }
    }

    /// A waits parked until B flips the flag and wakes it — on one
    /// worker this deadlocks unless parking actually releases the
    /// worker and the wake re-enqueues A.
    struct Waiter {
        flag: Arc<AtomicBool>,
        waker_slot: Arc<Mutex<Option<Waker>>>,
    }

    impl Task for Waiter {
        fn bind(&mut self, waker: Waker) {
            *self.waker_slot.lock().unwrap() = Some(waker);
        }

        fn step(&mut self) -> Step {
            if self.flag.load(Ordering::SeqCst) {
                Step::Done
            } else {
                Step::Park
            }
        }
    }

    struct Setter {
        flag: Arc<AtomicBool>,
        peer_waker: Arc<Mutex<Option<Waker>>>,
    }

    impl Task for Setter {
        fn step(&mut self) -> Step {
            self.flag.store(true, Ordering::SeqCst);
            if let Some(w) = self.peer_waker.lock().unwrap().as_ref() {
                w.wake();
            }
            Step::Done
        }
    }

    #[test]
    fn park_then_wake_crosses_tasks_on_one_worker() {
        for workers in [1usize, 2] {
            let flag = Arc::new(AtomicBool::new(false));
            let slot = Arc::new(Mutex::new(None));
            let tasks: Vec<Box<dyn Task>> = vec![
                Box::new(Waiter {
                    flag: Arc::clone(&flag),
                    waker_slot: Arc::clone(&slot),
                }),
                Box::new(Setter {
                    flag: Arc::clone(&flag),
                    peer_waker: Arc::clone(&slot),
                }),
            ];
            let stats = run_tasks(tasks, workers, |_| ());
            assert!(flag.load(Ordering::SeqCst));
            assert!(stats.wakes >= 1);
        }
    }

    #[test]
    fn setup_guard_runs_per_worker_and_drops() {
        let setups = Arc::new(AtomicUsize::new(0));
        let drops = Arc::new(AtomicUsize::new(0));
        struct Guard(Arc<AtomicUsize>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn Task>> = (0..4)
            .map(|_| {
                Box::new(Countdown {
                    left: 3,
                    hits: Arc::clone(&hits),
                }) as Box<dyn Task>
            })
            .collect();
        run_tasks(tasks, 3, |_w| {
            setups.fetch_add(1, Ordering::SeqCst);
            Guard(Arc::clone(&drops))
        });
        assert_eq!(setups.load(Ordering::SeqCst), 3);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn worker_count_is_clamped_to_task_count() {
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn Task>> = vec![Box::new(Countdown {
            left: 1,
            hits: Arc::clone(&hits),
        })];
        let setups = Arc::new(AtomicUsize::new(0));
        run_tasks(tasks, 16, |_| {
            setups.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(setups.load(Ordering::SeqCst), 1);
    }

    struct Bomb;
    impl Task for Bomb {
        fn step(&mut self) -> Step {
            panic!("task exploded");
        }
    }

    #[test]
    #[should_panic(expected = "task exploded")]
    fn task_panic_propagates_to_caller() {
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn Task>> = vec![
            Box::new(Countdown {
                left: 1000,
                hits: Arc::clone(&hits),
            }),
            Box::new(Bomb),
        ];
        run_tasks(tasks, 2, |_| ());
    }

    #[test]
    fn worker_config_resolution() {
        assert_eq!(WorkerConfig::resolve(Some("3")).workers, 3);
        assert_eq!(WorkerConfig::resolve(Some(" 2 ")).workers, 2);
        let fallback = WorkerConfig::resolve(None).workers;
        assert!(fallback >= 1);
        assert_eq!(WorkerConfig::resolve(Some("0")).workers, fallback);
        assert_eq!(WorkerConfig::resolve(Some("nope")).workers, fallback);
        assert_eq!(WorkerConfig::new(0).workers, 1);
    }

    #[test]
    fn empty_task_list_returns_immediately() {
        let stats = run_tasks(Vec::new(), 4, |_| ());
        assert_eq!(stats.parks + stats.steals + stats.wakes, 0);
    }
}
