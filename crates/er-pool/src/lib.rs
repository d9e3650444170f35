//! A persistent worker pool with scoped, panic-isolated task execution.
//!
//! Before this crate, the workspace ran three separate threading
//! disciplines: the serving tier spawned one OS thread per connection, the
//! scoring executor spawned a fresh [`std::thread::scope`] per batch, and
//! the trainer spawned fresh workers per epoch pass. [`WorkerPool`]
//! collapses all three into one discipline: a fixed set of persistent
//! worker threads ("lanes") that take work from a shared injector queue,
//! plus the submitting thread itself, which participates in draining the
//! queue while it waits ([`WorkerPool::scope`]). Spawning threads is paid
//! once per pool, not once per batch or per epoch.
//!
//! # Determinism
//!
//! The pool executes tasks in whatever order lanes steal them, but that is
//! invisible to results by construction: callers partition work into chunks
//! *before* spawning (a pure function of item count), each task writes only
//! its own output slice, and reduction happens on the calling thread in
//! ascending chunk order after [`WorkerPool::scope`] returns. Scores and
//! gradients are therefore bit-identical across lane counts — the property
//! the executor's and trainer's bit-exactness tests pin down.
//!
//! # Panic isolation
//!
//! Every task runs under [`std::panic::catch_unwind`]. A panic in one task
//! never tears down a lane (lanes are reused for the next scope) and never
//! poisons sibling tasks; payloads come back in the [`ScopeOutcome`],
//! indexed by spawn order, so callers choose between recovery (the serving
//! executor re-scores panicked chunks sequentially) and propagation (the
//! trainer calls [`ScopeOutcome::propagate`]).
//!
//! # Example
//!
//! ```
//! use er_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let items: Vec<u64> = (1..=8).collect();
//! let mut squares = vec![0u64; items.len()];
//! let outcome = pool.scope(|scope| {
//!     for (input, out) in items.chunks(2).zip(squares.chunks_mut(2)) {
//!         scope.spawn(move || {
//!             for (i, o) in input.iter().zip(out.iter_mut()) {
//!                 *o = i * i;
//!             }
//!         });
//!     }
//! });
//! assert!(outcome.is_clean());
//! assert_eq!(squares, vec![1, 4, 9, 16, 25, 36, 49, 64]);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// A task whose borrows have been erased to `'static` for storage in the
/// injector. Safety of the erasure is argued at the single construction
/// site in [`WorkerPool::scope`].
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

/// What a panicking task carried out of [`std::panic::catch_unwind`].
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Locks a mutex, recovering from poisoning. Tasks run under
/// `catch_unwind`, so a poisoned pool lock means a panic *between* tasks —
/// the protected state is still consistent and the show must go on.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shared injector queue lanes steal work from.
struct Injector {
    queue: Mutex<VecDeque<ErasedTask>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

impl Injector {
    fn push_all(&self, tasks: Vec<ErasedTask>) {
        let mut queue = lock(&self.queue);
        queue.extend(tasks);
        drop(queue);
        self.ready.notify_all();
    }

    fn try_pop(&self) -> Option<ErasedTask> {
        lock(&self.queue).pop_front()
    }
}

/// Per-scope completion state: a countdown latch plus panic payloads by
/// spawn index.
struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panics: Mutex<Vec<Option<PanicPayload>>>,
}

/// A fixed-size pool of persistent worker threads. See the [module
/// docs](self) for the execution and determinism model.
///
/// The pool is `Sync`: any number of threads may run
/// [`scope`](Self::scope) concurrently on one shared pool (the serving
/// tier's property tests score through a reloading executor from several
/// threads at once). Dropping the pool joins every lane.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<thread::JoinHandle<()>>,
    lanes: usize,
}

/// Collects the tasks of one [`WorkerPool::scope`] call.
///
/// [`spawn`](Self::spawn) only *registers* a task; nothing runs until the
/// scope closure returns, at which point all registered tasks are submitted
/// together. Task indices in the resulting [`ScopeOutcome`] follow spawn
/// order.
pub struct Scope<'env> {
    tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
}

impl<'env> Scope<'env> {
    /// Registers a task. It may borrow from the environment (`'env`)
    /// because [`WorkerPool::scope`] does not return until every task has
    /// run to completion.
    pub fn spawn<F>(&mut self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.tasks.push(Box::new(task));
    }
}

/// What happened to each task of a completed scope, indexed by spawn
/// order. All tasks have finished by the time this exists.
pub struct ScopeOutcome {
    panics: Vec<Option<PanicPayload>>,
}

impl ScopeOutcome {
    /// `true` when no task panicked.
    pub fn is_clean(&self) -> bool {
        self.panics.iter().all(|p| p.is_none())
    }

    /// How many tasks panicked.
    pub fn panic_count(&self) -> usize {
        self.panics.iter().filter(|p| p.is_some()).count()
    }

    /// Spawn-order indices of the tasks that panicked, ascending.
    pub fn panicked_indices(&self) -> Vec<usize> {
        self.panics
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_some().then_some(i))
            .collect()
    }

    /// Re-raises the first panic (by spawn order), if any — the behavior of
    /// [`std::thread::scope`], for callers that treat a worker panic as
    /// fatal (the trainer).
    pub fn propagate(self) {
        if let Some(payload) = self.panics.into_iter().flatten().next() {
            resume_unwind(payload);
        }
    }
}

impl WorkerPool {
    /// Creates a pool with `lanes` execution lanes (clamped to at least 1).
    ///
    /// `lanes - 1` persistent worker threads are spawned; the final lane is
    /// the thread calling [`scope`](Self::scope), which drains the injector
    /// alongside the workers instead of blocking idle. A one-lane pool
    /// spawns no threads at all and runs every task inline, in spawn order.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let injector = Arc::new(Injector {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..lanes)
            .map(|i| {
                let injector = Arc::clone(&injector);
                thread::Builder::new()
                    .name(format!("er-pool-{i}"))
                    .spawn(move || worker_loop(&injector))
                    .unwrap_or_else(|e| panic!("spawning er-pool lane {i}: {e}"))
            })
            .collect();
        Self {
            injector,
            workers,
            lanes,
        }
    }

    /// The number of execution lanes (worker threads + the calling
    /// thread).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs a batch of tasks to completion and reports per-task panics.
    ///
    /// `build` registers tasks on the [`Scope`]; when it returns, all tasks
    /// are submitted to the injector at once and the calling thread joins
    /// the lanes in draining it. `scope` returns only after every
    /// registered task has finished, so tasks may borrow the caller's
    /// stack:
    ///
    /// ```
    /// use er_pool::WorkerPool;
    ///
    /// let pool = WorkerPool::new(2);
    /// let mut halves = [0u32; 2];
    /// let (left, right) = halves.split_at_mut(1);
    /// pool.scope(|s| {
    ///     s.spawn(|| left[0] = 1);
    ///     s.spawn(|| right[0] = 2);
    /// });
    /// assert_eq!(halves, [1, 2]);
    /// ```
    pub fn scope<'env, F>(&self, build: F) -> ScopeOutcome
    where
        F: FnOnce(&mut Scope<'env>),
    {
        let mut scope = Scope { tasks: Vec::new() };
        build(&mut scope);
        let tasks = scope.tasks;
        let n = tasks.len();
        if n == 0 {
            return ScopeOutcome { panics: Vec::new() };
        }
        if self.workers.is_empty() {
            // One lane: run inline in spawn order, no queue traffic.
            let panics = tasks
                .into_iter()
                .map(|task| catch_unwind(AssertUnwindSafe(task)).err())
                .collect();
            return ScopeOutcome { panics };
        }
        let state = Arc::new(ScopeState {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panics: Mutex::new((0..n).map(|_| None).collect()),
        });
        let wrapped: Vec<ErasedTask> = tasks
            .into_iter()
            .enumerate()
            .map(|(index, task)| {
                let state = Arc::clone(&state);
                let wrapper: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        lock(&state.panics)[index] = Some(payload);
                    }
                    let mut remaining = lock(&state.remaining);
                    *remaining -= 1;
                    if *remaining == 0 {
                        state.done.notify_all();
                    }
                });
                // SAFETY: the wrapper borrows from `'env` (through `task`).
                // Erasing that lifetime is sound because this function does
                // not return until `state.remaining` hits zero, i.e. until
                // every wrapper has run to completion and been dropped — no
                // borrow escapes `'env`. Tasks are pushed only after the
                // user closure returned, so nothing runs while the scope is
                // still being built.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, ErasedTask>(wrapper) }
            })
            .collect();
        self.injector.push_all(wrapped);
        // The calling thread is a lane too: drain the injector (possibly
        // running tasks of other concurrent scopes — helping them helps us
        // free lanes) until this scope's tasks are all done.
        loop {
            match self.injector.try_pop() {
                Some(task) => task(),
                None => {
                    let remaining = lock(&state.remaining);
                    if *remaining == 0 {
                        break;
                    }
                    // Queue empty but our tasks are in flight on other
                    // lanes; the last one to finish notifies `done`. The
                    // re-check above (under the same mutex the countdown
                    // uses) makes the wakeup race-free.
                    let _unused = state.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        let panics = std::mem::take(&mut *lock(&state.panics));
        ScopeOutcome { panics }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The flag is set under the queue lock: a worker checks it under
        // that lock right before waiting, so an unlocked store could land
        // between the check and the wait, and its notify would be lost.
        {
            let _queue = lock(&self.injector.queue);
            self.injector.shutdown.store(true, Ordering::Release);
        }
        self.injector.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _unused = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("lanes", &self.lanes).finish()
    }
}

fn worker_loop(injector: &Injector) {
    loop {
        let task = {
            let mut queue = lock(&injector.queue);
            loop {
                if injector.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = injector.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Wrappers contain their own catch_unwind; a panicking task cannot
        // unwind into this loop.
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    /// The chunked-sum harness every caller of the pool follows: partition
    /// by item count, one output slot per chunk, reduce in chunk order.
    fn chunked_sum(pool: &WorkerPool, values: &[f64], chunk: usize) -> f64 {
        let chunks: Vec<&[f64]> = values.chunks(chunk).collect();
        let mut partials = vec![0.0f64; chunks.len()];
        let outcome = pool.scope(|s| {
            for (input, out) in chunks.iter().zip(partials.iter_mut()) {
                s.spawn(move || *out = input.iter().sum());
            }
        });
        assert!(outcome.is_clean());
        partials.iter().sum()
    }

    #[test]
    fn results_are_bit_identical_across_lane_counts() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.739 + 0.01).collect();
        let reference = chunked_sum(&WorkerPool::new(1), &values, 64);
        for lanes in [2usize, 3, 4, 7] {
            let pool = WorkerPool::new(lanes);
            for _ in 0..5 {
                let sum = chunked_sum(&pool, &values, 64);
                assert_eq!(
                    sum.to_bits(),
                    reference.to_bits(),
                    "chunk-order reduction must not depend on lane count ({lanes} lanes)"
                );
            }
        }
    }

    #[test]
    fn panics_are_captured_by_spawn_index_and_siblings_complete() {
        let pool = WorkerPool::new(3);
        let done = AtomicUsize::new(0);
        let outcome = pool.scope(|s| {
            for i in 0..8 {
                let done = &done;
                s.spawn(move || {
                    if i == 2 || i == 5 {
                        panic!("task {i} down");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(outcome.panic_count(), 2);
        assert_eq!(outcome.panicked_indices(), vec![2, 5]);
        assert!(!outcome.is_clean());
        assert_eq!(done.load(Ordering::SeqCst), 6, "non-panicking siblings all ran");
        // The pool survives and the next scope is clean.
        let outcome = pool.scope(|s| s.spawn(|| {}));
        assert!(outcome.is_clean());
    }

    #[test]
    fn propagate_resumes_the_first_panic_in_spawn_order() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("first"));
                s.spawn(|| panic!("second"));
            })
            .propagate();
        }));
        let payload = result.expect_err("must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "first");
    }

    #[test]
    fn a_pool_is_reusable_across_many_scopes() {
        let pool = WorkerPool::new(4);
        let values: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let expected = chunked_sum(&pool, &values, 32);
        for _ in 0..200 {
            assert_eq!(chunked_sum(&pool, &values, 32).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn concurrent_scopes_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let values: Vec<f64> = (0..512).map(|i| (i as f64).sqrt()).collect();
        let expected = chunked_sum(&pool, &values, 16);
        thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let values = &values;
                s.spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(chunked_sum(&pool, values, 16).to_bits(), expected.to_bits());
                    }
                });
            }
        });
    }

    #[test]
    fn empty_scopes_and_zero_lanes_are_fine() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.lanes(), 1);
        let outcome = pool.scope(|_| {});
        assert!(outcome.is_clean());
        assert_eq!(outcome.panic_count(), 0);
        assert!(outcome.panicked_indices().is_empty());
        outcome.propagate(); // no-op on a clean outcome
    }

    #[test]
    fn the_calling_thread_participates_in_execution() {
        // A one-lane pool has no workers at all, so tasks can only run on
        // the calling thread; observing the current thread name proves it.
        let pool = WorkerPool::new(1);
        let caller = thread::current().id();
        let mut seen = None;
        pool.scope(|s| {
            s.spawn(|| seen = Some(thread::current().id()));
        });
        assert_eq!(seen, Some(caller));
    }

    #[test]
    fn dropping_a_pool_never_loses_the_shutdown_wakeup() {
        // A worker checks the shutdown flag and then waits for work; a drop
        // landing between the two must still wake it, or the drop's join
        // hangs forever. Freshly spawned workers are usually right there, so
        // build-and-drop many pools and bound the whole run.
        let (done, finished) = mpsc::channel();
        thread::spawn(move || {
            for _ in 0..2000 {
                drop(WorkerPool::new(3));
            }
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(30)).is_ok(),
            "a pool drop hung joining its workers"
        );
    }
}
