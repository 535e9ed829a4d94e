//! Std-only scoped thread pool and data-parallel helpers.
//!
//! This crate is the workspace's parallel execution layer. The build
//! environment has no crates.io access, so instead of rayon it provides a
//! small, deliberately boring pool built only on `std::thread`,
//! `std::sync::mpsc`, and a condvar latch — sized from the engine's
//! `threads` knob (`0` = one worker per available core).
//!
//! # Design: persistent workers + scoped submission
//!
//! A [`ThreadPool`] spawns its workers **once** and parks them on a shared
//! job channel; ranking workloads execute thousands of short parallel
//! regions (one per power-iteration step), so per-region `thread::spawn`
//! would dominate the very kernels being accelerated. Jobs sent to a
//! persistent worker must be `'static`, yet every useful job borrows the
//! caller's buffers. [`ThreadPool::scope`] bridges the two the same way
//! crossbeam's scope does: a job's lifetime is erased when it is enqueued
//! (the one `unsafe` in this crate) and the scope **always joins every
//! spawned job before returning** — even when the scope body or a job
//! panics — so the borrow can never outlive the data. Panics inside jobs
//! are caught, carried across the latch, and resumed on the caller.
//!
//! A pool built with one thread (or on a single-core host) is a **serial
//! pool**: [`Scope::spawn`] runs the closure inline on the caller's stack.
//! The helpers below are written so that the arithmetic they perform is
//! *identical* for every pool size — see "Determinism".
//!
//! # Determinism
//!
//! Rankings must not depend on the thread count (`threads(1)` and
//! `threads(8)` have to produce bit-identical score vectors), so every
//! helper keeps floating-point evaluation order fixed:
//!
//! * [`ThreadPool::par_map`] writes each result into its own slot — output
//!   order is the input order no matter which worker claims which item;
//! * [`ThreadPool::par_chunks_mut`] gives each task a disjoint output
//!   range — elementwise kernels never race and never reorder;
//! * [`ThreadPool::par_reduce`] splits `0..len` on a **fixed chunk grid**
//!   (a function of `len` and `chunk` only, never of the worker count) and
//!   folds the partial values in ascending chunk order. The grouping of a
//!   floating-point sum is therefore a property of the call, not of the
//!   schedule.
//!
//! # Why gather beats scatter for `Mᵀx`
//!
//! The pool exists to parallelize the ranking hot path, `y = Mᵀ x`. The
//! seed implementation walked the rows of `M` and **scattered**
//! `y[col] += v · x[row]` — every thread would write every part of `y`,
//! which is a data race unless each output is atomic or privatized. The
//! parallel kernel in `lmm-linalg` instead materializes `Mᵀ` once and
//! **gathers**: row `r` of `Mᵀ` computes `y[r] = Σ v·x[col]`, so each
//! thread owns a disjoint slice of `y` (no synchronization on the output),
//! reads `Mᵀ`'s values sequentially (hardware prefetch works), and the
//! in-row accumulation order equals the serial scatter order (bit-identical
//! results). See `lmm_linalg::StationaryOperator` for the kernel itself.
//!
//! # Nesting
//!
//! Scopes must not be nested on the same parallel pool from inside a job:
//! the inner scope would wait for queue slots held by its own ancestors.
//! As a safety net every worker marks its thread, and [`Scope::spawn`]
//! called from a worker thread runs the job inline instead of enqueueing
//! it — nested parallelism degrades to serial execution instead of
//! deadlocking. Keep inner solvers (e.g. one site's PageRank) explicitly
//! serial; parallelize at the outermost independent level.
//!
//! # Example
//!
//! ```
//! use lmm_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_map(&[1, 2, 3, 4], |_, &v| v * v);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let sum = pool
//!     .par_reduce(1_000, 64, |r| r.map(|i| i as f64).sum::<f64>(), |a, b| a + b)
//!     .unwrap();
//! assert_eq!(sum, 499_500.0);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Sound for every mutex in this crate: they protect a latch counter, a
/// panic payload slot, take-once task slots, and the pool registry — all
/// of which stay valid across any panic point (jobs themselves run under
/// `catch_unwind`, so a poisoned flag carries no extra information here).
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set while the current thread is a pool worker executing a job; used
    /// to run nested spawns inline instead of deadlocking the queue.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Resolves a `threads` knob to a concrete worker count: `0` means one per
/// available core (falling back to 1 when the parallelism is unknown).
#[must_use]
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// A fixed-size pool of persistent worker threads with scoped (borrowing)
/// job submission. See the crate docs for the design rationale.
pub struct ThreadPool {
    /// `None` for a serial pool: scoped jobs run inline on the caller.
    inner: Option<Inner>,
    threads: usize,
}

struct Inner {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Closing the channel wakes every parked worker with `Err`.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (`0` = one per available
    /// core). One thread — or a single-core host — yields a serial pool
    /// that runs every scoped job inline, spawning nothing.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = resolve_threads(threads);
        if threads <= 1 {
            return Self {
                inner: None,
                threads: 1,
            };
        }
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                thread::Builder::new()
                    .name(format!("lmm-par-{i}"))
                    .spawn(move || {
                        IN_WORKER.with(|flag| flag.set(true));
                        loop {
                            // Take the lock only to dequeue, never while
                            // running a job.
                            let job = match receiver.lock() {
                                Ok(guard) => guard.recv(),
                                Err(_) => break,
                            };
                            match job {
                                Ok(job) => job(),
                                Err(_) => break,
                            }
                        }
                    })
                    // lint: allow(panic, "thread spawn fails only on resource exhaustion at pool construction; no query path reaches this")
                    .expect("failed to spawn lmm-par worker")
            })
            .collect();
        Self {
            inner: Some(Inner {
                sender: Some(sender),
                workers,
            }),
            threads,
        }
    }

    /// A serial pool: every scoped job runs inline on the caller's thread.
    /// Construction is free (no threads, no channel).
    #[must_use]
    pub fn serial() -> Self {
        Self {
            inner: None,
            threads: 1,
        }
    }

    /// Returns the process-wide shared pool for a `threads` knob value,
    /// creating it on first use. Pools are keyed by their *resolved* worker
    /// count, so `0` and an explicit `available_parallelism()` share one
    /// pool. Shared pools live for the life of the process; their parked
    /// workers cost nothing between parallel regions.
    #[must_use]
    pub fn shared(threads: usize) -> Arc<ThreadPool> {
        static REGISTRY: Mutex<Vec<(usize, Arc<ThreadPool>)>> = Mutex::new(Vec::new());
        let resolved = resolve_threads(threads);
        let mut registry = lock_clean(&REGISTRY);
        if let Some((_, pool)) = registry.iter().find(|(n, _)| *n == resolved) {
            return Arc::clone(pool);
        }
        let pool = Arc::new(ThreadPool::new(resolved));
        registry.push((resolved, Arc::clone(&pool)));
        pool
    }

    /// Number of workers (1 for a serial pool).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when scoped jobs run inline on the caller's thread.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.inner.is_none()
    }

    /// Runs `f` with a [`Scope`] on which borrowing jobs can be spawned;
    /// returns after **all** spawned jobs have finished. The first panic
    /// from the body or any job is resumed on the caller once every job
    /// has completed.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: PhantomData,
        };
        let body = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Soundness: block until every enqueued job has run, even when the
        // body panicked — jobs still hold borrows into `'env`.
        let mut pending = lock_clean(&scope.state.pending);
        while *pending > 0 {
            pending = scope
                .state
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(pending);
        if let Some(payload) = lock_clean(&scope.state.panic).take() {
            resume_unwind(payload);
        }
        match body {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// The claiming primitive every fan-out here is built on: runs `f`
    /// once per task, with tasks handed **by value** to whichever worker
    /// claims them (an atomic cursor over take-once slots). Use this
    /// directly for owned work items (e.g. disjoint `&mut` sub-slices);
    /// prefer [`ThreadPool::par_map`] when results must come back in
    /// order.
    pub fn par_tasks<T, F>(&self, tasks: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(T) + Sync,
    {
        if self.is_serial() || tasks.len() <= 1 {
            for task in tasks {
                f(task);
            }
            return;
        }
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(slots.len());
        self.scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let task = lock_clean(&slots[i])
                        .take()
                        // lint: allow(panic, "the atomic cursor hands each index to exactly one worker; a refilled slot is a lint-crate bug worth crashing on")
                        .expect("task claimed twice");
                    f(task);
                });
            }
        });
    }

    /// Applies `f` to every element of `items` (receiving the index and the
    /// element) and returns the results **in input order**. Items are
    /// claimed dynamically, so unevenly sized tasks (per-site solves)
    /// balance across workers.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.par_tasks(items.iter().enumerate().collect(), |(i, item)| {
            let value = f(i, item);
            *lock_clean(&slots[i]) = Some(value);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // lint: allow(panic, "scope() resumes any job panic before this runs, so every slot was filled by its claiming worker")
                    .expect("par_map slot unfilled")
            })
            .collect()
    }

    /// Splits `data` into chunks of `chunk` elements (the last may be
    /// shorter) and runs `f(offset, chunk)` on each, in parallel. Chunks
    /// are disjoint, so elementwise kernels are race-free and the result
    /// is identical for every pool size.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if self.is_serial() || data.len() <= chunk {
            for (i, piece) in data.chunks_mut(chunk).enumerate() {
                f(i * chunk, piece);
            }
            return;
        }
        let pieces: Vec<(usize, &mut [T])> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, piece)| (i * chunk, piece))
            .collect();
        self.par_tasks(pieces, |(offset, piece)| f(offset, piece));
    }

    /// Parallel reduction over the index range `0..len`: `map` turns each
    /// chunk of the **fixed grid** `[0..chunk)`, `[chunk..2·chunk)`, …
    /// into a partial value; partials are folded in ascending chunk order.
    /// Because the grid depends only on `len` and `chunk`, the
    /// floating-point grouping — and therefore the result — is identical
    /// for every pool size, including the serial pool. Returns `None` when
    /// `len == 0`.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    pub fn par_reduce<A, M, F>(&self, len: usize, chunk: usize, map: M, fold: F) -> Option<A>
    where
        A: Send,
        M: Fn(Range<usize>) -> A + Sync,
        F: FnMut(A, A) -> A,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if len == 0 {
            return None;
        }
        let ranges: Vec<Range<usize>> = (0..len.div_ceil(chunk))
            .map(|i| i * chunk..((i + 1) * chunk).min(len))
            .collect();
        let partials = self.par_map(&ranges, |_, range| map(range.clone()));
        partials.into_iter().reduce(fold)
    }
}

struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Handle for spawning borrowing jobs inside [`ThreadPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a job that may borrow `'env` data. On a serial pool — or
    /// when called from inside a pool worker (nested parallelism) — the
    /// job runs inline on the current thread.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let Some(inner) = &self.pool.inner else {
            f();
            return;
        };
        if IN_WORKER.with(Cell::get) {
            f();
            return;
        }
        *lock_clean(&self.state.pending) += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = lock_clean(&state.panic);
                slot.get_or_insert(payload);
            }
            let mut pending = lock_clean(&state.pending);
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: the job's only non-'static captures borrow `'env` data.
        // `ThreadPool::scope` blocks until `pending` reaches zero before it
        // returns (even on panic), so the job finishes — and drops the
        // closure — strictly before any `'env` borrow can expire. The
        // transmute only erases the lifetime; the vtable and layout of the
        // boxed closure are unchanged.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        inner
            .sender
            .as_ref()
            // lint: allow(panic, "the sender is only taken in Drop, which cannot run while this &self borrow is live")
            .expect("pool sender alive while pool is alive")
            .send(job)
            // lint: allow(panic, "workers only exit after the sender hangs up; send can fail only if a worker died to a resource error, which must not be silent")
            .expect("pool workers alive while pool is alive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert!(pool.is_serial());
        assert_eq!(pool.threads(), 1);
        let caller = thread::current().id();
        pool.scope(|s| {
            s.spawn(|| assert_eq!(thread::current().id(), caller));
        });
    }

    #[test]
    fn scope_joins_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = ThreadPool::new(2);
        let value = pool.scope(|_| 42);
        assert_eq!(value, 42);
    }

    #[test]
    fn par_tasks_runs_each_task_once() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.par_tasks((0..100).collect(), |i: usize| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn par_tasks_moves_owned_mutable_slices() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0usize; 30];
        let pieces: Vec<(usize, &mut [usize])> = data
            .chunks_mut(7)
            .enumerate()
            .map(|(i, c)| (i * 7, c))
            .collect();
        pool.par_tasks(pieces, |(offset, piece)| {
            for (i, v) in piece.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let items: Vec<usize> = (0..257).collect();
            let doubled = pool.par_map(&items, |i, &v| {
                assert_eq!(i, v);
                v * 2
            });
            assert_eq!(doubled, items.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_borrows_environment() {
        let pool = ThreadPool::new(4);
        let data = vec![1.0f64, 2.0, 3.0];
        let scale = 10.0;
        let out = pool.par_map(&data, |_, &v| v * scale);
        assert_eq!(out, vec![10.0, 20.0, 30.0]);
        // `data` still usable: the borrow ended with the call.
        assert_eq!(data.len(), 3);
    }

    #[test]
    fn par_chunks_mut_covers_all_chunks() {
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0usize; 1000];
            pool.par_chunks_mut(&mut data, 64, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = offset + i;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn par_reduce_is_pool_size_independent() {
        // The fold grouping is fixed by the chunk grid, so wildly different
        // pool sizes must agree bit-for-bit on an ill-conditioned sum.
        let values: Vec<f64> = (0..10_000)
            .map(|i| {
                if i % 2 == 0 {
                    1e16
                } else {
                    1.0 + i as f64 * 1e-3
                }
            })
            .collect();
        let sum = |pool: &ThreadPool| {
            pool.par_reduce(
                values.len(),
                128,
                |r| values[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let serial = sum(&ThreadPool::new(1));
        for threads in [2, 4, 7] {
            let parallel = sum(&ThreadPool::new(threads));
            assert_eq!(serial.to_bits(), parallel.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn par_reduce_empty_is_none() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.par_reduce(0, 8, |_| 1.0f64, |a, b| a + b), None);
    }

    #[test]
    fn job_panic_propagates_after_join() {
        let pool = ThreadPool::new(2);
        let finished = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {
                    finished.store(true, Ordering::SeqCst);
                });
            });
        }));
        assert!(result.is_err());
        // The sibling job still ran to completion before the panic resumed.
        assert!(finished.load(Ordering::SeqCst));
        // The pool survives a panicked scope.
        let ok = pool.par_map(&[1, 2, 3], |_, &v| v + 1);
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_panic_propagates() {
        let pool = ThreadPool::new(2);
        let items: Vec<usize> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |_, &v| {
                assert!(v != 17, "poisoned item");
                v
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn nested_scope_degrades_to_inline() {
        // A job that opens another scope on the same pool must not
        // deadlock; the inner jobs run inline on the worker.
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn shared_registry_reuses_pools() {
        let a = ThreadPool::shared(2);
        let b = ThreadPool::shared(2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = ThreadPool::shared(3);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn uneven_workloads_balance() {
        let pool = ThreadPool::new(4);
        let sizes: Vec<usize> = (0..40).map(|i| (i % 7) * 1_000).collect();
        let sums = pool.par_map(&sizes, |_, &n| (0..n).map(|i| i as f64).sum::<f64>());
        for (n, s) in sizes.iter().zip(&sums) {
            let expected = (0..*n).map(|i| i as f64).sum::<f64>();
            assert_eq!(*s, expected);
        }
    }
}
