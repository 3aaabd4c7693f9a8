//! Deterministic in-workspace thread pool (DESIGN.md §9).
//!
//! The hermetic-build policy (§8) rules out `rayon`, so the workspace
//! supplies its own parallelism: a std-only, work-stealing-lite pool with
//! a fixed logical thread count taken from `KGAG_THREADS` (defaulting to
//! the machine's available parallelism). Every parallel primitive here is
//! **deterministic by construction**: work is split into chunks that each
//! write to a preallocated, disjoint output slot, and the per-element
//! computation order inside a chunk is identical to the sequential code.
//! Results are therefore bit-identical at any thread count — the
//! scheduler decides *when* a chunk runs, never *what* it computes.
//!
//! Three layers:
//!
//! * [`scope`] — run a batch of borrowed closures to completion. A task
//!   that panics *poisons the scope*: the remaining tasks still run (they
//!   borrow stack data that must stay alive), and the first panic is
//!   re-thrown on the caller once the batch has drained. No deadlocks,
//!   no orphaned borrows.
//! * [`par_chunks_mut`] / [`par_map`] — deterministic data-parallel
//!   helpers built on [`scope`]; these are what the tensor kernels,
//!   the neighbor sampler and the trainer use.
//! * [`with_threads`] — a thread-local override of the logical thread
//!   count, so determinism tests and scaling benchmarks can compare
//!   thread counts inside one process.
//!
//! The caller always participates in executing its own batch, so
//! `KGAG_THREADS=1` runs fully inline (zero worker threads, zero
//! synchronisation) and a worker blocked on a nested scope keeps making
//! progress by draining the shared queue instead of sleeping.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on the logical thread count (sanity guard against
/// `KGAG_THREADS=100000`).
pub const MAX_THREADS: usize = 64;

// ----------------------------------------------------------------------
// Thread-count policy
// ----------------------------------------------------------------------

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("KGAG_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            .min(MAX_THREADS)
    })
}

/// The logical thread count in force on this thread: the innermost
/// [`with_threads`] override, else `KGAG_THREADS`, else the machine's
/// available parallelism.
pub fn num_threads() -> usize {
    THREAD_OVERRIDE.with(|o| o.get()).unwrap_or_else(env_threads)
}

/// Run `f` with the logical thread count forced to `n` on this thread.
///
/// Restores the previous value on exit (also on panic). This is how the
/// determinism suite and the oracle suites compare thread counts without
/// re-launching the process.
///
/// # Panics
/// Panics when `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "with_threads needs at least one thread");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n.min(MAX_THREADS)))));
    f()
}

// ----------------------------------------------------------------------
// The pool
// ----------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    spawned: Mutex<usize>,
}

impl Pool {
    fn new() -> Self {
        Pool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// Make sure at least `wanted` worker threads exist (capped at
    /// `MAX_THREADS - 1`; the caller thread is the final executor).
    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(MAX_THREADS - 1);
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < wanted {
            let shared = Arc::clone(&self.shared);
            let index = *spawned;
            std::thread::Builder::new()
                .name(format!("kgag-pool-{index}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        job();
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

// ----------------------------------------------------------------------
// Telemetry
// ----------------------------------------------------------------------

/// Metric handles are interned once per process; every later record is a
/// plain atomic op. Nothing here runs unless `kgag_obs::enabled()`.
struct PoolMetrics {
    scopes: Arc<kgag_obs::Counter>,
    tasks: Arc<kgag_obs::Counter>,
    task_ns: Arc<kgag_obs::Histogram>,
    scope_busy_ns: Arc<kgag_obs::Histogram>,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        scopes: kgag_obs::counter("pool.scopes"),
        tasks: kgag_obs::counter("pool.tasks"),
        task_ns: kgag_obs::histogram("pool.task_ns"),
        scope_busy_ns: kgag_obs::histogram("pool.scope_busy_ns"),
    })
}

// ----------------------------------------------------------------------
// Scoped batches
// ----------------------------------------------------------------------

struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Summed task execution time (telemetry only; stays 0 when off).
    busy_ns: AtomicU64,
}

impl Batch {
    fn new(tasks: usize) -> Self {
        Batch {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(p) = panic {
            let mut slot = self.panic.lock().unwrap();
            // keep the first panic; later ones are usually knock-on
            slot.get_or_insert(p);
        }
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap();
        }
    }
}

/// Collects tasks spawned inside [`scope`].
pub struct Scope<'env> {
    tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
}

impl<'env> Scope<'env> {
    /// Queue a task; it runs when the `scope` closure returns.
    pub fn spawn(&mut self, f: impl FnOnce() + Send + 'env) {
        self.tasks.push(Box::new(f));
    }
}

/// Run every task spawned on the [`Scope`] to completion, in parallel
/// when the logical thread count allows, and return the closure's value.
///
/// Tasks may borrow from the enclosing stack frame (`'env`): the call
/// does not return until every task has finished. If any task panics the
/// scope is *poisoned* — all other tasks still run to completion, then
/// the first panic is re-thrown here.
pub fn scope<'env, R>(f: impl FnOnce(&mut Scope<'env>) -> R) -> R {
    let mut s = Scope { tasks: Vec::new() };
    let out = f(&mut s);
    run_tasks(s.tasks);
    out
}

fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    if tasks.is_empty() {
        return;
    }
    let telemetry = kgag_obs::enabled();
    if telemetry {
        let m = metrics();
        m.scopes.add(1);
        m.tasks.add(tasks.len() as u64);
    }
    if num_threads() == 1 || tasks.len() == 1 {
        if telemetry {
            let m = metrics();
            let mut busy = 0u64;
            for task in tasks {
                let start = Instant::now();
                task();
                let ns = start.elapsed().as_nanos() as u64;
                m.task_ns.record(ns);
                busy += ns;
            }
            m.scope_busy_ns.record(busy);
        } else {
            for task in tasks {
                task();
            }
        }
        return;
    }
    let batch = Arc::new(Batch::new(tasks.len()));
    let pool = pool();
    pool.ensure_workers(num_threads() - 1);
    {
        let mut queue = pool.shared.queue.lock().unwrap();
        for task in tasks {
            // SAFETY: `run_tasks` blocks below until `batch.remaining`
            // reaches zero, i.e. until every task has finished running,
            // so the non-'static borrows captured by the tasks are live
            // for the whole execution.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            let b = Arc::clone(&batch);
            queue.push_back(Box::new(move || {
                let start = telemetry.then(Instant::now);
                let outcome = catch_unwind(AssertUnwindSafe(task));
                if let Some(start) = start {
                    let ns = start.elapsed().as_nanos() as u64;
                    metrics().task_ns.record(ns);
                    b.busy_ns.fetch_add(ns, Ordering::Relaxed);
                }
                b.complete(outcome.err());
            }));
        }
    }
    pool.shared.available.notify_all();
    // The caller participates: drain the shared queue (its own tasks and
    // any other in-flight batch's — work-stealing-lite) until empty,
    // then block until the stragglers running on workers finish.
    loop {
        let job = pool.shared.queue.lock().unwrap().pop_front();
        match job {
            Some(job) => job(),
            None => break,
        }
    }
    batch.wait();
    if telemetry {
        metrics().scope_busy_ns.record(batch.busy_ns.load(Ordering::Relaxed));
    }
    let panic = batch.panic.lock().unwrap().take();
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

// ----------------------------------------------------------------------
// Deterministic data-parallel helpers
// ----------------------------------------------------------------------

/// Split `data` into consecutive chunks of `chunk_len` elements (the
/// last may be shorter) and run `f(chunk_index, chunk)` for each, in
/// parallel. Chunk `i` always covers `data[i*chunk_len ..]` — outputs
/// land in the same slots at any thread count.
///
/// # Panics
/// Panics when `chunk_len == 0` and `data` is non-empty.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "par_chunks_mut with chunk_len == 0");
    if num_threads() == 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    scope(|s| {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            s.spawn(move || f(i, chunk));
        }
    });
}

/// Map `f(index, item)` over `items`, returning results in input order.
/// The split into per-thread bands never affects the output.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = num_threads();
    if threads == 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let band = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    scope(|s| {
        for (bi, (out_band, in_band)) in out.chunks_mut(band).zip(items.chunks(band)).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = bi * band;
                for (j, (slot, item)) in out_band.iter_mut().zip(in_band).enumerate() {
                    *slot = Some(f(base + j, item));
                }
            });
        }
    });
    out.into_iter().map(|o| o.expect("par_map: every slot filled")).collect()
}

/// Chunk length that splits `total` items into at most `num_threads()`
/// contiguous bands of `unit`-aligned elements. `unit` is the indivisible
/// element group (e.g. a tensor row); the returned length is a multiple
/// of `unit`.
pub fn band_len(total_units: usize, unit: usize) -> usize {
    total_units.div_ceil(num_threads()).max(1) * unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_all_tasks() {
        let counter = AtomicUsize::new(0);
        with_threads(4, || {
            scope(|s| {
                for _ in 0..32 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn par_chunks_mut_covers_every_slot_once() {
        let mut data = vec![0u32; 1003];
        with_threads(4, || {
            par_chunks_mut(&mut data, 64, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x += (ci * 64 + j) as u32;
                }
            });
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u32, "slot {i} written {x}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..517).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 3 + i as u64).collect();
        for t in [1usize, 2, 3, 8] {
            let par = with_threads(t, || par_map(&items, |i, &x| x * 3 + i as u64));
            assert_eq!(par, seq, "thread count {t}");
        }
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outer = num_threads();
        with_threads(3, || assert_eq!(num_threads(), 3));
        assert_eq!(num_threads(), outer);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || panic!("boom"));
        }));
        assert!(caught.is_err());
        assert_eq!(num_threads(), outer, "override must unwind with the panic");
    }

    #[test]
    fn nested_scopes_make_progress() {
        let total = AtomicUsize::new(0);
        with_threads(4, || {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        scope(|inner| {
                            for _ in 0..8 {
                                inner.spawn(|| {
                                    total.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    });
                }
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panicking_task_poisons_scope_without_deadlock() {
        let survivors = Arc::new(AtomicUsize::new(0));
        let survivors_c = Arc::clone(&survivors);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                scope(|s| {
                    s.spawn(|| panic!("task exploded"));
                    for _ in 0..16 {
                        let sv = Arc::clone(&survivors_c);
                        s.spawn(move || {
                            sv.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        }));
        let err = outcome.expect_err("scope must re-throw the task panic");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task exploded"), "unexpected payload: {msg}");
        // poisoned, not aborted: every sibling task still ran
        assert_eq!(survivors.load(Ordering::SeqCst), 16);
    }
}
