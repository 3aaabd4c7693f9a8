//! The adaptive micro-batcher: one bounded queue, worker threads that
//! fuse queued requests into `score_batch` calls under a latency
//! budget, and a graceful drain on shutdown.
//!
//! Invariants (tested in `tests/serve_props.rs`, with stub scorers and
//! end to end on the real engine):
//!
//! * **Exactly-one response.** Every request accepted by
//!   [`ServeHandle::submit`] resolves exactly once — scores, or a
//!   terminal [`ServeError`]. Shutdown drains the queue; nothing
//!   accepted is dropped, nothing is answered twice.
//! * **Fusion is value-neutral.** Workers only ever *group* requests
//!   into [`ScoreCases::try_score_cases`] calls; they never reorder
//!   scores within a request or mix rows across requests, and a case
//!   the scorer rejects fails alone. With a chunking-invariant scorer
//!   (every `kgag` scorer), served scores are bit-identical to any
//!   offline scoring of the same cases.
//! * **Bounded memory.** The queue never exceeds
//!   [`ServeConfig::queue_capacity`]; overflow is an immediate
//!   [`ServeError::Rejected`], so a slow model sheds load instead of
//!   accumulating it.
//! * **No waiting for company that cannot come.** A batch window closes
//!   as soon as no registered submitter could still add a request to it;
//!   [`ServeConfig::batch_window`] is only its cap.

use crate::config::ServeConfig;
use crate::{ServeError, ServeResult};
use kgag::ScoreCases;
use kgag_tensor::pool;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// One queued request: what to score, when it expires, and where the
/// answer goes. The response channel has capacity 1 and each request is
/// answered at most once, so worker sends never block.
struct Pending {
    group: u32,
    items: Vec<u32>,
    deadline: Option<Instant>,
    enqueued: Instant,
    tx: mpsc::SyncSender<ServeResult>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// `false` once shutdown is triggered: no new submissions, workers
    /// drain the remainder and exit.
    open: bool,
}

/// Telemetry handles, interned once per process. Recording is a few
/// relaxed atomics — passive by the kgag-obs contract, so it never
/// perturbs scores.
struct Metrics {
    accepted: Arc<kgag_obs::Counter>,
    rejected: Arc<kgag_obs::Counter>,
    deadline_missed: Arc<kgag_obs::Counter>,
    responses: Arc<kgag_obs::Counter>,
    batches: Arc<kgag_obs::Counter>,
    queue_depth: Arc<kgag_obs::Gauge>,
    batch_requests: Arc<kgag_obs::Histogram>,
    latency_ns: Arc<kgag_obs::Histogram>,
    batch_score_ns: Arc<kgag_obs::Histogram>,
    scorer_panics: Arc<kgag_obs::Counter>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            accepted: kgag_obs::counter("serve.requests_accepted"),
            rejected: kgag_obs::counter("serve.requests_rejected"),
            deadline_missed: kgag_obs::counter("serve.deadline_missed"),
            responses: kgag_obs::counter("serve.responses"),
            batches: kgag_obs::counter("serve.batches"),
            queue_depth: kgag_obs::gauge("serve.queue_depth"),
            batch_requests: kgag_obs::histogram("serve.batch_requests"),
            latency_ns: kgag_obs::histogram("serve.latency_ns"),
            batch_score_ns: kgag_obs::histogram("serve.batch_score_ns"),
            scorer_panics: kgag_obs::counter("serve.scorer_panics"),
        }
    }
}

/// The count of submitters that could still add a request to an open
/// batch window: those registered, minus those blocked on a reply. A
/// window closes the moment it reaches 0, since nobody is left to send
/// the request it waits for.
///
/// Submitters are registered explicitly, never inferred from timing: an
/// open TCP connection of a [`crate::RegistryServer`] (one count shared
/// by every entry's batcher), or a [`ServeHandle`] that
/// [`serve_in_process`] hands out and each clone of it. The count is
/// signed: threads sharing one handle by reference block it once each,
/// and a count below 0 only means, like 0, that nobody is ready.
#[derive(Default)]
pub(crate) struct Submitters {
    ready: AtomicIsize,
}

impl Submitters {
    /// A submitter opened, or its reply arrived.
    pub(crate) fn add_ready(&self) {
        self.ready.fetch_add(1, Ordering::SeqCst);
    }

    /// A submitter closed, or blocked on a reply. `true` when nobody is
    /// left ready: the caller must then wake any window this count
    /// keeps open, unless it is about to push (which wakes a worker).
    pub(crate) fn sub_ready(&self) -> bool {
        self.ready.fetch_sub(1, Ordering::SeqCst) <= 1
    }

    fn none_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst) <= 0
    }

    /// Count the calling submitter out until the guard drops. Taken
    /// before a submit's push, it needs no wake of its own: the push
    /// notifies a worker, which then finds the count already lowered.
    pub(crate) fn block(&self) -> Blocked<'_> {
        self.sub_ready();
        Blocked(self)
    }
}

/// A submitter blocked on a reply; counted back in on drop.
pub(crate) struct Blocked<'a>(&'a Submitters);

impl Drop for Blocked<'_> {
    fn drop(&mut self) {
        self.0.add_ready();
    }
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
    cfg: ServeConfig,
    metrics: Metrics,
    /// Live requests: accepted but not yet responded to. Lets tests and
    /// the drain guard observe "everything answered" directly.
    in_flight: AtomicUsize,
    /// Who could still join an open window.
    submitters: Arc<Submitters>,
}

impl Shared {
    fn new(config: &ServeConfig, submitters: Arc<Submitters>) -> Arc<Shared> {
        Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), open: true }),
            cv: Condvar::new(),
            cfg: config.clone(),
            metrics: Metrics::new(),
            in_flight: AtomicUsize::new(0),
            submitters,
        })
    }

    /// Wake every worker so it re-checks its window. Taking the queue
    /// lock first orders this after any worker's check-then-wait, so a
    /// count that reached 0 before this call cannot be missed.
    fn wake(&self) {
        drop(self.state.lock());
        self.cv.notify_all();
    }

    fn shutdown(&self) {
        self.state.lock().unwrap().open = false;
        self.cv.notify_all();
    }
}

/// A cloneable client handle to a running batcher. All methods are
/// callable from any thread.
pub struct ServeHandle {
    shared: Arc<Shared>,
    /// Is this handle a registered submitter? The handles
    /// [`serve_in_process`] gives out and their clones are; those a
    /// [`BatcherGuard`] gives out are not, since their callers count
    /// themselves (the registry server counts its connections).
    submitter: bool,
}

impl ServeHandle {
    fn new(shared: &Arc<Shared>, submitter: bool) -> ServeHandle {
        if submitter {
            shared.submitters.add_ready();
        }
        ServeHandle { shared: Arc::clone(shared), submitter }
    }
}

impl Clone for ServeHandle {
    /// A clone of a submitter handle is a submitter of its own.
    fn clone(&self) -> ServeHandle {
        ServeHandle::new(&self.shared, self.submitter)
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if self.submitter && self.shared.submitters.sub_ready() {
            self.shared.wake();
        }
    }
}

/// An accepted request's pending response. [`wait`](Self::wait) blocks
/// until the batcher resolves it.
pub struct PendingResponse {
    rx: mpsc::Receiver<ServeResult>,
    /// The batcher, when a submitter handle sent the request: `wait`
    /// counts that submitter blocked.
    submitter: Option<Arc<Shared>>,
}

impl PendingResponse {
    /// Block until the request resolves. Returns
    /// [`ServeError::Canceled`] only if the server died abnormally
    /// before answering.
    pub fn wait(self) -> ServeResult {
        // the request is already queued, so no push wakes the window
        // this may close: wake it here
        let _blocked = self.submitter.as_deref().map(|shared| {
            let blocked = shared.submitters.block();
            if shared.submitters.none_ready() {
                shared.wake();
            }
            blocked
        });
        self.rx.recv().unwrap_or(Err(ServeError::Canceled))
    }
}

impl ServeHandle {
    /// Enqueue one scoring request. Returns immediately:
    /// `Ok(PendingResponse)` when accepted, [`ServeError::Rejected`]
    /// when the queue is full or the server has shut down. A `deadline`
    /// in the past (relative to worker drain time) resolves to
    /// [`ServeError::DeadlineMissed`] without scoring.
    pub fn submit(
        &self,
        group: u32,
        items: Vec<u32>,
        deadline: Option<Instant>,
    ) -> Result<PendingResponse, ServeError> {
        let shared = &self.shared;
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut st = shared.state.lock().unwrap();
            if !st.open || st.queue.len() >= shared.cfg.queue_capacity {
                drop(st);
                shared.metrics.rejected.add(1);
                return Err(ServeError::Rejected);
            }
            // Count the request in before the push: once the lock drops
            // a worker may drain and answer it at once, and `respond`'s
            // decrements must follow these increments, or `in_flight`
            // wraps below 0 and the depth gauge dips negative.
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
            shared.metrics.queue_depth.add(1.0);
            st.queue.push_back(Pending { group, items, deadline, enqueued: Instant::now(), tx });
        }
        shared.metrics.accepted.add(1);
        shared.cv.notify_one();
        let submitter = self.submitter.then(|| Arc::clone(shared));
        Ok(PendingResponse { rx, submitter })
    }

    /// Submit and block for the scores — the synchronous convenience
    /// used by per-connection server threads.
    pub fn score(&self, group: u32, items: Vec<u32>) -> ServeResult {
        self.submit(group, items, None)?.wait()
    }

    /// Like [`score`](Self::score) with an absolute expiry.
    pub fn score_by(&self, group: u32, items: Vec<u32>, deadline: Instant) -> ServeResult {
        self.submit(group, items, Some(deadline))?.wait()
    }

    /// Stop accepting new requests and wake every worker. Idempotent.
    /// Already-accepted requests are still drained and answered.
    pub fn shutdown(&self) {
        self.shared.shutdown();
    }

    /// Is the batcher still accepting submissions?
    pub fn is_open(&self) -> bool {
        self.shared.state.lock().unwrap().open
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Requests accepted but not yet responded to (queued or scoring).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }
}

/// Run a batching server over `scorer` for the duration of `f`.
///
/// Spawns [`ServeConfig::workers`] worker threads borrowing `scorer`,
/// hands `f` a [`ServeHandle`] (clone it into as many client threads as
/// needed; the handle and each clone are the batcher's submitters: a
/// batch window closes once every one of them is dropped or waiting on
/// a reply), and on exit — *including* a panic inside `f` — triggers
/// shutdown, drains every accepted request, and joins the workers
/// before returning. The caller's pool thread-count override is
/// captured here and re-applied inside each worker, since the pool's
/// thread-local override does not propagate to newly spawned threads.
pub fn serve_in_process<S, R>(
    scorer: &S,
    config: &ServeConfig,
    f: impl FnOnce(ServeHandle) -> R,
) -> R
where
    S: ScoreCases + ?Sized,
{
    let shared = Shared::new(config, Arc::default());
    let handle = ServeHandle::new(&shared, true);
    let threads = pool::num_threads();
    std::thread::scope(|s| {
        for _ in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            s.spawn(move || pool::with_threads(threads, || worker_loop(scorer, &shared)));
        }
        // Shutdown must fire even if `f` unwinds: thread::scope joins
        // workers before propagating the panic, and workers only exit
        // once the queue is closed — without this guard a panic in `f`
        // would deadlock the join. It holds no handle: a submitter
        // would keep every window open to its cap.
        let _drain = DrainGuard(Arc::clone(&shared));
        f(handle)
    })
}

struct DrainGuard(Arc<Shared>);

impl Drop for DrainGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// An *owned* running batcher: workers hold an `Arc` to the scorer
/// instead of borrowing it, so the batcher's lifetime is dynamic — the
/// shape the model registry needs, where entries (and their batchers)
/// are created by `LOAD` requests and retired at runtime rather than
/// scoped to a stack frame.
///
/// Same delivery contract as [`serve_in_process`]: dropping the guard
/// stops admissions, drains every accepted request, and joins the
/// workers. The scorer is freed when the last `Arc` drops — after the
/// workers exit.
pub(crate) struct BatcherGuard {
    handle: ServeHandle,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl BatcherGuard {
    /// A cloneable client handle to this batcher.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Make every worker re-check its window (its submitter count may
    /// have reached 0 without a push).
    pub(crate) fn wake(&self) {
        self.handle.shared.wake();
    }
}

impl Drop for BatcherGuard {
    fn drop(&mut self) {
        self.handle.shutdown();
        for w in self.workers.drain(..) {
            // A worker that panicked already answered or stranded
            // nothing new (score_and_respond catches scorer unwinds;
            // anything else is a batcher bug) — surfacing the panic
            // here would abort an otherwise-sound teardown.
            let _ = w.join();
        }
    }
}

/// Spawn [`ServeConfig::workers`] detached-lifetime workers over an
/// owned scorer and return the [`BatcherGuard`] that drains and joins
/// them on drop. The caller's pool thread-count override is captured
/// here and re-applied inside each worker, exactly as
/// [`serve_in_process`] does for scoped workers. Its batch windows also
/// close once `submitters` has nobody ready (the registry server passes
/// the count of its connections).
pub(crate) fn spawn_batcher<S>(
    scorer: Arc<S>,
    config: &ServeConfig,
    submitters: Arc<Submitters>,
) -> BatcherGuard
where
    S: ScoreCases + Send + 'static,
{
    let shared = Shared::new(config, submitters);
    let handle = ServeHandle::new(&shared, false);
    let threads = pool::num_threads();
    let workers = (0..shared.cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let scorer = Arc::clone(&scorer);
            std::thread::spawn(move || {
                pool::with_threads(threads, || worker_loop(&*scorer, &shared))
            })
        })
        .collect();
    BatcherGuard { handle, workers }
}

/// One worker: wait for work, hold the batch window open, drain a
/// chunk, score, respond; exit when the queue is closed *and* empty.
fn worker_loop<S: ScoreCases + ?Sized>(scorer: &S, shared: &Shared) {
    let cfg = &shared.cfg;
    loop {
        let mut st = shared.state.lock().unwrap();
        while st.queue.is_empty() && st.open {
            st = shared.cv.wait(st).unwrap();
        }
        if st.queue.is_empty() {
            return; // closed and fully drained
        }
        // Adaptive window: the first request of a batch waits up to
        // `batch_window` for company, but a full chunk, a shutdown, or
        // no submitter left that could send another request closes it
        // at once. A submitter that takes the count to 0 then either
        // pushes (on the registry server, only to the entry it scores
        // on) or wakes the workers under this lock, so the check below
        // cannot miss it.
        let closed = |st: &QueueState| {
            st.queue.len() >= cfg.max_batch || !st.open || shared.submitters.none_ready()
        };
        if !closed(&st) && !cfg.batch_window.is_zero() {
            let window_end = Instant::now() + cfg.batch_window;
            loop {
                let now = Instant::now();
                if now >= window_end || closed(&st) {
                    break;
                }
                let (guard, _) = shared.cv.wait_timeout(st, window_end - now).unwrap();
                st = guard;
            }
        }
        if st.queue.is_empty() {
            // A peer worker can steal every queued request while this
            // one sits in `wait_timeout` above. Draining the empty
            // queue anyway would record a phantom batch (a 0-length
            // `batch_requests` sample and a bogus `serve.batches`
            // tick); go back to waiting instead.
            continue;
        }
        let take = st.queue.len().min(cfg.max_batch);
        let batch: Vec<Pending> = st.queue.drain(..take).collect();
        let backlog = !st.queue.is_empty();
        drop(st);
        if backlog {
            // Leftovers belong to the next batch; wake a peer so they
            // are not stranded until the next submission's notify.
            shared.cv.notify_one();
        }
        shared.metrics.queue_depth.add(-(take as f64));
        shared.metrics.batches.add(1);
        shared.metrics.batch_requests.record(take as u64);
        score_and_respond(scorer, shared, batch);
    }
}

fn score_and_respond<S: ScoreCases + ?Sized>(scorer: &S, shared: &Shared, batch: Vec<Pending>) {
    // Expired requests are dropped *before* scoring — their slots do not
    // inflate the fused batch.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for p in batch {
        if p.deadline.is_some_and(|d| d < now) {
            shared.metrics.deadline_missed.add(1);
            respond(shared, &p.tx, Err(ServeError::DeadlineMissed));
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }
    let mut cases = Vec::with_capacity(live.len());
    let mut meta = Vec::with_capacity(live.len());
    for p in live {
        cases.push((p.group, p.items));
        meta.push((p.tx, p.enqueued));
    }
    let t0 = Instant::now();
    // A panicking scorer must not take the worker down: queued requests
    // would strand unanswered and the drain join would deadlock. The
    // panic is confined to this batch — every live request in it is
    // answered `Canceled` — and the worker survives to score the next
    // one. (`AssertUnwindSafe` is sound here: the scorer is `&S`, and a
    // scorer left inconsistent by its own panic is the scorer's bug —
    // the batcher's own state is untouched by the unwind.)
    let results =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scorer.try_score_cases(&cases)));
    shared.metrics.batch_score_ns.record(t0.elapsed().as_nanos() as u64);
    let results = match results {
        Ok(results) => results,
        Err(_) => {
            shared.metrics.scorer_panics.add(1);
            for (tx, _) in meta {
                respond(shared, &tx, Err(ServeError::Canceled));
            }
            return;
        }
    };
    assert_eq!(
        results.len(),
        meta.len(),
        "scorer broke the ScoreCases contract: {} cases, {} results",
        meta.len(),
        results.len()
    );
    for (result, (tx, enqueued)) in results.into_iter().zip(meta) {
        shared.metrics.latency_ns.record(enqueued.elapsed().as_nanos() as u64);
        respond(shared, &tx, result.map_err(ServeError::from));
    }
}

fn respond(shared: &Shared, tx: &mpsc::SyncSender<ServeResult>, result: ServeResult) {
    shared.metrics.responses.add(1);
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    // A client that dropped its PendingResponse just discards the
    // answer; that must not take the worker down.
    let _ = tx.send(result);
}
