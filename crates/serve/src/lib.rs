//! # kgag-serve
//!
//! A concurrent scoring front-end over any [`kgag::ScoreCases`] scorer
//! — the one per-case scoring API of the `kgag` crate: load a model
//! once, share it read-only across threads, and turn many small
//! independent `(group, candidates)` requests into the large fused
//! batches the inference engine is fast at.
//!
//! The core is an **adaptive micro-batcher** ([`batcher`]): requests
//! from any number of client threads land in one bounded queue; worker
//! threads drain it in chunks, waiting for more requests to fuse only
//! while a registered submitter (an open connection, an in-process
//! handle) could still send one, and never longer than the cap
//! [`ServeConfig::batch_window`], before calling
//! [`try_score_cases`](kgag::ScoreCases::try_score_cases) once per
//! chunk. A case the scorer rejects (unknown group or item, failed
//! shard) fails alone, mapped to its [`ServeError`] by the one
//! `From<kgag::ScoreError>`; the rest of the fused batch is answered
//! normally.
//! Because the scorer is bit-identical at *any* chunking (the batched
//! oracle guarantee, re-enforced for serving by `tests/serve_props.rs`
//! on the real engine), fusing arbitrary interleavings
//! of concurrent requests is value-neutral: every client receives
//! exactly the scores the offline evaluation path would have produced.
//!
//! Three layers, innermost first:
//!
//! * [`serve_in_process`] — spawn workers over a borrowed scorer, hand
//!   the caller a cloneable [`ServeHandle`], drain gracefully on exit.
//!   The served bit-identity tests build on it; the registry gives each
//!   resident entry an owned twin.
//! * [`wire`] — a tiny length-prefixed binary protocol (little-endian,
//!   `u32` frame length) for request/response over a byte stream.
//! * [`serve_tcp`] / [`ServeClient`] — a loopback-first TCP server over
//!   a [`RegistryServer`]: one OS thread per connection feeding the
//!   entries' batchers, shutdown via a [`ShutdownToken`].
//!
//! There is one server (DESIGN.md §16): `kgag serve` boots a
//! [`RegistryServer`] with its checkpoint resident and tenant 0 bound.
//! The un-tenanted score opcode scores tenant 0, and the **group
//! lifecycle** opcodes (DESIGN.md §13) mutate tenant 0's active entry:
//! create/join/leave are applied synchronously on the connection thread
//! — never through the batcher — so a client's next score request
//! always observes its own mutation.
//!
//! Delivery contract: every request accepted by [`ServeHandle::submit`]
//! receives **exactly one** response — a score vector, or a terminal
//! [`ServeError`] — even across shutdown. Backpressure is explicit:
//! submissions beyond [`ServeConfig::queue_capacity`] are rejected
//! immediately rather than queued unboundedly.
//!
//! Everything is std-only, in keeping with the workspace's hermetic
//! build policy (DESIGN.md §"Hermetic builds"); telemetry flows through
//! `kgag-obs` under the `serve.*` namespace (DESIGN.md §12).

pub mod batcher;
pub mod config;
pub mod registry;
pub mod server;
pub mod shard;
pub mod wire;

pub use batcher::{serve_in_process, PendingResponse, ServeHandle};
pub use config::ServeConfig;
pub use registry::{Governor, ModelFactory, RegistryConfig, RegistryServer};
pub use server::{
    serve_tcp, ClientError, LifecycleResult, RegistryResult, ServeClient, ShutdownToken,
};
pub use shard::{serve_shard, ShardConfig, ShardPool, ShardedScorer};

/// Terminal, per-request failure modes. Every accepted request resolves
/// to scores or to exactly one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The queue was at capacity, or the server had stopped accepting
    /// (shutdown already triggered). The request was never enqueued.
    Rejected,
    /// The request sat in the queue past its deadline and was dropped
    /// unscored.
    DeadlineMissed,
    /// The server terminated before producing a response (worker
    /// panic). Accepted requests only see this on abnormal exit —
    /// graceful shutdown drains the queue instead.
    Canceled,
    /// The wire-level request could not be decoded, or a score request
    /// named a group or item the scorer does not know.
    Invalid,
    /// Reserved: nothing returns it, since every registry entry owns its
    /// group table. The variant and its status byte 6 stay reserved for
    /// refusing an opcode on version skew (the planned STATS opcode).
    Unsupported,
    /// A well-formed lifecycle mutation the backend rejected (unknown
    /// group, duplicate member, …); the serving state is unchanged.
    Lifecycle(kgag_data::LifecycleError),
    /// A sharded deployment could not reach every embedding row or draw
    /// the request needs (peer down, timed out, or answering garbage).
    /// Only requests whose receptive field touches the failed shard see
    /// this; the rest of the batch is answered normally.
    Shard(kgag::ShardErrorKind),
    /// The tenant's admission quota is exhausted (token bucket empty on
    /// a registry server, DESIGN.md §16). The request was never
    /// enqueued; the client should back off.
    Quota,
    /// A `LOAD` could not produce a model from the named checkpoint
    /// (unreadable file, shape mismatch). The detail is logged
    /// server-side; the registry is unchanged.
    LoadFailed,
    /// A well-formed registry transition the state machine rejected
    /// (unknown tenant or model, unproven shadow, …); the registry is
    /// unchanged.
    Registry(kgag::RegistryError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected => f.write_str("rejected: queue full or server shut down"),
            ServeError::DeadlineMissed => f.write_str("deadline missed before scoring"),
            ServeError::Canceled => f.write_str("server terminated before responding"),
            ServeError::Invalid => f.write_str("malformed request"),
            ServeError::Unsupported => f.write_str("opcode not supported by this server"),
            ServeError::Lifecycle(e) => write!(f, "lifecycle rejected: {e}"),
            ServeError::Shard(kind) => {
                let what = match kind {
                    kgag::ShardErrorKind::Unavailable => "a shard is unavailable",
                    kgag::ShardErrorKind::Timeout => "a shard timed out",
                    kgag::ShardErrorKind::Protocol => "a shard answered garbage",
                };
                write!(f, "sharded scoring failed: {what}")
            }
            ServeError::Quota => f.write_str("tenant admission quota exhausted"),
            ServeError::LoadFailed => f.write_str("checkpoint load failed"),
            ServeError::Registry(e) => write!(f, "registry rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a request resolves to: scores aligned with the submitted items,
/// or a terminal error.
pub type ServeResult = Result<Vec<f32>, ServeError>;

impl From<kgag::ScoreError> for ServeError {
    /// The one mapping from a per-case scoring failure to its wire
    /// status: a shard failure keeps its class, every bad id is
    /// [`ServeError::Invalid`].
    fn from(e: kgag::ScoreError) -> ServeError {
        match e {
            kgag::ScoreError::Shard(e) => ServeError::Shard(e.kind),
            _ => ServeError::Invalid,
        }
    }
}

/// A scorer that misbehaves on a scripted schedule —
/// the interpreter for [`kgag_testkit::FaultPlan`] (which owns the
/// schedule; this wrapper owns the scorer it wraps). One scoring call
/// draws one [`FaultAction`](kgag_testkit::FaultAction):
///
/// * `Pass` — delegate untouched;
/// * `Panic` — panic mid-batch (the batcher must survive and answer);
/// * `Delay(d)` — sleep, then delegate (drives queued requests past
///   their deadlines);
/// * `Error` — fail every case with a shard-0 `Unavailable`
///   [`kgag::ScoreError::Shard`], the typed dependency-outage shape;
/// * `Corrupt` — delegate, then flip the low mantissa bit of the first
///   score (the minimal bit-identity violation, for circuit-breaker
///   tests).
///
/// `inner` is any pointer to a scorer (`&S`, `Arc<S>`). The property
/// suites in `crates/serve/tests/fault_props.rs` wrap the batcher's
/// scorer in this and prove the exactly-once delivery contract under
/// every action.
pub struct FaultScorer<S> {
    inner: S,
    plan: kgag_testkit::FaultPlan,
}

impl<S> FaultScorer<S> {
    /// Wrap `inner`, misbehaving per `plan`.
    pub fn new(inner: S, plan: kgag_testkit::FaultPlan) -> Self {
        FaultScorer { inner, plan }
    }

    /// The schedule (for asserting on calls drawn / faults injected).
    pub fn plan(&self) -> &kgag_testkit::FaultPlan {
        &self.plan
    }
}

impl<S> kgag::ScoreCases for FaultScorer<S>
where
    S: std::ops::Deref + Sync,
    S::Target: kgag::ScoreCases,
{
    fn try_score_cases(
        &self,
        cases: &[(u32, Vec<u32>)],
    ) -> Vec<Result<Vec<f32>, kgag::ScoreError>> {
        use kgag_testkit::FaultAction;
        match self.plan.next_action() {
            FaultAction::Pass => self.inner.try_score_cases(cases),
            FaultAction::Panic => panic!("injected fault: scorer panic"),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.inner.try_score_cases(cases)
            }
            FaultAction::Error => {
                let down = kgag::ShardError { shard: 0, kind: kgag::ShardErrorKind::Unavailable };
                cases.iter().map(|_| Err(kgag::ScoreError::Shard(down))).collect()
            }
            FaultAction::Corrupt => {
                let mut out = self.inner.try_score_cases(cases);
                if let Some(s) = out.iter_mut().filter_map(|r| r.as_mut().ok()).flatten().next() {
                    *s = f32::from_bits(s.to_bits() ^ 1);
                }
                out
            }
        }
    }
}
