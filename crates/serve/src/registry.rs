//! The registry server (DESIGN.md §16) — what every `kgag serve` runs:
//! wire dispatch over a [`kgag::ModelRegistry`], with one owned batcher
//! per resident checkpoint, admission control in front of the queues,
//! and live shadow-scoring feeding the registry's circuit breaker.
//!
//! Composition, outermost in:
//!
//! * [`crate::serve_tcp`] — the accept loop / framing machinery (one
//!   thread per connection, partial-frame safe), dispatching to a
//!   [`RegistryServer`].
//! * [`RegistryServer`] — routes each decoded message: scores through
//!   admission → the tenant's active entry's batcher, where the
//!   un-tenanted score opcode addresses tenant 0; create/join/leave to
//!   tenant 0's active entry's group table; registry transitions
//!   (LOAD/BIND/SHADOW/PROMOTE/ROLLBACK/RETIRE) through the state
//!   machine. Mutations and transitions run synchronously on the
//!   connection thread.
//! * [`Governor`] — per-tenant token buckets. Admission control is off
//!   only when no capacity is configured ([`Governor::unlimited`],
//!   `quota_burst: None`); a configured `burst == 0` is a closed valve
//!   that sheds everything. `rate == 0` never refills, so a bucket
//!   admits exactly `burst` requests — the deterministic configuration
//!   the quota tests pin.
//!
//! Zero-downtime by construction: scoring pins its entry via
//! [`kgag::ModelRegistry::resolve`] (an `Arc` clone) *and* its batcher
//! handle before releasing the registry lock, so a concurrent
//! PROMOTE/ROLLBACK/RETIRE never tears an in-flight request — it
//! finishes on the exact model it was admitted under, and RETIRE drains
//! the entry's batcher before the model drops.
//!
//! Shadow discipline: every `shadow_sample`-th admitted request whose
//! tenant has a staged candidate is mirrored through the *candidate's
//! batcher* (arbitrary fusion with other traffic), then compared
//! bit-for-bit against the candidate's own offline
//! [`try_score_cases`](kgag::ScoreCases::try_score_cases) — the
//! chunking-invariance oracle of `tests/serve_props.rs`, applied
//! continuously to live traffic.
//! Verdicts feed [`kgag::ModelRegistry::record_shadow`]; one mismatch
//! quarantines the candidate registry-wide. The mirrored scoring rides
//! the serving thread, so the *active* response a client sees is never
//! delayed by more than its own shadow sample.
//!
//! Batch windows: every open connection is a submitter, counted in one
//! [`Submitters`] shared by every entry's batcher. A connection is
//! blocked from just before each submit until its reply, so a window
//! closes as soon as every connection is blocked or gone.

use crate::batcher::{spawn_batcher, BatcherGuard, ServeHandle, Submitters};
use crate::config::{parse_or, ServeConfig};
use crate::server::{answer_message, wire_deadline, Dispatch};
use crate::wire::{Message, RegistryOp, Reply, Response};
use crate::{LifecycleResult, ServeError, ServeResult};
use kgag::{checkpoint_hash, ModelRegistry, RegistryModel, ScoreCases};
use kgag_data::{GroupLifecycle, LifecycleError, LifecycleOp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Builds a [`RegistryModel`] from raw checkpoint bytes and their
/// content hash — the seam between the transport (which only moves
/// paths and bytes) and model construction (which needs the dataset to
/// rebuild graph structure before `load_checkpoint`). The CLI installs
/// a factory closing over its dataset; tests close over fixtures.
pub type ModelFactory = Box<dyn Fn(&[u8], u64) -> Result<RegistryModel, String> + Send + Sync>;

/// Knobs for the registry serve path, layered over the per-entry
/// batcher's [`ServeConfig`].
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Per-entry batcher tuning (each resident checkpoint gets its own
    /// queue and workers with these settings).
    pub serve: ServeConfig,
    /// Token-bucket refill, tokens per second per tenant. `0.0` never
    /// refills (each bucket is spent once), which is what deterministic
    /// tests pin.
    pub quota_rate: f64,
    /// Token-bucket capacity per tenant. `None` disables admission
    /// control entirely (every request admitted); `Some(0)` is a closed
    /// valve that sheds *everything* — a real capacity of zero, not a
    /// disable switch.
    pub quota_burst: Option<u64>,
    /// Mirror every Nth admitted request of a shadowing tenant onto the
    /// staged candidate; `1` shadows everything, `0` never samples
    /// (candidates then only prove themselves via `min_clean == 0`).
    pub shadow_sample: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            serve: ServeConfig::default(),
            quota_rate: 0.0,
            quota_burst: None,
            shadow_sample: 1,
        }
    }
}

impl RegistryConfig {
    /// Read the config from the environment, falling back to defaults:
    /// `KGAG_QUOTA_RATE` (tokens/sec, f64), `KGAG_QUOTA_BURST` (unset
    /// = no admission control; any set value, including `0`, is a real
    /// capacity), `KGAG_SHADOW_SAMPLE`, plus the batcher's own
    /// `KGAG_SERVE_*` knobs. Unparseable values are ignored.
    pub fn from_env() -> Self {
        let d = RegistryConfig::default();
        RegistryConfig {
            serve: ServeConfig::from_env(),
            quota_rate: std::env::var("KGAG_QUOTA_RATE")
                .ok()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .filter(|r| r.is_finite() && *r >= 0.0)
                .unwrap_or(d.quota_rate),
            quota_burst: std::env::var("KGAG_QUOTA_BURST")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .or(d.quota_burst),
            shadow_sample: parse_or(
                std::env::var("KGAG_SHADOW_SAMPLE").ok().as_deref(),
                d.shadow_sample,
                0,
            ),
        }
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-tenant token-bucket admission control. Buckets start full
/// (`burst` tokens), spend one token per admitted request, and refill
/// continuously at `rate` tokens/sec up to `burst`.
///
/// Disabling admission control is an explicit mode
/// ([`Governor::unlimited`]), not a magic capacity value: a limiting
/// governor with `burst == 0` has an always-empty bucket and sheds
/// every request deterministically.
pub struct Governor {
    rate: f64,
    /// `None` = unlimited (admit everything); `Some(b)` = real capacity,
    /// including `Some(0.0)` (shed everything).
    burst: Option<f64>,
    buckets: Mutex<BTreeMap<u32, Bucket>>,
}

impl Governor {
    /// A governor admitting `burst` requests per tenant up front and
    /// `rate` per second steady-state. Always limits — `burst == 0`
    /// admits nothing; use [`Governor::unlimited`] to disable admission
    /// control.
    pub fn new(rate: f64, burst: u64) -> Governor {
        Governor { rate, burst: Some(burst as f64), buckets: Mutex::new(BTreeMap::new()) }
    }

    /// A governor with admission control disabled: every request from
    /// every tenant is admitted, no bucket state is kept.
    pub fn unlimited() -> Governor {
        Governor { rate: 0.0, burst: None, buckets: Mutex::new(BTreeMap::new()) }
    }

    /// Spend one token from the tenant's bucket. `false` means the
    /// request must be shed ([`ServeError::Quota`]).
    pub fn admit(&self, tenant: u32) -> bool {
        let burst = match self.burst {
            None => return true,
            Some(b) => b,
        };
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        let bucket = buckets.entry(tenant).or_insert_with(|| Bucket { tokens: burst, last: now });
        if self.rate > 0.0 {
            let dt = now.saturating_duration_since(bucket.last).as_secs_f64();
            bucket.tokens = (bucket.tokens + dt * self.rate).min(burst);
        }
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Per-tenant telemetry handles, interned lazily under
/// `registry.tenant<id>.*`.
struct TenantMetrics {
    accepted: Arc<kgag_obs::Counter>,
    quota_rejected: Arc<kgag_obs::Counter>,
}

struct Metrics {
    loads: Arc<kgag_obs::Counter>,
    promotions: Arc<kgag_obs::Counter>,
    rollbacks: Arc<kgag_obs::Counter>,
    retirements: Arc<kgag_obs::Counter>,
    shadow_clean: Arc<kgag_obs::Counter>,
    shadow_mismatch: Arc<kgag_obs::Counter>,
    tenants: Mutex<BTreeMap<u32, TenantMetrics>>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            loads: kgag_obs::counter("registry.loads"),
            promotions: kgag_obs::counter("registry.promotions"),
            rollbacks: kgag_obs::counter("registry.rollbacks"),
            retirements: kgag_obs::counter("registry.retirements"),
            shadow_clean: kgag_obs::counter("registry.shadow_clean"),
            shadow_mismatch: kgag_obs::counter("registry.shadow_mismatch"),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    fn tenant(&self, id: u32, f: impl FnOnce(&TenantMetrics)) {
        let mut tenants = self.tenants.lock().unwrap();
        let m = tenants.entry(id).or_insert_with(|| TenantMetrics {
            accepted: kgag_obs::counter(&format!("registry.tenant{id}.accepted")),
            quota_rejected: kgag_obs::counter(&format!("registry.tenant{id}.quota_rejected")),
        });
        f(m);
    }
}

/// The serve-side composition over [`kgag::ModelRegistry`]: per-entry
/// batchers, admission control, shadow mirroring, and the v3 dispatch.
/// Dropping the server shuts down and drains every entry's batcher.
pub struct RegistryServer {
    registry: ModelRegistry,
    factory: ModelFactory,
    batchers: Mutex<BTreeMap<u64, BatcherGuard>>,
    governor: Governor,
    cfg: RegistryConfig,
    shadow_tick: AtomicU64,
    metrics: Metrics,
    /// Open connections not blocked on a reply.
    submitters: Arc<Submitters>,
}

impl RegistryServer {
    /// An empty server; entries arrive via [`install`](Self::install)
    /// (in-process) or the wire's LOAD through `factory`.
    pub fn new(cfg: RegistryConfig, factory: ModelFactory) -> RegistryServer {
        RegistryServer {
            registry: ModelRegistry::new(),
            factory,
            batchers: Mutex::new(BTreeMap::new()),
            governor: match cfg.quota_burst {
                Some(burst) => Governor::new(cfg.quota_rate, burst),
                None => Governor::unlimited(),
            },
            cfg,
            shadow_tick: AtomicU64::new(0),
            metrics: Metrics::new(),
            submitters: Arc::default(),
        }
    }

    /// A server with `entry` resident and tenant 0 bound to it — the
    /// state `kgag serve` boots into. The un-tenanted score and
    /// lifecycle opcodes address tenant 0.
    pub fn bootstrap(
        cfg: RegistryConfig,
        factory: ModelFactory,
        entry: RegistryModel,
    ) -> Result<RegistryServer, ServeError> {
        let server = RegistryServer::new(cfg, factory);
        let hash = server.install(entry)?;
        server.registry.bind(0, hash).map_err(ServeError::Registry)?;
        Ok(server)
    }

    /// The underlying state machine, for bootstrap (bind tenants before
    /// opening the socket) and for test assertions.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Make an already-built entry resident and spin up its batcher.
    /// The in-process twin of the wire's LOAD.
    pub fn install(&self, entry: RegistryModel) -> Result<u64, ServeError> {
        self.install_with(entry, spawn_batcher)
    }

    /// [`install`](Self::install) with the entry's batcher scorer
    /// wrapped in a [`crate::FaultScorer`] — the seam the fault suites
    /// and `tests/registry_e2e.rs` use to prove the shadow circuit breaker
    /// trips on a genuinely divergent serve path (a scripted `Corrupt`
    /// is the minimal bit-identity violation).
    pub fn install_faulted(
        &self,
        entry: RegistryModel,
        plan: kgag_testkit::FaultPlan,
    ) -> Result<u64, ServeError> {
        self.install_with(entry, |model, cfg, submitters| {
            spawn_batcher(Arc::new(crate::FaultScorer::new(model, plan)), cfg, submitters)
        })
    }

    fn install_with(
        &self,
        entry: RegistryModel,
        spawn: impl FnOnce(Arc<RegistryModel>, &ServeConfig, Arc<Submitters>) -> BatcherGuard,
    ) -> Result<u64, ServeError> {
        let hash = self.registry.load(entry).map_err(ServeError::Registry)?;
        let model = self.registry.entry(hash).expect("entry resident immediately after load");
        let guard = spawn(model, &self.cfg.serve, Arc::clone(&self.submitters));
        self.batchers.lock().unwrap().insert(hash, guard);
        self.metrics.loads.add(1);
        Ok(hash)
    }

    /// LOAD: read a server-local checkpoint, build an entry through the
    /// factory, make it resident. Unreadable paths and factory
    /// rejections are [`ServeError::LoadFailed`] (detail to stderr);
    /// re-loading resident bytes is the registry's `DuplicateModel`.
    pub fn load_path(&self, path: &str) -> Result<u64, ServeError> {
        let bytes = std::fs::read(path).map_err(|e| {
            eprintln!("[kgag-serve] load {path:?} failed: {e}");
            ServeError::LoadFailed
        })?;
        let hash = checkpoint_hash(&bytes);
        let entry = (self.factory)(&bytes, hash).map_err(|e| {
            eprintln!("[kgag-serve] checkpoint {path:?} rejected: {e}");
            ServeError::LoadFailed
        })?;
        self.install(entry)
    }

    /// Admit, pin, score. The active entry and its batcher handle are
    /// both resolved before scoring starts, so concurrent transitions
    /// cannot tear this request. An `untenanted` request (opcode 0)
    /// names a group of tenant 0's live group table, so an unknown one
    /// is answered in lifecycle terms — the group may simply not have
    /// been created yet.
    fn score_tenant(
        &self,
        tenant: u32,
        group: u32,
        items: Vec<u32>,
        deadline_us: u64,
        untenanted: bool,
    ) -> ServeResult {
        if !self.governor.admit(tenant) {
            self.metrics.tenant(tenant, |m| m.quota_rejected.add(1));
            return Err(ServeError::Quota);
        }
        let admission = self.registry.resolve(tenant).map_err(ServeError::Registry)?;
        self.metrics.tenant(tenant, |m| m.accepted.add(1));
        if untenanted && group >= admission.active.group_count() {
            return Err(ServeError::Lifecycle(LifecycleError::UnknownGroup));
        }
        let handle = match self.handle_of(admission.active.hash()) {
            Some(h) => h,
            None => return Err(ServeError::Rejected), // entry retired mid-resolve
        };
        // only a staged shadow needs the items after the active submit
        let mirror = admission.shadow.map(|shadow| (shadow, items.clone()));
        let result = self.submit_blocked(&handle, group, items, wire_deadline(deadline_us));
        match mirror {
            // a request the active model rejects as malformed is not mirrored
            Some((shadow, items)) if result != Err(ServeError::Invalid) => {
                self.maybe_shadow(tenant, group, items, &shadow)
            }
            _ => {}
        }
        result
    }

    /// Submit and wait with the calling connection counted as blocked
    /// from before the push until the reply.
    fn submit_blocked(
        &self,
        handle: &ServeHandle,
        group: u32,
        items: Vec<u32>,
        deadline: Option<Instant>,
    ) -> ServeResult {
        let _blocked = self.submitters.block();
        handle.submit(group, items, deadline)?.wait()
    }

    /// Mirror every `shadow_sample`-th request onto the staged
    /// candidate and report the bit-identity verdict. The comparison is
    /// served-through-the-batcher (arbitrary fusion with whatever else
    /// is queued) against the candidate's own offline scoring of
    /// just this case — chunking invariance asserted on live traffic.
    fn maybe_shadow(&self, tenant: u32, group: u32, items: Vec<u32>, shadow: &Arc<RegistryModel>) {
        let n = self.cfg.shadow_sample;
        if n == 0 || self.shadow_tick.fetch_add(1, Ordering::Relaxed) % n != 0 {
            return;
        }
        let handle = match self.handle_of(shadow.hash()) {
            Some(h) => h,
            None => return,
        };
        // Shed or failed shadow work is no verdict at all. A candidate
        // that cannot represent this request (smaller catalog) fails it
        // on both paths: a capability gap, not a scoring divergence —
        // skip rather than poison the verdict.
        let Ok(served) = self.submit_blocked(&handle, group, items.clone(), None) else {
            return;
        };
        let clean = match shadow.try_score_cases(&[(group, items)]).pop() {
            Some(Ok(offline)) => {
                served.len() == offline.len()
                    && served.iter().zip(&offline).all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => return,
        };
        if clean {
            self.metrics.shadow_clean.add(1);
        } else {
            self.metrics.shadow_mismatch.add(1);
        }
        self.registry.record_shadow(tenant, shadow.hash(), clean);
    }

    /// Apply one create/join/leave to tenant 0's active entry.
    fn mutate(&self, op: &LifecycleOp) -> LifecycleResult {
        let admission = self.registry.resolve(0).map_err(ServeError::Registry)?;
        admission.active.apply_op(op).map_err(ServeError::Lifecycle)
    }

    fn handle_of(&self, hash: u64) -> Option<ServeHandle> {
        self.batchers.lock().unwrap().get(&hash).map(|g| g.handle())
    }

    /// Apply one registry transition; the ack hash is the version the
    /// transition settled on.
    fn apply(&self, op: &RegistryOp) -> Result<u64, ServeError> {
        match op {
            RegistryOp::Load { path } => self.load_path(path),
            RegistryOp::Bind { tenant, hash } => {
                self.registry.bind(*tenant, *hash).map_err(ServeError::Registry)?;
                Ok(*hash)
            }
            RegistryOp::Shadow { tenant, hash, min_clean } => {
                self.registry
                    .stage_shadow(*tenant, *hash, *min_clean)
                    .map_err(ServeError::Registry)?;
                Ok(*hash)
            }
            RegistryOp::Promote { tenant } => {
                let hash = self.registry.promote(*tenant).map_err(ServeError::Registry)?;
                self.metrics.promotions.add(1);
                Ok(hash)
            }
            RegistryOp::Rollback { tenant } => {
                let hash = self.registry.rollback(*tenant).map_err(ServeError::Registry)?;
                self.metrics.rollbacks.add(1);
                Ok(hash)
            }
            RegistryOp::Retire { hash } => {
                let model = self.registry.retire(*hash).map_err(ServeError::Registry)?;
                // Drain the entry's batcher before the model can drop:
                // every request admitted under the retired version is
                // still answered (the guard joins its workers).
                let guard = self.batchers.lock().unwrap().remove(hash);
                drop(guard);
                drop(model);
                self.metrics.retirements.add(1);
                Ok(*hash)
            }
        }
    }
}

impl Dispatch for RegistryServer {
    fn answer(&self, payload: &[u8]) -> Vec<u8> {
        answer_message(payload, |msg| match msg {
            Message::Score(req) => Response::from_result(
                req.id,
                self.score_tenant(0, req.group, req.items, req.deadline_us, true),
            ),
            Message::Tenant(req) => Response::from_result(
                req.id,
                self.score_tenant(req.tenant, req.group, req.items, req.deadline_us, false),
            ),
            Message::Lifecycle(req) => {
                Response { id: req.id, reply: self.mutate(&req.op).map(Reply::Ack) }
            }
            Message::Registry(req) => Response::from_registry(req.id, self.apply(&req.op)),
        })
    }

    fn connection_opened(&self) {
        self.submitters.add_ready();
    }

    fn connection_closed(&self) {
        if self.submitters.sub_ready() {
            // also runs while a connection thread unwinds: a poisoned
            // map is still a valid map
            for guard in self.batchers.lock().unwrap_or_else(PoisonError::into_inner).values() {
                guard.wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn governor_disabled_admits_everything() {
        let g = Governor::unlimited();
        for _ in 0..1000 {
            assert!(g.admit(7));
        }
    }

    #[test]
    fn governor_zero_burst_sheds_everything() {
        // A configured capacity of zero is a closed valve, not the old
        // "0 disables admission control" footgun: even with a generous
        // refill rate the bucket can never reach one token.
        let g = Governor::new(1000.0, 0);
        for tenant in [0u32, 7] {
            for _ in 0..100 {
                assert!(!g.admit(tenant), "zero-burst governor must shed everything");
            }
        }
    }

    #[test]
    fn governor_without_refill_admits_exactly_burst() {
        let g = Governor::new(0.0, 5);
        // buckets are per tenant
        for tenant in [0u32, 1] {
            for i in 0..5 {
                assert!(g.admit(tenant), "request {i} within burst must be admitted");
            }
            for _ in 0..10 {
                assert!(!g.admit(tenant), "past burst with no refill must shed");
            }
        }
    }

    #[test]
    fn governor_refills_over_time() {
        let g = Governor::new(1000.0, 2);
        assert!(g.admit(0));
        assert!(g.admit(0));
        // at 1000 tokens/sec a few ms is plenty for one token
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if g.admit(0) {
                break;
            }
            assert!(Instant::now() < deadline, "bucket never refilled");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn registry_config_defaults() {
        let d = RegistryConfig::default();
        assert_eq!(d.quota_burst, None, "admission control off by default");
        assert_eq!(d.shadow_sample, 1, "shadow everything by default");
        assert_eq!(d.quota_rate, 0.0);
    }
}
