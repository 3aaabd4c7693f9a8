//! Live group lifecycle over a trained checkpoint.
//!
//! A [`BatchScorer`](crate::BatchScorer) scores the groups the model
//! was trained on. A [`DynamicScorer`] is the same scorer behind a lock
//! plus lifecycle `apply`, so a serving process can **create**, **join**
//! and **leave** groups in the scorer's
//! [`GroupStore`](kgag_data::GroupStore) between requests
//! and score the result immediately — including groups that never
//! existed at training time (cold start).
//!
//! Three invariants make this safe to run live (DESIGN.md §13):
//!
//! 1. **Mutate ≡ rebuild.** After any interleaving of lifecycle ops,
//!    every score is bit-identical to tearing the server down and
//!    rebuilding dataset + caches from scratch with the final
//!    membership. The property suite in
//!    `crates/core/tests/lifecycle_oracle.rs` drives random op/score
//!    sequences against exactly that oracle.
//! 2. **Immutable caches.** The receptive-field caches depend only on
//!    the collaborative KG, which is built from the split's feedback
//!    and never from group rosters, so no mutation can change a cached
//!    row: a lifecycle op writes the group table and nothing else.
//! 3. **Typed failure.** Every malformed input — unknown group or user,
//!    duplicate membership, a leave that would strand one member, an
//!    empty ad-hoc roster — is a typed error ([`crate::ScoreError`],
//!    [`LifecycleError`]), never a panic, so one bad request cannot
//!    take a serving thread down.
//!
//! Group sizes may drift off the trained nominal through mutations; the
//! forward then drops the size-coupled peer-influence tower and scores
//! self-persistence only (see [`Kgag::score_members`]). Nominal-size
//! groups — mutated or not — score through the full attention,
//! bit-identical to the static engine.

use crate::batch::InProcess;
use crate::scorer::{ScoreCases, ScoreError, Scorer};
use crate::trainer::Kgag;
use kgag_data::{GroupLifecycle, LifecycleAck, LifecycleError, LifecycleOp};
use std::borrow::Borrow;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

/// An in-process [`Scorer`] over a *live* group table: scores exactly
/// like a [`BatchScorer`](crate::BatchScorer) (same engine, same caches,
/// same bits) and additionally applies [`LifecycleOp`]s between batches.
/// `M` is how the scorer holds its model: borrowed (`&Kgag`, from
/// [`Kgag::dynamic_scorer`]) or shared (`Arc<Kgag>`, from
/// [`DynamicScorer::shared`] — what a registry entry owns).
///
/// One lock covers the scorer's group store. Scoring takes
/// the read side, mutations the write side, so any number of batch
/// threads score concurrently and a score request sees either the whole
/// mutation or none of it.
pub struct DynamicScorer<M> {
    scorer: RwLock<Scorer<InProcess<M>>>,
}

impl<M> From<Scorer<InProcess<M>>> for DynamicScorer<M> {
    fn from(scorer: Scorer<InProcess<M>>) -> Self {
        DynamicScorer { scorer: RwLock::new(scorer) }
    }
}

impl Kgag {
    /// A [`DynamicScorer`] seeded with the model's bound groups, with
    /// the receptive-field cache on.
    pub fn dynamic_scorer(&self) -> DynamicScorer<&Kgag> {
        self.dynamic_scorer_with(true)
    }

    /// A [`DynamicScorer`] over the bound groups with the
    /// receptive-field cache explicitly on or off (off samples fields
    /// live — the reference the equivalence tests compare against).
    pub fn dynamic_scorer_with(&self, cache: bool) -> DynamicScorer<&Kgag> {
        self.batch_scorer_with(cache).into()
    }
}

impl DynamicScorer<Arc<Kgag>> {
    /// A [`DynamicScorer`] that shares ownership of `model`, so it lives
    /// as long as whoever holds it rather than a borrow — the in-process
    /// entry kind of the model registry. The receptive-field cache is on.
    pub fn shared(model: Arc<Kgag>) -> Self {
        let caches = model.eval_rf_caches(true);
        Scorer::new(&model, InProcess { model: Arc::clone(&model), caches }).into()
    }
}

impl<M: Borrow<Kgag> + Send + Sync> DynamicScorer<M> {
    fn read(&self) -> RwLockReadGuard<'_, Scorer<InProcess<M>>> {
        self.scorer.read().expect("scorer lock poisoned by a panicked mutation")
    }

    /// Approximate resident size of the receptive-field tables in bytes
    /// (`None` when uncached).
    pub fn cache_bytes(&self) -> Option<usize> {
        self.read().cache_bytes()
    }

    /// Live group count (static + created).
    pub fn num_groups(&self) -> u32 {
        self.read().groups.num_groups()
    }

    /// Monotone mutation counter of the live store.
    pub fn version(&self) -> u64 {
        self.read().groups.version()
    }

    /// Current members of a live group, sorted canonical order for
    /// mutated groups (copied out — the lock is not held by the caller).
    pub fn members_of(&self, group: u32) -> Result<Vec<u32>, LifecycleError> {
        Ok(self.read().groups.members(group)?.to_vec())
    }

    /// Scores for one `(group, candidate list)` case against the live
    /// membership.
    pub fn score_case(&self, group: u32, items: &[u32]) -> Result<Vec<f32>, ScoreError> {
        self.try_score_cases(&[(group, items.to_vec())]).pop().unwrap_or(Ok(Vec::new()))
    }

    /// Apply one lifecycle op atomically to the group table. A failed op
    /// leaves it untouched.
    pub fn apply(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        let mut scorer = self.scorer.write().expect("scorer lock poisoned by a panicked mutation");
        let ack = scorer.groups.apply(op)?.ack;
        op_counter(op).add(1);
        Ok(ack)
    }
}

/// The lifecycle counter `op` bumps, interned once per process and
/// recorded whether or not telemetry is on (the `kgag serve` drain
/// summary reads them).
fn op_counter(op: &LifecycleOp) -> &'static kgag_obs::Counter {
    static COUNTERS: OnceLock<[Arc<kgag_obs::Counter>; 3]> = OnceLock::new();
    let [created, joins, leaves] = COUNTERS.get_or_init(|| {
        ["lifecycle.groups_created", "lifecycle.joins", "lifecycle.leaves"].map(kgag_obs::counter)
    });
    match op {
        LifecycleOp::Create { .. } => created,
        LifecycleOp::Join { .. } => joins,
        LifecycleOp::Leave { .. } => leaves,
    }
}

impl<M: Borrow<Kgag> + Send + Sync> ScoreCases for DynamicScorer<M> {
    /// Scores against the live membership, the whole batch under one
    /// read-lock — one consistent membership snapshot.
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        self.read().try_score_cases(cases)
    }
}

impl<M: Borrow<Kgag> + Send + Sync> GroupLifecycle for DynamicScorer<M> {
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        self.apply(op)
    }

    fn group_count(&self) -> u32 {
        self.num_groups()
    }
}
