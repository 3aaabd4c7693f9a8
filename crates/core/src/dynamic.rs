//! Live group lifecycle over a trained checkpoint.
//!
//! A [`BatchScorer`](crate::BatchScorer) scores the groups the model
//! was trained on. A [`DynamicScorer`] is the same scorer plus
//! lifecycle `apply`, over any [`ChunkSource`] — in process or the
//! sharded router — so a serving process can **create**, **join** and
//! **leave** groups in the scorer's
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
use crate::scorer::{ChunkSource, ScoreCases, ScoreError, Scorer};
use crate::trainer::Kgag;
use kgag_data::{GroupLifecycle, LifecycleAck, LifecycleError, LifecycleOp};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The one [`Scorer`] over any [`ChunkSource`], plus lifecycle `apply`:
/// it scores exactly like the scorer it wraps (same engine, same caches,
/// same bits) and applies [`LifecycleOp`]s to its group table between
/// batches. The in-process kind comes from [`Kgag::dynamic_scorer`]
/// (borrowed model) or [`DynamicScorer::shared`] (owned, what a registry
/// entry holds); the sharded router is one over its draw memo.
///
/// The lock sits on the group table inside the scorer: a batch resolves
/// its members under the read side and scores with the guard dropped,
/// a mutation takes the write side. A score sees all of a mutation or
/// none of it, and a mutation never waits on an in-flight chunk.
pub struct DynamicScorer<S>(Scorer<S>);

impl<S> From<Scorer<S>> for DynamicScorer<S> {
    fn from(scorer: Scorer<S>) -> Self {
        DynamicScorer(scorer)
    }
}

impl<S> Deref for DynamicScorer<S> {
    type Target = Scorer<S>;

    fn deref(&self) -> &Scorer<S> {
        &self.0
    }
}

impl Kgag {
    /// A [`DynamicScorer`] seeded with the model's bound groups, with
    /// the receptive-field cache on.
    pub fn dynamic_scorer(&self) -> DynamicScorer<InProcess<&Kgag>> {
        self.dynamic_scorer_with(true)
    }

    /// A [`DynamicScorer`] over the bound groups with the
    /// receptive-field cache explicitly on or off (off samples fields
    /// live — the reference the equivalence tests compare against).
    pub fn dynamic_scorer_with(&self, cache: bool) -> DynamicScorer<InProcess<&Kgag>> {
        self.batch_scorer_with(cache).into()
    }
}

impl DynamicScorer<InProcess<Arc<Kgag>>> {
    /// A [`DynamicScorer`] that shares ownership of `model`, so it lives
    /// as long as whoever holds it rather than a borrow — the in-process
    /// entry kind of the model registry. The receptive-field cache is on.
    pub fn shared(model: Arc<Kgag>) -> Self {
        let caches = model.eval_rf_caches(true);
        Scorer::new(&model, InProcess { model: Arc::clone(&model), caches }).into()
    }
}

impl<S> DynamicScorer<S> {
    /// Apply one lifecycle op atomically to the group table. A failed op
    /// leaves it untouched.
    pub fn apply(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        let mut groups = self.0.groups.write().expect("group table lock poisoned");
        let ack = groups.apply(op)?.ack;
        op_counter(op).add(1);
        Ok(ack)
    }
}

impl<S: ChunkSource> DynamicScorer<S> {
    /// Scores for one `(group, candidate list)` case against the live
    /// membership.
    pub fn score_case(&self, group: u32, items: &[u32]) -> Result<Vec<f32>, ScoreError> {
        self.try_score_cases(&[(group, items.to_vec())]).pop().unwrap_or(Ok(Vec::new()))
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

impl<S: ChunkSource> ScoreCases for DynamicScorer<S> {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        self.0.try_score_cases(cases)
    }
}

impl<S> GroupLifecycle for DynamicScorer<S> {
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        self.apply(op)
    }

    fn group_count(&self) -> u32 {
        self.groups().num_groups()
    }
}
