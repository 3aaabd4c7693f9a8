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
//! 2. **Precise invalidation.** A mutation touches a known set of user
//!    entities; only cache entries whose receptive field can reach a
//!    touched entity (within the cache depth) are evicted, then
//!    repaired in place. The collaborative-KG topology itself is
//!    membership-independent — `Interact` edges come from feedback, not
//!    group rosters — so repair restores byte-identical rows; eviction
//!    is the hook through which future *graph* deltas (new
//!    interactions) propagate, and `crates/kg/tests/rf_cache_props.rs`
//!    proves precision and repair equivalence on genuine topology
//!    changes.
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
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// An in-process [`Scorer`] over a *live* group table: scores exactly
/// like a [`BatchScorer`](crate::BatchScorer) (same engine, same caches,
/// same bits) and additionally applies [`LifecycleOp`]s between batches.
/// `M` is how the scorer holds its model: borrowed (`&Kgag`, from
/// [`Kgag::dynamic_scorer`]) or shared (`Arc<Kgag>`, from
/// [`DynamicScorer::shared`] — what a registry entry owns).
///
/// One lock covers the scorer's group store and caches. Scoring takes
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
    /// receptive-field cache explicitly on or off.
    pub fn dynamic_scorer_with(&self, cache: bool) -> DynamicScorer<&Kgag> {
        self.batch_scorer_with(cache).into()
    }
}

impl DynamicScorer<Arc<Kgag>> {
    /// A [`DynamicScorer`] that shares ownership of `model`, so it lives
    /// as long as whoever holds it rather than a borrow — the in-process
    /// entry kind of the model registry.
    pub fn shared(model: Arc<Kgag>, cache: bool) -> Self {
        let caches = model.eval_rf_caches(cache);
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

    /// Apply one lifecycle op atomically: mutate the group table, then
    /// evict and repair every receptive-field cache entry reachable from
    /// the touched users. Failed ops leave both untouched.
    pub fn apply(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        let mut scorer = self.scorer.write().expect("scorer lock poisoned by a panicked mutation");
        let scorer = &mut *scorer;
        let applied = scorer.groups.apply(op)?;
        let model = scorer.source.model.borrow();
        let touched_ents: Vec<u32> =
            applied.touched.iter().map(|&u| model.collaborative_kg().user_entity(u).0).collect();
        let mut evicted = 0usize;
        if let Some((members, items)) = scorer.source.caches.as_mut() {
            let graph = model.collaborative_kg().graph();
            evicted += members.invalidate_reachable(graph, &touched_ents).evicted;
            evicted += items.invalidate_reachable(graph, &touched_ents).evicted;
            members.repair(model.eval_sampler(), graph);
            items.repair(model.eval_sampler(), graph);
        }
        if kgag_obs::enabled() {
            match op {
                LifecycleOp::Create { .. } => kgag_obs::counter("lifecycle.groups_created").add(1),
                LifecycleOp::Join { .. } => kgag_obs::counter("lifecycle.joins").add(1),
                LifecycleOp::Leave { .. } => kgag_obs::counter("lifecycle.leaves").add(1),
            }
            kgag_obs::counter("lifecycle.cache_evicted").add(evicted as u64);
        }
        Ok(applied.ack)
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
