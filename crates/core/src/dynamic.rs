//! Live group lifecycle over a trained checkpoint.
//!
//! A [`BatchScorer`](crate::BatchScorer) is frozen at construction: it
//! scores the groups the model was trained on, nothing else. A
//! [`DynamicScorer`] wraps the same scoring kernel around a mutable
//! [`GroupStore`], so a serving process can **create**, **join** and
//! **leave** groups between requests and score the result immediately —
//! including groups that never existed at training time (cold start).
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
//!    empty ad-hoc roster — is a typed error ([`ColdStartError`],
//!    [`LifecycleError`]), never a panic, so one bad request cannot
//!    take a serving thread down.
//!
//! Group sizes may drift off the trained nominal through mutations; the
//! forward then drops the size-coupled peer-influence tower and scores
//! self-persistence only (see [`Kgag::score_members`]). Nominal-size
//! groups — mutated or not — score through the full attention,
//! bit-identical to the static engine.

use crate::infer::score_cases_with;
use crate::trainer::Kgag;
use kgag_data::{GroupLifecycle, GroupStore, LifecycleAck, LifecycleError, LifecycleOp};
use kgag_eval::BatchGroupScorer;
use kgag_kg::RfCache;
use std::sync::RwLock;

/// Typed rejection of an ad-hoc scoring request ([`Kgag::score_members`]
/// and the [`DynamicScorer`] paths). These are *request* errors — the
/// model and caches are untouched when one is returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdStartError {
    /// No members at all: there is nothing to aggregate.
    EmptyGroup,
    /// A single member is an individual, not a group; score it through
    /// [`Kgag::score_user_items`] instead.
    SingleMember,
    /// Member user id outside the trained user universe.
    UnknownUser(u32),
    /// Candidate item id outside the trained catalog.
    UnknownItem(u32),
    /// Group id not present in the live store.
    UnknownGroup(u32),
}

impl std::fmt::Display for ColdStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColdStartError::EmptyGroup => write!(f, "group has no members"),
            ColdStartError::SingleMember => {
                write!(f, "single-member group: use individual scoring")
            }
            ColdStartError::UnknownUser(u) => write!(f, "unknown user {u}"),
            ColdStartError::UnknownItem(v) => write!(f, "unknown item {v}"),
            ColdStartError::UnknownGroup(g) => write!(f, "unknown group {g}"),
        }
    }
}

impl std::error::Error for ColdStartError {}

/// Mutable serving state behind one lock: the group table and the
/// receptive-field caches that must stay coherent with it.
struct DynState {
    groups: GroupStore,
    caches: Option<(RfCache, RfCache)>,
}

/// A batch scorer over a *live* group table: scores like
/// [`crate::BatchScorer`] (same engine, same caches, same bits)
/// and additionally applies [`LifecycleOp`]s between batches.
///
/// Scoring takes the state read-lock, mutations the write-lock, so any
/// number of batch threads score concurrently and every mutation is
/// atomic with respect to them: a score request sees either the whole
/// mutation or none of it.
pub struct DynamicScorer<'m> {
    model: &'m Kgag,
    batch_instances: usize,
    state: RwLock<DynState>,
}

impl Kgag {
    /// A [`DynamicScorer`] seeded with the model's bound groups and
    /// configured from the environment (`KGAG_RF_CACHE`,
    /// `KGAG_EVAL_BATCH` — same knobs as [`Kgag::batch_scorer`]).
    pub fn dynamic_scorer(&self) -> DynamicScorer<'_> {
        let cache = std::env::var("KGAG_RF_CACHE").map(|v| v != "0").unwrap_or(true);
        let scorer = self.dynamic_scorer_with(cache);
        match std::env::var("KGAG_EVAL_BATCH").ok().and_then(|v| v.parse().ok()) {
            Some(n) if n > 0 => scorer.with_batch_instances(n),
            _ => scorer,
        }
    }

    /// A [`DynamicScorer`] over the bound groups with the
    /// receptive-field cache explicitly on or off.
    pub fn dynamic_scorer_with(&self, cache: bool) -> DynamicScorer<'_> {
        self.dynamic_scorer_over(self.group_store(), cache)
    }

    /// A [`DynamicScorer`] over an explicit [`GroupStore`] — how the
    /// oracle tests stand up the "rebuilt from final membership" side.
    pub fn dynamic_scorer_over(&self, groups: GroupStore, cache: bool) -> DynamicScorer<'_> {
        DynamicScorer {
            model: self,
            batch_instances: 256,
            state: RwLock::new(DynState { groups, caches: self.eval_rf_caches(cache) }),
        }
    }
}

impl<'m> DynamicScorer<'m> {
    /// Override the instances-per-chunk cap (bit-neutral; see
    /// [`crate::BatchScorer::with_batch_instances`]).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn with_batch_instances(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_instances = n;
        self
    }

    /// Whether the receptive-field cache is active.
    pub fn cached(&self) -> bool {
        self.state.read().unwrap().caches.is_some()
    }

    /// Approximate resident size of the receptive-field tables in bytes
    /// (`None` when uncached).
    pub fn cache_bytes(&self) -> Option<usize> {
        let state = self.state.read().unwrap();
        state.caches.as_ref().map(|(m, i)| m.approx_bytes() + i.approx_bytes())
    }

    /// Live group count (static + created).
    pub fn num_groups(&self) -> u32 {
        self.state.read().unwrap().groups.num_groups()
    }

    /// Monotone mutation counter of the live store.
    pub fn version(&self) -> u64 {
        self.state.read().unwrap().groups.version()
    }

    /// Current members of a live group, sorted canonical order for
    /// mutated groups (copied out — the lock is not held by the caller).
    pub fn members_of(&self, group: u32) -> Result<Vec<u32>, LifecycleError> {
        Ok(self.state.read().unwrap().groups.members(group)?.to_vec())
    }

    /// Scores for one `(group, candidate list)` case against the live
    /// membership.
    pub fn score_case(&self, group: u32, items: &[u32]) -> Result<Vec<f32>, ColdStartError> {
        self.try_score_cases(&[(group, items.to_vec())]).map(|mut v| v.pop().unwrap_or_default())
    }

    /// Scores for a batch of cases against the live membership — the
    /// engine path of [`crate::BatchScorer::score_cases`] with the
    /// group table resolved under the read-lock, so the whole batch sees
    /// one consistent membership snapshot.
    pub fn try_score_cases(
        &self,
        cases: &[(u32, Vec<u32>)],
    ) -> Result<Vec<Vec<f32>>, ColdStartError> {
        let state = self.state.read().unwrap();
        let member_ents: Vec<Vec<u32>> = cases
            .iter()
            .map(|&(g, _)| {
                let members =
                    state.groups.members(g).map_err(|_| ColdStartError::UnknownGroup(g))?;
                self.model.member_entities_for(members)
            })
            .collect::<Result<_, _>>()?;
        for (_, items) in cases {
            if let Some(&v) = items.iter().find(|&&v| v >= self.model.num_items()) {
                return Err(ColdStartError::UnknownItem(v));
            }
        }
        Ok(score_cases_with(
            self.model,
            state.caches.as_ref(),
            self.batch_instances,
            &member_ents,
            cases,
        ))
    }

    /// Apply one lifecycle op atomically: mutate the group table, then
    /// evict and repair every receptive-field cache entry reachable from
    /// the touched users. Failed ops leave both untouched.
    pub fn apply(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        let mut state = self.state.write().unwrap();
        let applied = state.groups.apply(op)?;
        let touched_ents: Vec<u32> = applied
            .touched
            .iter()
            .map(|&u| self.model.collaborative_kg().user_entity(u).0)
            .collect();
        let mut evicted = 0usize;
        if let Some((members, items)) = state.caches.as_mut() {
            let graph = self.model.collaborative_kg().graph();
            evicted += members.invalidate_reachable(graph, &touched_ents).evicted;
            evicted += items.invalidate_reachable(graph, &touched_ents).evicted;
            members.repair(self.model.eval_sampler(), graph);
            items.repair(self.model.eval_sampler(), graph);
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

impl BatchGroupScorer for DynamicScorer<'_> {
    /// Infallible trait surface for the batcher. The serving front-end
    /// pre-validates group and item ids at submit (`Status::Invalid` on
    /// the wire), so a failure here is a caller bug.
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.try_score_cases(cases).expect("unvalidated case reached the dynamic batch path")
    }
}

impl GroupLifecycle for DynamicScorer<'_> {
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        self.apply(op)
    }

    fn group_count(&self) -> u32 {
        self.num_groups()
    }

    fn item_count(&self) -> u32 {
        self.model.num_items()
    }
}
