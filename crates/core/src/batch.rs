//! Single-node scoring: the one [`Scorer`] over an in-process source.
//!
//! The per-case path ([`Kgag::score_group_items`]) resamples the
//! receptive field of every member and candidate on each call and walks
//! the eval cases one at a time, so only within-op parallelism is
//! available. [`BatchScorer`] removes both costs: it builds one
//! [`RfCache`] pair per checkpoint (member-side and item-side tables,
//! keyed on the model's fixed inference salt) and fuses the `(group,
//! candidate)` instances of *all* cases into uniform chunks that the
//! thread pool scores concurrently through the inference engine
//! ([`crate::infer`]).
//!
//! A single node is a one-shard deployment whose shard lives in the
//! process: [`InProcess`] is the scorer's [`ChunkSource`], lending the
//! model's own embedding tables in place under global ids — no row
//! copy, no id remap — with receptive fields from the cache pair or the
//! live sampler.
//!
//! The contract is bit-identity: every score equals what the per-case
//! path produces, at any `KGAG_THREADS`, any chunk size and with the
//! cache on or off. This holds because (a) the cache reproduces live
//! sampling exactly ([`RfCache`] docs), and (b) the engine is
//! bit-identical to the tape forward, each output row a pure function of
//! its own instance's inputs — a node shared within a chunk is shared
//! only under equal keys — so chunking is value-neutral.
//! The oracle suite in `crates/core/tests/batched_oracle.rs` enforces
//! it.

use crate::scorer::{ChunkRows, ChunkSource, FieldPlan, ScoreCases, Scorer};
use crate::shard::ShardError;
use crate::trainer::{Kgag, SALT_ITEM, SALT_MEMBER};
use kgag_eval::{BatchGroupScorer, EvalConfig, GroupEvalCase, MetricSummary};
use kgag_kg::RfCache;
use std::borrow::{Borrow, Cow};

/// The in-process [`ChunkSource`]: a model (borrowed or shared) and its
/// receptive-field cache pair.
pub struct InProcess<M> {
    pub(crate) model: M,
    /// `(member-side, item-side)` tables; `None` samples fields live
    /// (cache off, or the KGAG-KG ablation where no fields exist to
    /// cache).
    pub(crate) caches: Option<(RfCache, RfCache)>,
}

impl<M: Borrow<Kgag> + Sync> ChunkSource for InProcess<M> {
    fn chunk<'a>(
        &'a self,
        _plan: &FieldPlan,
        members: &'a [u32],
        items: &'a [u32],
    ) -> Result<ChunkRows<'a>, ShardError> {
        let model = self.model.borrow();
        let p = &model.params().prop;
        Ok(ChunkRows {
            fields: model.eval_fields(self.caches.as_ref(), members, items),
            members: Cow::Borrowed(members),
            items: Cow::Borrowed(items),
            entity: Cow::Borrowed(model.store().value(p.entity_emb).data()),
            relation: Cow::Borrowed(model.store().value(p.relation_emb).data()),
        })
    }
}

/// Scores whole batches of evaluation cases against one borrowed
/// trained model (see the module docs) — the infallible edge the
/// evaluation protocol uses.
pub type BatchScorer<'m> = Scorer<InProcess<&'m Kgag>>;

impl Kgag {
    /// A [`BatchScorer`] with the receptive-field cache on.
    pub fn batch_scorer(&self) -> BatchScorer<'_> {
        self.batch_scorer_with(true)
    }

    /// A [`BatchScorer`] with the cache explicitly on or off (scores are
    /// bit-identical either way; the equivalence tests sweep both).
    pub fn batch_scorer_with(&self, cache: bool) -> BatchScorer<'_> {
        Scorer::new(self, InProcess { model: self, caches: self.eval_rf_caches(cache) })
    }

    /// The `(member-side, item-side)` receptive-field cache pair every
    /// in-process scorer mounts. A cache built here reproduces live
    /// sampling bit-identically wherever it is mounted. `None` when
    /// caching is off or the KGAG-KG ablation leaves nothing to cache.
    pub(crate) fn eval_rf_caches(&self, cache: bool) -> Option<(RfCache, RfCache)> {
        (cache && self.config().use_kg).then(|| {
            let salt = self.eval_salt();
            let graph = self.collaborative_kg().graph();
            let depth = self.config().layers;
            (
                RfCache::build(self.eval_sampler(), graph, depth, salt ^ SALT_MEMBER),
                RfCache::build(self.eval_sampler(), graph, depth, salt ^ SALT_ITEM),
            )
        })
    }

    /// Evaluate prepared cases through the batched protocol — same
    /// metrics as [`Kgag::evaluate`], bit for bit, in one fused scoring
    /// pass.
    pub fn evaluate_batched(&self, cases: &[GroupEvalCase], config: &EvalConfig) -> MetricSummary {
        let scorer = self.batch_scorer();
        self.evaluate_batched_with(&scorer, cases, config)
    }

    /// [`Kgag::evaluate_batched`] over a *borrowed* scorer, so callers
    /// that keep a [`BatchScorer`] alive across many passes — the
    /// serving front-end, sweep loops — pay the receptive-field cache
    /// build once instead of per evaluation.
    pub fn evaluate_batched_with(
        &self,
        scorer: &BatchScorer<'_>,
        cases: &[GroupEvalCase],
        config: &EvalConfig,
    ) -> MetricSummary {
        kgag_eval::evaluate_group_ranking_batched(scorer, self.num_items(), cases, config)
    }
}

impl<M: Borrow<Kgag> + Sync> Scorer<InProcess<M>> {
    /// Whether the receptive-field cache is active.
    pub fn cached(&self) -> bool {
        self.source.caches.is_some()
    }

    /// Approximate resident size of the receptive-field tables in bytes
    /// (`None` when uncached) — what a serving process reports at
    /// startup as the per-checkpoint memory cost of batched inference.
    pub fn cache_bytes(&self) -> Option<usize> {
        self.source.caches.as_ref().map(|(m, i)| m.approx_bytes() + i.approx_bytes())
    }

    /// The `(member-side, item-side)` receptive-field tables the scorer
    /// reads (`None` when uncached) — for tests that recount a chunk's
    /// fields from [`RfCache::entry`].
    pub fn rf_caches(&self) -> Option<(&RfCache, &RfCache)> {
        self.source.caches.as_ref().map(|(m, i)| (m, i))
    }

    /// Scores for one case — aligned with `items`, bit-identical to
    /// [`Kgag::score_group_items`].
    ///
    /// # Panics
    /// Panics on an unknown group or item (use
    /// [`ScoreCases::try_score_cases`] for typed errors).
    pub fn score_case(&self, group: u32, items: &[u32]) -> Vec<f32> {
        self.score_cases(&[(group, items.to_vec())]).pop().unwrap_or_default()
    }

    /// Scores for a batch of `(group, candidate list)` cases. Instances
    /// from different cases are fused into uniform chunks and scored in
    /// parallel; the result is reassembled per case.
    ///
    /// # Panics
    /// Panics on an unknown group or item (use
    /// [`ScoreCases::try_score_cases`] for typed errors).
    pub fn score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.try_score_cases(cases)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("unscorable case: {e}")))
            .collect()
    }
}

impl<M: Borrow<Kgag> + Sync> BatchGroupScorer for Scorer<InProcess<M>> {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.score_cases(cases)
    }
}
