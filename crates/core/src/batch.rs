//! Batched inference over cached receptive fields.
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
//! The contract is bit-identity: every score equals what the per-case
//! path produces, at any `KGAG_THREADS`, any chunk size and with the
//! cache on or off. This holds because (a) the cache reproduces live
//! sampling exactly ([`RfCache`] docs), and (b) the engine is
//! bit-identical to the tape forward and computes each output row
//! purely from its own instance's rows, so chunking is value-neutral. The oracle suite in
//! `crates/core/tests/batched_oracle.rs` and a dedicated CI stage
//! enforce it.
//!
//! Knobs: `KGAG_RF_CACHE=0` disables the cache (fields sampled live,
//! batching retained); `KGAG_EVAL_BATCH=<n>` caps the instances per
//! chunk (default 256 — chunks shrink automatically when the batch is
//! too small to keep every pool worker busy).

use crate::infer::score_cases_with;
use crate::trainer::{Kgag, SALT_ITEM, SALT_MEMBER};
use kgag_eval::{BatchGroupScorer, EvalConfig, GroupEvalCase, MetricSummary};
use kgag_kg::RfCache;

/// Scores whole batches of evaluation cases against one trained model,
/// amortising receptive-field sampling across every case (see the
/// module docs).
pub struct BatchScorer<'m> {
    model: &'m Kgag,
    /// `(member-side, item-side)` tables; `None` scores with live
    /// sampling (`KGAG_RF_CACHE=0`, or the KGAG-KG ablation where no
    /// fields exist to cache).
    caches: Option<(RfCache, RfCache)>,
    batch_instances: usize,
}

impl Kgag {
    /// A [`BatchScorer`] configured from the environment:
    /// `KGAG_RF_CACHE=0` disables the receptive-field cache and
    /// `KGAG_EVAL_BATCH` overrides the instances-per-chunk default of
    /// 256.
    pub fn batch_scorer(&self) -> BatchScorer<'_> {
        let cache = std::env::var("KGAG_RF_CACHE").map(|v| v != "0").unwrap_or(true);
        let scorer = self.batch_scorer_with(cache);
        match std::env::var("KGAG_EVAL_BATCH").ok().and_then(|v| v.parse().ok()) {
            Some(n) if n > 0 => scorer.with_batch_instances(n),
            _ => scorer,
        }
    }

    /// A [`BatchScorer`] with the cache explicitly on or off (the knob
    /// the equivalence tests and benches sweep).
    pub fn batch_scorer_with(&self, cache: bool) -> BatchScorer<'_> {
        BatchScorer { model: self, caches: self.eval_rf_caches(cache), batch_instances: 256 }
    }

    /// The `(member-side, item-side)` receptive-field cache pair every
    /// scoring engine shares — [`BatchScorer`], [`crate::DynamicScorer`]
    /// and the registry's owned entries ([`crate::RegistryModel`]) all
    /// build their caches through this one seam, so a cache built here
    /// reproduces live sampling bit-identically wherever it is mounted.
    /// `None` when caching is off or the KGAG-KG ablation leaves nothing
    /// to cache.
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

impl<'m> BatchScorer<'m> {
    /// Override the instances-per-chunk cap (any positive value scores
    /// bit-identically; the size only trades scheduling overhead against
    /// per-chunk buffer size). Chunks shrink below the cap automatically when the
    /// batch is too small to give every pool worker several chunks.
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
        self.caches.is_some()
    }

    /// Approximate resident size of the receptive-field tables in bytes
    /// (`None` when uncached) — what a serving process reports at
    /// startup as the per-checkpoint memory cost of batched inference.
    pub fn cache_bytes(&self) -> Option<usize> {
        self.caches.as_ref().map(|(m, i)| m.approx_bytes() + i.approx_bytes())
    }

    /// Scores for one case — aligned with `items`, bit-identical to
    /// [`Kgag::score_group_items`].
    pub fn score_case(&self, group: u32, items: &[u32]) -> Vec<f32> {
        self.score_cases(&[(group, items.to_vec())]).pop().unwrap_or_default()
    }

    /// Scores for a batch of `(group, candidate list)` cases. Instances
    /// from different cases are fused into uniform chunks and scored in
    /// parallel; the result is reassembled per case.
    pub fn score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        // one member-entity lookup per case, shared by its instances
        let member_ents: Vec<Vec<u32>> =
            cases.iter().map(|&(g, _)| self.model.member_entities(g)).collect();
        score_cases_with(
            self.model,
            self.caches.as_ref(),
            self.batch_instances,
            &member_ents,
            cases,
        )
    }
}

impl BatchGroupScorer for BatchScorer<'_> {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.score_cases(cases)
    }
}
