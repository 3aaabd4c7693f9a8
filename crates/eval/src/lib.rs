//! # kgag-eval
//!
//! Ranking evaluation for (group) recommendation, matching the protocol
//! of §IV-C: score every candidate item for each group, rank
//! descending, and report `hit@k` and `rec@k` (we also compute
//! `precision@k`, `ndcg@k` and `mrr@k` as extensions — they are standard
//! and cost nothing extra).
//!
//! The crate is model-agnostic: callers provide a score slice per group
//! (or user), the items to exclude from ranking (training positives),
//! and the held-out relevant items.

pub mod metrics;
pub mod protocol;
pub mod ranking;
pub mod significance;

pub use metrics::{MetricAccumulator, MetricSummary, RankingMetrics};
pub use protocol::{
    evaluate_group_ranking, evaluate_group_ranking_detailed, BatchGroupScorer, EvalConfig,
    GroupEvalCase, GroupScorer,
};
pub use ranking::{top_k, top_k_excluding};
pub use significance::{paired_bootstrap, BootstrapComparison};
