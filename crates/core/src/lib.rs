//! # kgag
//!
//! A pure-Rust implementation of **KGAG** — *Knowledge Graph-based
//! Attentive Group recommendation* (Deng et al., ICDE 2021).
//!
//! KGAG recommends items to *occasional groups* (ad-hoc sets of users
//! with almost no group–item history) by:
//!
//! 1. building a **collaborative knowledge graph** — the item KG plus
//!    `Interact` edges from observed user–item feedback (§III-A);
//! 2. running a **query-aware GCN** over it so users and items absorb
//!    structure and semantics from their KG neighborhoods, with neighbor
//!    weights `softmax(i_e · r)` conditioned on the interaction
//!    counterpart (§III-C, [`propagation`]);
//! 3. aggregating member preferences with a **two-part attention** —
//!    self persistence + peer influence — into a knowledge-aware group
//!    representation (§III-D, [`attention`]);
//! 4. training end-to-end with a **margin-based pairwise group loss**
//!    combined with a pointwise user log loss (§III-E, [`loss`]).
//!
//! The attention weights double as explanations ([`explain`], RQ4), and
//! every ablation of the paper (KGAG-KG, KGAG-SP, KGAG-PI, KGAG (BPR))
//! is a [`config::KgagConfig`] switch.
//!
//! ```no_run
//! use kgag::{Kgag, KgagConfig};
//! use kgag::harness::{eval_cases, EvalBucket};
//! use kgag_data::movielens::{movielens_rand, MovieLensConfig, Scale};
//! use kgag_data::split::split_dataset;
//! use kgag_eval::EvalConfig;
//!
//! let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
//! let split = split_dataset(&ds, 42);
//! let mut model = Kgag::new(&ds, &split, KgagConfig::default());
//! model.fit(&split);
//! let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
//! let summary = model.evaluate(&cases, &EvalConfig::default());
//! println!("rec@5 {:.4}  hit@5 {:.4}", summary.recall, summary.hit);
//! ```

pub mod attention;
pub mod backend;
pub mod batch;
pub mod config;
pub mod dynamic;
pub mod explain;
pub mod harness;
pub mod infer;
pub mod loss;
pub mod model;
pub mod propagation;
pub mod registry;
pub mod scorer;
pub mod shard;
pub mod trainer;

pub use backend::{FusedAggregation, PropagationBackend};
pub use batch::{BatchScorer, InProcess};
pub use config::{Aggregator, Backend, GroupLoss, KgagConfig};
pub use dynamic::DynamicScorer;
pub use explain::GroupExplanation;
pub use registry::{
    checkpoint_hash, Admission, ModelRegistry, RegistryError, RegistryModel, ShadowStatus,
};
pub use scorer::{ChunkRows, ChunkSource, FieldPlan, ScoreCases, ScoreError, Scorer};
pub use shard::{DrawMemo, LocalFetch, ShardError, ShardErrorKind, ShardFetch};
pub use trainer::{EpochLoss, Kgag, TrainReport};
