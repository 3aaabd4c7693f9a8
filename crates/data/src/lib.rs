//! # kgag-data
//!
//! Datasets for the KGAG reproduction. The paper evaluates on
//! MovieLens-20M (with a Microsoft Satori KG) and Yelp; neither is
//! redistributable or available offline, so this crate generates
//! *synthetic stand-ins* from a latent preference world model
//! ([`world`]): items carry attributes (genres, directors, …), the
//! knowledge graph is built from those attributes, users have
//! attribute-level preferences, and ratings are noisy affinities. The
//! mechanism KGAG exploits — item similarity and user–user interest
//! similarity expressed as KG connectivity — is therefore present by
//! construction (see DESIGN.md §2 for the substitution argument).
//!
//! Three dataset builders mirror the paper's Table I:
//!
//! * [`movielens::movielens_rand`] — groups of 8 random co-raters
//!   (MovieLens-20M-Rand);
//! * [`movielens::movielens_simi`] — groups of 5 with pairwise Pearson
//!   correlation ≥ 0.27 (MovieLens-20M-Simi);
//! * [`yelp::yelp`] — groups of 3 friends with a single co-visit (Yelp).
//!
//! Groups are seeded from unanimously-liked items, following the
//! protocol of Baltrunas et al. [4] used by the paper: a group's positive
//! items are exactly the items every member rated ≥ 4.

pub mod dataset;
pub mod groups;
pub mod import;
pub mod interactions;
pub mod lifecycle;
pub mod movielens;
pub mod similarity;
pub mod split;
pub mod stats;
pub mod world;
pub mod yelp;

pub use dataset::GroupDataset;
pub use interactions::{Interactions, RatingTable};
pub use lifecycle::{
    Applied, GroupLifecycle, GroupStore, LifecycleAck, LifecycleError, LifecycleOp,
};
pub use split::{DatasetSplit, GroupSplit};
pub use stats::DatasetStats;

/// Dense user index.
pub type UserId = u32;
/// Dense item index.
pub type ItemId = u32;
/// Dense group index.
pub type GroupId = u32;
