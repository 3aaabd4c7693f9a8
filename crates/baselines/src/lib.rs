//! # kgag-baselines
//!
//! Every comparison method of the paper's Table II, trained and
//! evaluated under the same protocol as KGAG:
//!
//! * [`mf::MatrixFactorization`] — the CF individual recommender [35],
//!   combined with the static score aggregators (CF+AVG / CF+LM /
//!   CF+MP);
//! * [`kgcn::Kgcn`] — the knowledge-graph convolutional individual
//!   recommender [25] (item-side propagation over the item KG), also
//!   combined with the static aggregators;
//! * [`mosan::Mosan`] — the sub-attention-network group recommender
//!   [16], with user vectors initialised from TransE over the
//!   collaborative KG (the paper's fair-comparison substitution for its
//!   user-context vectors);
//! * [`popularity::Popularity`] — a non-learned sanity floor (not in the
//!   paper; useful to calibrate the synthetic datasets).
//!
//! Following §IV-D, every *trained* baseline optimises the same combined
//! objective as KGAG (Eq. 20): the margin-based group ranking loss plus
//! the user log loss, weighted by β. MF, KGCN and MoSAN also draw their
//! data from KGAG's own sampler, [`kgag_data::split::TrainBatches`]: the
//! same shuffles, batches and negatives in the same RNG order, on a
//! seed stream of their own. Each keeps only its tape forward.

pub mod aggregators;
pub mod kgcn;
pub mod mf;
pub mod mosan;
pub mod popularity;
pub mod pseudo_user;
mod train;

pub use aggregators::{AggregatedGroupScorer, IndividualScorer, ScoreAggregator};
pub use kgcn::{Kgcn, KgcnConfig};
pub use mf::MatrixFactorization;
pub use mosan::{Mosan, MosanConfig};
pub use popularity::Popularity;
pub use pseudo_user::PseudoUserGroups;

/// Hyper-parameters shared by the trained baselines.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight decay λ.
    pub lambda: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Group-instance batch size.
    pub batch_size: usize,
    /// User instances per step.
    pub user_batch_size: usize,
    /// Group-loss weight β (Eq. 20).
    pub beta: f32,
    /// Margin M of the group ranking loss.
    pub margin: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            dim: 16,
            learning_rate: 1e-2,
            lambda: 1e-5,
            epochs: 20,
            batch_size: 128,
            user_batch_size: 256,
            beta: 0.7,
            margin: 0.4,
            seed: 0xba5e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = BaselineConfig::default();
        assert!(c.dim > 0 && c.epochs > 0 && c.batch_size > 0);
        assert!((0.0..=1.0).contains(&c.beta));
    }
}
