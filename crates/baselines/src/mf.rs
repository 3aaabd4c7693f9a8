//! Matrix factorization (the paper's "CF for individual recommendation"
//! [35]), trained on the combined objective of Eq. 20 like every method
//! in Table II.
//!
//! During training the group prediction is the inner product of the
//! *mean member embedding* with the item embedding (the differentiable
//! counterpart of average aggregation); at evaluation time the caller
//! picks any static aggregator over the per-member sigmoid scores
//! (CF+AVG / CF+LM / CF+MP).

use crate::aggregators::IndividualScorer;
use crate::train::{self, flat_members, TapeForward};
use crate::BaselineConfig;
use kgag::TrainReport;
use kgag_data::split::{DatasetSplit, TrainBatch};
use kgag_data::GroupDataset;
use kgag_tensor::rng::derive_seed;
use kgag_tensor::{init, NodeId, ParamId, ParamStore, Tape};

/// A trained (or trainable) MF model bound to one dataset.
pub struct MatrixFactorization {
    config: BaselineConfig,
    store: ParamStore,
    user_emb: ParamId,
    item_emb: ParamId,
    groups: Vec<Vec<u32>>,
    group_size: usize,
}

impl MatrixFactorization {
    /// Build an untrained model over `ds`.
    pub fn new(ds: &GroupDataset, config: BaselineConfig) -> Self {
        let mut store = ParamStore::new();
        let user_emb = store.register(
            "user_emb",
            init::xavier_uniform(ds.num_users as usize, config.dim, derive_seed(config.seed, "u")),
        );
        let item_emb = store.register(
            "item_emb",
            init::xavier_uniform(ds.num_items as usize, config.dim, derive_seed(config.seed, "v")),
        );
        MatrixFactorization {
            config,
            store,
            user_emb,
            item_emb,
            groups: ds.groups.clone(),
            group_size: ds.group_size,
        }
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Train with the combined loss `β·L_group + (1−β)·L_user + λ‖Θ‖²`
    /// on KGAG's batches.
    pub fn fit(&mut self, split: &DatasetSplit) -> TrainReport {
        train::fit("mf-fit", self.config.clone(), self, split)
    }
}

impl TapeForward for MatrixFactorization {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn group_scores(&self, tape: &mut Tape<'_>, batch: &TrainBatch) -> (NodeId, NodeId) {
        let m = tape.gather(self.user_emb, &flat_members(&self.groups, batch));
        let g_rep = tape.group_mean(m, self.group_size);
        let p = tape.gather(self.item_emb, &batch.positives);
        let n = tape.gather(self.item_emb, &batch.negatives);
        (tape.row_dot(g_rep, p), tape.row_dot(g_rep, n))
    }

    fn user_logits(&self, tape: &mut Tape<'_>, batch: &TrainBatch) -> NodeId {
        let ue = tape.gather(self.user_emb, &batch.users);
        let ve = tape.gather(self.item_emb, &batch.items);
        tape.row_dot(ue, ve)
    }
}

impl IndividualScorer for MatrixFactorization {
    fn score_user(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let u = self.store.value(self.user_emb);
        let v = self.store.value(self.item_emb);
        items
            .iter()
            .map(|&i| kgag_tensor::tensor::sigmoid(u.row_dot(user as usize, v, i as usize)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgag_data::movielens::{movielens_rand, MovieLensConfig, Scale};
    use kgag_data::split::split_dataset;

    fn fixture() -> (GroupDataset, DatasetSplit) {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 3);
        (ds, split)
    }

    #[test]
    fn training_reduces_user_loss() {
        let (ds, split) = fixture();
        let mut mf = MatrixFactorization::new(
            &ds,
            BaselineConfig { epochs: 15, learning_rate: 0.05, ..Default::default() },
        );
        let losses = mf.fit(&split).epochs;
        let first = losses.first().unwrap().user;
        let last = losses.last().unwrap().user;
        assert!(last < first, "user loss should fall: {first} -> {last}");
    }

    #[test]
    fn scores_are_probabilities() {
        let (ds, split) = fixture();
        let mut mf =
            MatrixFactorization::new(&ds, BaselineConfig { epochs: 2, ..Default::default() });
        mf.fit(&split);
        let scores = mf.score_user(0, &[0, 1, 2, 3]);
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn trained_mf_ranks_positives_above_random_items() {
        let (ds, split) = fixture();
        let mut mf = MatrixFactorization::new(
            &ds,
            BaselineConfig { epochs: 40, learning_rate: 0.05, ..Default::default() },
        );
        mf.fit(&split);
        // average score of observed positives vs. random items
        let mut pos_sum = 0.0f64;
        let mut pos_n = 0usize;
        let mut all_sum = 0.0f64;
        let mut all_n = 0usize;
        for u in 0..ds.num_users.min(100) {
            let pos = split.user_train.items_of(u);
            if pos.is_empty() {
                continue;
            }
            for &s in &mf.score_user(u, pos) {
                pos_sum += s as f64;
                pos_n += 1;
            }
            let probe: Vec<u32> = (0..ds.num_items).step_by(7).collect();
            for &s in &mf.score_user(u, &probe) {
                all_sum += s as f64;
                all_n += 1;
            }
        }
        let pos_mean = pos_sum / pos_n as f64;
        let all_mean = all_sum / all_n as f64;
        assert!(
            pos_mean > all_mean + 0.05,
            "positives {pos_mean:.3} should beat random {all_mean:.3}"
        );
    }
}
