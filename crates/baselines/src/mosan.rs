//! MoSAN — medley of sub-attention networks for group recommendation
//! (Tran et al., SIGIR 2019 [16]).
//!
//! Each member's sub-attention network attends over her *peers* to build
//! a context vector; the group representation is the average of those
//! contexts. Crucially — and this is the paper's criticism — the
//! attention does **not** condition on the candidate item.
//!
//! Following §IV-D's fair-comparison setup, the user-context vectors of
//! the original model are replaced by *knowledge-aware* user vectors:
//! user/item embeddings are initialised from TransE trained on the
//! collaborative knowledge graph, then fine-tuned end-to-end on the
//! combined Eq. 20 objective.

use crate::aggregators::IndividualScorer;
use crate::train::{self, flat_members, TapeForward};
use crate::BaselineConfig;
use kgag::TrainReport;
use kgag_data::split::{DatasetSplit, TrainBatch};
use kgag_data::GroupDataset;
use kgag_eval::GroupScorer;
use kgag_kg::transe::{self, TransEConfig};
use kgag_tensor::rng::derive_seed;
use kgag_tensor::{init, NodeId, ParamId, ParamStore, Tape, Tensor};

/// MoSAN hyper-parameters.
#[derive(Clone, Debug)]
pub struct MosanConfig {
    /// Shared baseline hyper-parameters.
    pub base: BaselineConfig,
    /// TransE pre-training of the knowledge-aware user/item vectors
    /// (`None` = random initialization, the "no KG" variant).
    pub transe: Option<TransEConfig>,
}

impl Default for MosanConfig {
    fn default() -> Self {
        let base = BaselineConfig::default();
        let transe = TransEConfig { dim: base.dim, epochs: 15, ..TransEConfig::default() };
        MosanConfig { base, transe: Some(transe) }
    }
}

/// A MoSAN model bound to one dataset.
pub struct Mosan {
    config: MosanConfig,
    store: ParamStore,
    user_emb: ParamId,
    item_emb: ParamId,
    att_w1: ParamId,
    att_w2: ParamId,
    att_b: ParamId,
    att_v: ParamId,
    groups: Vec<Vec<u32>>,
    group_size: usize,
}

impl Mosan {
    /// Build the model, optionally pre-training TransE embeddings over
    /// the collaborative KG (built from the split's training
    /// interactions only).
    pub fn new(ds: &GroupDataset, split: &DatasetSplit, config: MosanConfig) -> Self {
        let d = config.base.dim;
        let seed = |l: &str| derive_seed(config.base.seed, l);
        let (user_init, item_init) = match &config.transe {
            Some(tcfg) => {
                assert_eq!(tcfg.dim, d, "TransE dim must match model dim");
                let ckg = ds.collaborative_kg_from(&split.user_train);
                // train TransE over the collaborative KG triples: rebuild
                // a store with interact edges included
                let mut triples = ds.kg.clone();
                let interact = triples.add_relation(Some("Interact"));
                let base_entities = ds.kg.num_entities();
                for u in 0..ds.num_users {
                    triples.add_entity(None);
                    let _ = u;
                }
                for (u, v) in split.user_train.pairs() {
                    triples.add(kgag_kg::Triple {
                        head: kgag_kg::EntityId(base_entities + u),
                        relation: interact,
                        tail: ds.item_entity[v as usize],
                    });
                }
                let model = transe::train(&triples, tcfg);
                let mut user_init = Tensor::zeros(ds.num_users as usize, d);
                for u in 0..ds.num_users {
                    user_init
                        .row_mut(u as usize)
                        .copy_from_slice(model.entities.row(ckg.user_entity(u).0 as usize));
                }
                let mut item_init = Tensor::zeros(ds.num_items as usize, d);
                for v in 0..ds.num_items {
                    item_init
                        .row_mut(v as usize)
                        .copy_from_slice(model.entities.row(ds.item_entity[v as usize].0 as usize));
                }
                (user_init, item_init)
            }
            None => (
                init::xavier_uniform(ds.num_users as usize, d, seed("mosan-u")),
                init::xavier_uniform(ds.num_items as usize, d, seed("mosan-v")),
            ),
        };
        let mut store = ParamStore::new();
        let user_emb = store.register("user_emb", user_init);
        let item_emb = store.register("item_emb", item_init);
        let att_w1 = store.register("att_w1", init::xavier_uniform(d, d, seed("mosan-w1")));
        let att_w2 = store.register("att_w2", init::xavier_uniform(d, d, seed("mosan-w2")));
        let att_b = store.register("att_b", Tensor::zeros(1, d));
        let att_v = store.register("att_v", init::xavier_uniform(d, 1, seed("mosan-vc")));
        Mosan {
            config,
            store,
            user_emb,
            item_emb,
            att_w1,
            att_w2,
            att_b,
            att_v,
            groups: ds.groups.clone(),
            group_size: ds.group_size,
        }
    }

    /// Pair-expanded member indices for the sub-attention networks:
    /// `(left, right)` where for every instance, member `i` and peer `j≠i`
    /// contribute one row each.
    fn pair_indices(&self, flat_members: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let l = self.group_size;
        let n_inst = flat_members.len() / l;
        let mut left = Vec::with_capacity(n_inst * l * (l - 1));
        let mut right = Vec::with_capacity(n_inst * l * (l - 1));
        for inst in 0..n_inst {
            let block = &flat_members[inst * l..(inst + 1) * l];
            for i in 0..l {
                for (j, &peer) in block.iter().enumerate() {
                    if j != i {
                        left.push(block[i]);
                        right.push(peer);
                    }
                }
            }
        }
        (left, right)
    }

    /// Group representations for a batch of instances (`flat_members` is
    /// `B·L` user ids) — a `[B, d]` node. The sub-attention is
    /// item-independent by design.
    fn group_rep(&self, tape: &mut Tape<'_>, flat_members: &[u32]) -> NodeId {
        let l = self.group_size;
        assert!(l >= 2, "MoSAN needs at least two members");
        let (left, right) = self.pair_indices(flat_members);
        let u_left = tape.gather(self.user_emb, &left);
        let u_right = tape.gather(self.user_emb, &right);
        let w1 = tape.param(self.att_w1);
        let w2 = tape.param(self.att_w2);
        let b = tape.param(self.att_b);
        let v = tape.param(self.att_v);
        let h1 = tape.matmul(u_left, w1);
        let h2 = tape.matmul(u_right, w2);
        let sum = tape.add(h1, h2);
        let biased = tape.add_row(sum, b);
        let act = tape.relu(biased);
        let scores = tape.matmul(act, v); // [B·L·(L−1), 1]
        let weights = tape.softmax_groups(scores, l - 1);
        let ctx = tape.group_weighted_sum(weights, u_right, l - 1); // [B·L, d]
        tape.group_mean(ctx, l) // [B, d]
    }

    /// Train on the combined objective on KGAG's batches; returns the
    /// per-epoch losses.
    pub fn fit(&mut self, split: &DatasetSplit) -> TrainReport {
        train::fit("mosan-fit", self.config.base.clone(), self, split)
    }
}

impl TapeForward for Mosan {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn group_scores(&self, tape: &mut Tape<'_>, batch: &TrainBatch) -> (NodeId, NodeId) {
        let g_rep = self.group_rep(tape, &flat_members(&self.groups, batch));
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

impl GroupScorer for Mosan {
    fn score(&self, group: u32, items: &[u32]) -> Vec<f32> {
        // the group representation is item-independent: compute it once
        let members = &self.groups[group as usize];
        let mut tape = Tape::new(&self.store);
        let g_rep = self.group_rep(&mut tape, members);
        let g = tape.value(g_rep).clone();
        let v = self.store.value(self.item_emb);
        items.iter().map(|&i| kgag_tensor::tensor::sigmoid(g.row_dot(0, v, i as usize))).collect()
    }
}

impl IndividualScorer for Mosan {
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

    fn quick_cfg(epochs: usize, transe: bool) -> MosanConfig {
        let base = BaselineConfig { epochs, ..Default::default() };
        let transe =
            transe.then(|| TransEConfig { dim: base.dim, epochs: 3, ..TransEConfig::default() });
        MosanConfig { base, transe }
    }

    #[test]
    fn trains_and_scores_groups() {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 9);
        let mut model = Mosan::new(&ds, &split, quick_cfg(4, false));
        let losses = model.fit(&split).epochs;
        assert!(losses.last().unwrap().group < losses.first().unwrap().group, "{losses:?}");
        let scores = model.score(0, &[0, 1, 2, 3]);
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn transe_initialization_differs_from_random() {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 9);
        let with = Mosan::new(&ds, &split, quick_cfg(1, true));
        let without = Mosan::new(&ds, &split, quick_cfg(1, false));
        assert_ne!(with.store.value(with.user_emb), without.store.value(without.user_emb));
    }

    #[test]
    fn group_rep_is_item_independent() {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 9);
        let mut model = Mosan::new(&ds, &split, quick_cfg(2, false));
        model.fit(&split);
        // scoring different item lists must agree on shared items
        let a = model.score(0, &[3, 7]);
        let b = model.score(0, &[7]);
        assert!((a[1] - b[0]).abs() < 1e-6);
    }

    #[test]
    fn pair_indices_layout() {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 9);
        let model = Mosan::new(&ds, &split, quick_cfg(1, false));
        // group size 8 at tiny scale: instance of one group
        let members: Vec<u32> = (0..model.group_size as u32).collect();
        let (left, right) = model.pair_indices(&members);
        let l = model.group_size;
        assert_eq!(left.len(), l * (l - 1));
        // first block: member 0 against every peer
        for j in 0..(l - 1) {
            assert_eq!(left[j], 0);
            assert_eq!(right[j], (j + 1) as u32);
        }
        // no self-pairs anywhere
        assert!(left.iter().zip(&right).all(|(a, b)| a != b));
    }
}
