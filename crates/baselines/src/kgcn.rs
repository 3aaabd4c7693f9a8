//! KGCN — knowledge graph convolutional networks for recommendation
//! (Wang et al., WWW 2019 [25]), the paper's state-of-the-art
//! KG-based *individual* recommender.
//!
//! Differences from KGAG, faithful to the original:
//!
//! * propagation runs over the **item knowledge graph only** — users are
//!   a plain embedding table, not KG nodes (no collaborative KG);
//! * only the **item side** is propagated; the neighbor weight is
//!   `softmax(u · r)` with the user embedding as the query (KGCN's
//!   user-relation score);
//! * there is no preference-aggregation attention: group scores come
//!   from the static aggregators, as in the paper's KGCN+LM/MP/AVG rows.
//!
//! Per §IV-D it still trains on the combined Eq. 20 objective (group
//! prediction = mean-member query and inner product, the differentiable
//! AVG surrogate).

use crate::aggregators::IndividualScorer;
use crate::train::{self, flat_members, TapeForward};
use crate::BaselineConfig;
use kgag::model::PropagationParams;
use kgag::propagation::propagate;
use kgag::{Backend, TrainReport};
use kgag_data::split::{DatasetSplit, TrainBatch};
use kgag_data::GroupDataset;
use kgag_kg::{KgGraph, NeighborSampler};
use kgag_tensor::rng::derive_seed;
use kgag_tensor::{init, NodeId, ParamId, ParamStore, Tape};

/// KGCN hyper-parameters: the shared baseline set plus the propagation
/// depth/breadth.
#[derive(Clone, Debug)]
pub struct KgcnConfig {
    /// Shared baseline hyper-parameters.
    pub base: BaselineConfig,
    /// Propagation layers H.
    pub layers: usize,
    /// Neighbors sampled per node K.
    pub neighbor_k: usize,
    /// Representation-update aggregator.
    pub aggregator: Backend,
}

impl Default for KgcnConfig {
    fn default() -> Self {
        KgcnConfig {
            base: BaselineConfig::default(),
            layers: 2,
            neighbor_k: 4,
            aggregator: Backend::Gcn,
        }
    }
}

/// A KGCN model bound to one dataset.
pub struct Kgcn {
    config: KgcnConfig,
    graph: KgGraph,
    sampler: NeighborSampler,
    store: ParamStore,
    user_emb: ParamId,
    prop: PropagationParams,
    item_entity: Vec<u32>,
    groups: Vec<Vec<u32>>,
    group_size: usize,
}

impl Kgcn {
    /// Build an untrained model over `ds`.
    pub fn new(ds: &GroupDataset, config: KgcnConfig) -> Self {
        let graph = KgGraph::from_store(&ds.kg);
        let mut store = ParamStore::new();
        let user_emb = store.register(
            "user_emb",
            init::xavier_uniform(
                ds.num_users as usize,
                config.base.dim,
                derive_seed(config.base.seed, "kgcn-user"),
            ),
        );
        let kcfg = kgag::KgagConfig {
            dim: config.base.dim,
            layers: config.layers,
            backend: config.aggregator,
            seed: config.base.seed,
            ..kgag::KgagConfig::default()
        };
        let prop = PropagationParams::register_for_graph(
            &mut store,
            graph.num_entities(),
            graph.num_relation_slots(),
            &kcfg,
        );
        let sampler =
            NeighborSampler::new(config.neighbor_k, derive_seed(config.base.seed, "kgcn-sampler"));
        Kgcn {
            config,
            graph,
            sampler,
            store,
            user_emb,
            prop,
            item_entity: ds.item_entity.iter().map(|e| e.0).collect(),
            groups: ds.groups.clone(),
            group_size: ds.group_size,
        }
    }

    /// Propagated item representations under a `[B, d]` query.
    fn item_rep(&self, tape: &mut Tape<'_>, items: &[u32], query: NodeId, salt: u64) -> NodeId {
        let targets: Vec<u32> = items.iter().map(|&v| self.item_entity[v as usize]).collect();
        let rf = self.sampler.receptive_field(&self.graph, &targets, self.config.layers, salt);
        propagate(tape, &self.prop, self.config.aggregator, &rf, query)
    }

    /// Train on the combined objective on KGAG's batches; returns the
    /// per-epoch losses.
    pub fn fit(&mut self, split: &DatasetSplit) -> TrainReport {
        train::fit("kgcn-fit", self.config.base.clone(), self, split)
    }

    /// The salt of a batch's receptive-field draws.
    fn step_salt(&self, batch: &TrainBatch) -> u64 {
        derive_seed(self.config.base.seed, "kgcn-step")
            ^ (batch.epoch as u64).wrapping_mul(1_000_003)
            ^ (batch.index as u64).wrapping_mul(89)
    }
}

impl TapeForward for Kgcn {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Query = the mean member embedding.
    fn group_scores(&self, tape: &mut Tape<'_>, batch: &TrainBatch) -> (NodeId, NodeId) {
        let salt = self.step_salt(batch);
        let m = tape.gather(self.user_emb, &flat_members(&self.groups, batch));
        let g_rep = tape.group_mean(m, self.group_size);
        let p_rep = self.item_rep(tape, &batch.positives, g_rep, salt ^ 0x11);
        let n_rep = self.item_rep(tape, &batch.negatives, g_rep, salt ^ 0x22);
        (tape.row_dot(g_rep, p_rep), tape.row_dot(g_rep, n_rep))
    }

    /// KGCN proper.
    fn user_logits(&self, tape: &mut Tape<'_>, batch: &TrainBatch) -> NodeId {
        let ue = tape.gather(self.user_emb, &batch.users);
        let v_rep = self.item_rep(tape, &batch.items, ue, self.step_salt(batch) ^ 0x33);
        tape.row_dot(ue, v_rep)
    }
}

impl IndividualScorer for Kgcn {
    fn score_user(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(items.len());
        for chunk in items.chunks(256) {
            let users = vec![user; chunk.len()];
            let mut tape = Tape::new(&self.store);
            let ue = tape.gather(self.user_emb, &users);
            let salt = derive_seed(self.config.base.seed, "kgcn-score") ^ user as u64;
            let v_rep = self.item_rep(&mut tape, chunk, ue, salt);
            let logits = tape.row_dot(ue, v_rep);
            out.extend(tape.value(logits).data().iter().map(|&s| kgag_tensor::tensor::sigmoid(s)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgag_data::movielens::{movielens_rand, MovieLensConfig, Scale};
    use kgag_data::split::split_dataset;

    #[test]
    fn kgcn_trains_and_scores() {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 5);
        let mut model = Kgcn::new(
            &ds,
            KgcnConfig {
                base: BaselineConfig { epochs: 4, ..Default::default() },
                ..Default::default()
            },
        );
        let losses = model.fit(&split).epochs;
        assert_eq!(losses.len(), 4);
        assert!(losses.iter().all(|e| e.group.is_finite() && e.user.is_finite()));
        let scores = model.score_user(1, &[0, 1, 2]);
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn group_loss_decreases() {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 5);
        let mut model = Kgcn::new(
            &ds,
            KgcnConfig {
                base: BaselineConfig { epochs: 10, ..Default::default() },
                ..Default::default()
            },
        );
        let losses = model.fit(&split).epochs;
        assert!(
            losses.last().unwrap().group < losses.first().unwrap().group,
            "group loss should fall: {losses:?}"
        );
    }
}
