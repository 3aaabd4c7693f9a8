//! The KGAG model façade: construction, training, scoring.
//!
//! [`Kgag`] owns the collaborative KG, the parameter store and the
//! neighbor sampler, and exposes:
//!
//! * [`Kgag::fit`] — mini-batch Adam training on the combined loss
//!   `β·L_group + (1−β)·L_user + λ‖Θ‖²` (Eq. 20). Every step draws one
//!   group batch *and* one user batch, matching the paper's "each
//!   mini-batch contains both user–item and group–item interactions";
//! * [`Kgag::score_group_items`] / [`Kgag::score_user_items`] —
//!   inference (also the [`GroupScorer`] impl used by the evaluation
//!   protocol);
//! * [`Kgag::explain`] — the attention read-out behind RQ4.

use crate::attention::{group_attention, AttentionOut};
use crate::config::{GroupLoss, KgagConfig};
use crate::explain::GroupExplanation;
use crate::loss::{bpr_group_loss, margin_group_loss, user_log_loss};
use crate::model::ModelParams;
use crate::scorer::ScoreError;
use kgag_data::split::{DatasetSplit, NegativeSampler};
use kgag_data::GroupDataset;
use kgag_eval::{EvalConfig, GroupEvalCase, GroupScorer, MetricSummary};
use kgag_kg::{CollaborativeKg, FieldDag, NeighborSampler, ReceptiveField, RfCache};
use kgag_tensor::optim::{Adam, Optimizer};
use kgag_tensor::pool;
use kgag_tensor::rng::{derive_seed, SplitMix64};
use kgag_tensor::{NodeId, ParamStore, Tape, Tensor};
use kgag_testkit::json::{Json, ToJson};
use std::collections::HashSet;
use std::convert::Infallible;
use std::time::Instant;

/// Per-epoch training losses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochLoss {
    /// Mean group ranking loss over the epoch's batches.
    pub group: f32,
    /// Mean user log loss.
    pub user: f32,
}

impl ToJson for EpochLoss {
    fn to_json(&self) -> Json {
        Json::obj(vec![("group", self.group.to_json()), ("user", self.user.to_json())])
    }
}

/// Training summary returned by [`Kgag::fit`].
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochLoss>,
}

impl ToJson for TrainReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![("epochs", self.epochs.to_json())])
    }
}

impl TrainReport {
    /// Final combined loss `β·group + (1−β)·user`, if any epoch ran.
    pub fn final_loss(&self, beta: f32) -> Option<f32> {
        self.epochs.last().map(|e| beta * e.group + (1.0 - beta) * e.user)
    }
}

/// Cycles through training pairs, reshuffled and restarted at every
/// epoch boundary.
///
/// An earlier version kept a single cursor running *across* epochs while
/// reshuffling the underlying list each epoch. Whenever an epoch drew a
/// non-multiple of `len` pairs, the next epoch resumed mid-list over a
/// freshly shuffled order, so within one pass some pairs were visited
/// twice and others not at all — a sampling bias toward an RNG-dependent
/// subset of the user interactions. Resetting the cursor together with
/// the shuffle restores the guarantee that every full pass visits each
/// pair exactly once (wrap-around only happens when a single epoch needs
/// more draws than the list holds).
struct PairCycler {
    pairs: Vec<(u32, u32)>,
    cursor: usize,
}

impl PairCycler {
    /// # Panics
    /// Panics when `pairs` is empty.
    fn new(pairs: Vec<(u32, u32)>) -> Self {
        assert!(!pairs.is_empty(), "no training pairs to cycle");
        PairCycler { pairs, cursor: 0 }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Reshuffle and restart from the top of the list.
    fn start_epoch(&mut self, rng: &mut SplitMix64) {
        rng.shuffle(&mut self.pairs);
        self.cursor = 0;
    }

    fn next(&mut self) -> (u32, u32) {
        let pair = self.pairs[self.cursor % self.pairs.len()];
        self.cursor += 1;
        pair
    }
}

/// Salt domain separators keeping the four receptive-field draws of one
/// forward pass on distinct RNG streams (item vs member side of a group
/// instance; user vs item side of a user instance). [`RfCache`] tables
/// are keyed on `eval_salt ^ <separator>`, so the separators are part of
/// the serving contract.
pub(crate) const SALT_ITEM: u64 = 0x17e3;
pub(crate) const SALT_MEMBER: u64 = 0x3e2b;
const SALT_USER: u64 = 0x5a11;
const SALT_USER_ITEM: u64 = 0x77d9;
/// KGNN-LS label-propagation fields draw on their own stream so turning
/// the regularizer on never perturbs the representation fields above.
const SALT_LS: u64 = 0x6c5d;

/// A KGAG model bound to one dataset.
pub struct Kgag {
    config: KgagConfig,
    ckg: CollaborativeKg,
    sampler: NeighborSampler,
    eval_sampler: NeighborSampler,
    store: ParamStore,
    params: ModelParams,
    groups: Vec<Vec<u32>>,
    group_size: usize,
    num_items: u32,
}

pub(crate) struct GroupForward {
    pub(crate) attention: AttentionOut,
    /// Raw prediction scores `[B, 1]` (Eq. 14).
    pub(crate) score: NodeId,
}

impl Kgag {
    /// Build an untrained model over `ds`, propagating over the
    /// collaborative KG induced by the split's training interactions.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a dataset that fails
    /// [`GroupDataset::validate`].
    pub fn new(ds: &GroupDataset, split: &DatasetSplit, config: KgagConfig) -> Self {
        let cfg_errs = config.validate();
        assert!(cfg_errs.is_empty(), "invalid config: {cfg_errs:?}");
        let ds_errs = ds.validate();
        assert!(ds_errs.is_empty(), "invalid dataset: {ds_errs:?}");
        // the collaborative KG carries only training-time interactions —
        // an `Interact` edge encoding a held-out group decision would
        // leak it into the propagated representations
        let ckg = ds.collaborative_kg_from(&split.user_train);
        let mut store = ParamStore::new();
        let params = ModelParams::register(&mut store, &ckg, &config, ds.group_size);
        let sampler = NeighborSampler::new(config.neighbor_k, derive_seed(config.seed, "sampler"));
        let eval_sampler = NeighborSampler::new(
            config.eval_neighbor_k.unwrap_or(config.neighbor_k),
            derive_seed(config.seed, "eval-sampler"),
        );
        Kgag {
            config,
            ckg,
            sampler,
            eval_sampler,
            store,
            params,
            groups: ds.groups.clone(),
            group_size: ds.group_size,
            num_items: ds.num_items,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &KgagConfig {
        &self.config
    }

    /// The parameter store (read access, e.g. for checkpoints/analysis).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The collaborative KG the model propagates over.
    pub fn collaborative_kg(&self) -> &CollaborativeKg {
        &self.ckg
    }

    /// Number of items in the catalog.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    // ------------------------------------------------------------------
    // Forward passes
    // ------------------------------------------------------------------

    /// Knowledge-aware representation of `targets` (entity ids) under
    /// per-target `query` vectors. Under the KGAG-KG ablation this is
    /// the plain zero-order embedding.
    fn represent(
        &self,
        tape: &mut Tape<'_>,
        targets: &[u32],
        query: NodeId,
        salt: u64,
        train: bool,
    ) -> NodeId {
        if !self.config.use_kg {
            return tape.gather(self.params.prop.entity_emb, targets);
        }
        let sampler = if train { &self.sampler } else { &self.eval_sampler };
        let rf = sampler.receptive_field(self.ckg.graph(), targets, self.config.layers, salt);
        self.propagate_rf(tape, &rf, query)
    }

    fn propagate_rf(&self, tape: &mut Tape<'_>, rf: &ReceptiveField, query: NodeId) -> NodeId {
        crate::propagation::propagate_with(
            tape,
            &self.params.prop,
            self.config.backend,
            rf,
            query,
            if self.config.residual { self.config.propagation_weight } else { 0.0 },
        )
    }

    /// Forward a batch of `B` group–item instances with `l` members per
    /// group.
    ///
    /// `flat_members` holds `B · l` member *entity* ids (instance-major);
    /// `item_ents` holds `B` item entity ids. Queries follow §III-C: the
    /// item propagates under the mean of the members' zero-order
    /// embeddings, each member under the candidate item's zero-order
    /// embedding.
    pub(crate) fn forward_group(
        &self,
        tape: &mut Tape<'_>,
        flat_members: &[u32],
        item_ents: &[u32],
        l: usize,
        salt: u64,
        train: bool,
    ) -> GroupForward {
        // receptive fields are resolved *before* any tape op: a draw
        // depends only on (seed, salt, entity, level), never on tape
        // state, so hoisting the sampling leaves the op sequence — and
        // therefore the bits — untouched
        let sampler = if train { &self.sampler } else { &self.eval_sampler };
        let (rf_members, rf_items) = self.sampled_fields(sampler, salt, flat_members, item_ents);
        forward_group_prepared(
            tape,
            &self.params,
            &self.config,
            self.group_size,
            flat_members,
            item_ents,
            l,
            rf_members.as_ref(),
            rf_items.as_ref(),
        )
    }

    /// Member- and item-side receptive fields of a group forward drawn
    /// live under `salt` — `(None, None)` under the KGAG-KG ablation.
    fn sampled_fields(
        &self,
        sampler: &NeighborSampler,
        salt: u64,
        flat_members: &[u32],
        item_ents: &[u32],
    ) -> (Option<ReceptiveField>, Option<ReceptiveField>) {
        if !self.config.use_kg {
            return (None, None);
        }
        let graph = self.ckg.graph();
        let depth = self.config.layers;
        (
            Some(sampler.receptive_field(graph, flat_members, depth, salt ^ SALT_MEMBER)),
            Some(sampler.receptive_field(graph, item_ents, depth, salt ^ SALT_ITEM)),
        )
    }

    /// The inference-time distinct-node fields of a chunk's distinct
    /// `members` and `items`: looked up in prebuilt [`RfCache`] tables
    /// when `caches` is given, drawn live under the eval salt otherwise
    /// — `None` under the KGAG-KG ablation. Both resolve to the same
    /// draws, so the two score bit-identically.
    pub(crate) fn eval_fields(
        &self,
        caches: Option<&(RfCache, RfCache)>,
        members: &[u32],
        items: &[u32],
    ) -> Option<(FieldDag, FieldDag)> {
        if !self.config.use_kg {
            return None;
        }
        Some(match caches {
            Some((m, i)) => (m.field_dag(members), i.field_dag(items)),
            None => {
                let (graph, depth, k) =
                    (self.ckg.graph(), self.config.layers, self.eval_sampler.k());
                let live = |targets: &[u32], salt: u64| {
                    let draws = |l: usize, parents: &[u32]| {
                        Ok::<_, Infallible>(self.eval_sampler.draws(graph, l, parents, salt))
                    };
                    let Ok(dag) = FieldDag::assemble(targets, depth, k, draws);
                    dag
                };
                let salt = self.eval_salt();
                (live(members, salt ^ SALT_MEMBER), live(items, salt ^ SALT_ITEM))
            }
        })
    }

    /// Forward a batch of user–item instances, returning `[B, 1]` logits
    /// (Eq. 19).
    fn forward_user(
        &self,
        tape: &mut Tape<'_>,
        user_ents: &[u32],
        item_ents: &[u32],
        salt: u64,
        train: bool,
    ) -> NodeId {
        debug_assert_eq!(user_ents.len(), item_ents.len());
        let u0 = tape.gather(self.params.prop.entity_emb, user_ents);
        let v0 = tape.gather(self.params.prop.entity_emb, item_ents);
        let u_rep = self.represent(tape, user_ents, v0, salt ^ SALT_USER, train);
        let v_rep = self.represent(tape, item_ents, u0, salt ^ SALT_USER_ITEM, train);
        tape.row_dot(u_rep, v_rep)
    }

    pub(crate) fn member_entities(&self, group: u32) -> Vec<u32> {
        self.groups[group as usize].iter().map(|&u| self.ckg.user_entity(u).0).collect()
    }

    /// Member user ids → CKG entity ids, with the typed validation the
    /// cold-start path needs (never panics on bad input).
    pub(crate) fn member_entities_for(&self, members: &[u32]) -> Result<Vec<u32>, ScoreError> {
        match members.len() {
            0 => return Err(ScoreError::EmptyGroup),
            1 => return Err(ScoreError::SingleMember),
            _ => {}
        }
        members
            .iter()
            .map(|&u| {
                if u < self.ckg.num_users() {
                    Ok(self.ckg.user_entity(u).0)
                } else {
                    Err(ScoreError::UnknownUser(u))
                }
            })
            .collect()
    }

    pub(crate) fn item_entities(&self, items: &[u32]) -> Vec<u32> {
        items.iter().map(|&v| self.item_entity(v)).collect()
    }

    pub(crate) fn item_entity(&self, item: u32) -> u32 {
        self.ckg.item_entity(item).0
    }

    /// The fixed inference salt of this model. Group scoring draws
    /// receptive fields under `eval_salt ^ SALT_ITEM` /
    /// `eval_salt ^ SALT_MEMBER` for every group and candidate, which is
    /// what lets [`RfCache`] tables built once per checkpoint serve every
    /// evaluation case.
    pub(crate) fn eval_salt(&self) -> u64 {
        derive_seed(self.config.seed, "score")
    }

    pub(crate) fn eval_sampler(&self) -> &NeighborSampler {
        &self.eval_sampler
    }

    /// Parameter handles — read by the inference engine, which scores
    /// straight from the store's tensors.
    pub(crate) fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Nominal members per group in the bound dataset — the size the
    /// peer-influence attention was shaped for. Lifecycle-mutated groups
    /// may drift from it (see [`crate::dynamic`]).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Snapshot the bound group table as a mutable lifecycle store —
    /// the seed state of a [`crate::DynamicScorer`].
    pub fn group_store(&self) -> kgag_data::GroupStore {
        kgag_data::GroupStore::new(self.groups.clone(), self.ckg.num_users())
    }

    /// Zero-order embedding of one CKG entity (a row of the entity
    /// table). Read-only hook for the cold-start reference tests, which
    /// recompute the attention aggregation by hand from these rows.
    pub fn entity_embedding(&self, entity: u32) -> Vec<f32> {
        let t = self.store.value(self.params.prop.entity_emb);
        let (e, d) = (entity as usize, t.cols());
        t.data()[e * d..(e + 1) * d].to_vec()
    }

    // ------------------------------------------------------------------
    // Training
    // ------------------------------------------------------------------

    /// Train on a split with the paper's combined objective.
    pub fn fit(&mut self, split: &DatasetSplit) -> TrainReport {
        // the training forward flattens members at the nominal size and
        // the PI tower is shaped for it; variable-size group tables
        // (rebuilt from a lifecycle store) are inference-only
        assert!(
            self.groups.iter().all(|m| m.len() == self.group_size),
            "training requires uniform groups of the nominal size {}",
            self.group_size
        );
        let _fit_span = kgag_obs::span("trainer.fit");
        let telemetry = kgag_obs::enabled();
        let cfg = self.config.clone();
        let mut adam = Adam::with_decay(cfg.learning_rate, cfg.lambda);
        let mut rng = SplitMix64::new(derive_seed(cfg.seed, "fit"));

        // negatives are rejected against train∪val positives (test stays
        // unseen in every sense)
        let group_known: Vec<(u32, u32)> =
            split.group.train.iter().chain(&split.group.val).copied().collect();
        let group_neg = NegativeSampler::new(group_known, self.num_items);
        let user_neg = NegativeSampler::from_interactions(&split.user_train);

        // KGNN-LS: known-positive set for the label-propagation masks,
        // in CKG entity ids. Only consulted via `contains`, so the
        // HashSet's iteration order never touches the bits.
        let ls_enabled =
            cfg.backend.dispatch().label_smoothness() && cfg.ls_weight > 0.0 && cfg.use_kg;
        let ls_pos: HashSet<(u32, u32)> = if ls_enabled {
            split
                .user_train
                .pairs()
                .into_iter()
                .map(|(u, v)| (self.ckg.user_entity(u).0, self.ckg.item_entity(v).0))
                .collect()
        } else {
            HashSet::new()
        };

        let mut group_pairs = split.group.train.clone();
        let user_pairs = split.user_train.pairs();
        assert!(!group_pairs.is_empty(), "no group training data");
        assert!(!user_pairs.is_empty(), "no user training data");
        let mut user_cycle = PairCycler::new(user_pairs);
        let mut report = TrainReport::default();

        for epoch in 0..cfg.epochs {
            let epoch_span = kgag_obs::span("trainer.epoch");
            rng.shuffle(&mut group_pairs);
            user_cycle.start_epoch(&mut rng);
            let mut g_sum = 0.0f64;
            let mut u_sum = 0.0f64;
            let mut batches = 0usize;
            let mut grad_update_ns = 0u64;
            for (bi, chunk) in group_pairs.chunks(cfg.batch_size).enumerate() {
                let batch_start = telemetry.then(Instant::now);
                let salt = derive_seed(cfg.seed, "step")
                    ^ (epoch as u64).wrapping_mul(1_000_003)
                    ^ (bi as u64).wrapping_mul(97);

                // ---- group instances -------------------------------
                let mut flat_members = Vec::with_capacity(chunk.len() * self.group_size);
                let mut pos_items = Vec::with_capacity(chunk.len());
                let mut neg_items = Vec::with_capacity(chunk.len());
                for &(g, v_pos) in chunk {
                    flat_members.extend(self.member_entities(g));
                    pos_items.push(v_pos);
                    neg_items.push(group_neg.sample(g, &mut rng));
                }
                let pos_ents = self.item_entities(&pos_items);
                let neg_ents = self.item_entities(&neg_items);

                // ---- user instances --------------------------------
                let half = cfg.user_batch_size / 2;
                let mut u_users = Vec::with_capacity(2 * half);
                let mut u_items = Vec::with_capacity(2 * half);
                let mut u_targets = Vec::with_capacity(2 * half);
                for _ in 0..half {
                    let (u, v) = user_cycle.next();
                    u_users.push(self.ckg.user_entity(u).0);
                    u_items.push(self.ckg.item_entity(v).0);
                    u_targets.push(1.0);
                    let vn = user_neg.sample(u, &mut rng);
                    u_users.push(self.ckg.user_entity(u).0);
                    u_items.push(self.ckg.item_entity(vn).0);
                    u_targets.push(0.0);
                }

                // ---- combined loss ---------------------------------
                let (mut grads, g_loss, u_loss) = {
                    let mut tape = Tape::new(&self.store);
                    // same salt for both branches: the members' sampled
                    // subtrees coincide, so the margin compares the two
                    // items under identical group inputs
                    let fwd_pos = self.forward_group(
                        &mut tape,
                        &flat_members,
                        &pos_ents,
                        self.group_size,
                        salt,
                        true,
                    );
                    let fwd_neg = self.forward_group(
                        &mut tape,
                        &flat_members,
                        &neg_ents,
                        self.group_size,
                        salt,
                        true,
                    );
                    let lg = match cfg.group_loss {
                        GroupLoss::Margin => {
                            margin_group_loss(&mut tape, fwd_pos.score, fwd_neg.score, cfg.margin)
                        }
                        GroupLoss::Bpr => bpr_group_loss(&mut tape, fwd_pos.score, fwd_neg.score),
                    };
                    let logits = self.forward_user(&mut tape, &u_users, &u_items, salt, true);
                    let lu = user_log_loss(&mut tape, logits, Tensor::col_vector(&u_targets));
                    let lg_w = tape.scale(lg, cfg.beta);
                    let lu_w = tape.scale(lu, 1.0 - cfg.beta);
                    let mut total = tape.add(lg_w, lu_w);
                    if ls_enabled {
                        // label propagation over the user instances'
                        // target-item fields, on a dedicated salt stream
                        let rf = self.sampler.receptive_field(
                            self.ckg.graph(),
                            &u_items,
                            cfg.layers,
                            salt ^ SALT_LS,
                        );
                        let labels = ls_level_labels(&ls_pos, &rf, &u_users, &u_items);
                        let q_users = tape.gather(self.params.prop.entity_emb, &u_users);
                        let ls = crate::backend::label_smoothness_loss(
                            &mut tape,
                            &self.params.prop,
                            &rf,
                            q_users,
                            &labels,
                            &u_targets,
                        );
                        let ls_w = tape.scale(ls, cfg.ls_weight);
                        total = tape.add(total, ls_w);
                    }
                    let grads = tape.backward(total);
                    (grads, tape.value(lg).item(), tape.value(lu).item())
                };
                // extra decay on the attention tower (see config docs)
                if cfg.attention_decay > 0.0 {
                    for id in [
                        self.params.att_w1,
                        self.params.att_w2,
                        self.params.att_b,
                        self.params.att_v,
                    ] {
                        let shape = self.store.shape(id);
                        let theta = self.store.value(id).clone();
                        grads.accumulate(id, shape, |g| {
                            g.axpy(cfg.attention_decay, &theta);
                        });
                    }
                }
                let grad_start = telemetry.then(Instant::now);
                adam.step(&mut self.store, &grads);
                if let Some(start) = grad_start {
                    grad_update_ns += start.elapsed().as_nanos() as u64;
                }
                if let Some(start) = batch_start {
                    kgag_obs::histogram("trainer.batch_ns")
                        .record(start.elapsed().as_nanos() as u64);
                }
                g_sum += g_loss as f64;
                u_sum += u_loss as f64;
                batches += 1;
            }
            let epoch_loss = EpochLoss {
                group: (g_sum / batches.max(1) as f64) as f32,
                user: (u_sum / batches.max(1) as f64) as f32,
            };
            drop(epoch_span);
            if telemetry {
                kgag_obs::gauge("trainer.group_loss").set(epoch_loss.group as f64);
                kgag_obs::gauge("trainer.user_loss").set(epoch_loss.user as f64);
                kgag_obs::emit(
                    &kgag_obs::Event::new("point", "trainer.epoch")
                        .u64("epoch", epoch as u64)
                        .f64("group_loss", epoch_loss.group as f64)
                        .f64("user_loss", epoch_loss.user as f64)
                        .u64("batches", batches as u64)
                        .u64("grad_update_ns", grad_update_ns),
                );
            }
            report.epochs.push(epoch_loss);
            debug_assert!(!self.store.has_non_finite(), "parameters diverged at epoch {epoch}");
        }
        report
    }

    // ------------------------------------------------------------------
    // Inference
    // ------------------------------------------------------------------

    /// Prediction scores `σ(g · v)` for every item in `items` for the
    /// given group (higher = more recommended).
    pub fn score_group_items(&self, group: u32, items: &[u32]) -> Vec<f32> {
        if kgag_obs::enabled() {
            kgag_obs::counter("infer.group_items_scored").add(items.len() as u64);
        }
        let member_ents = self.member_entities(group);
        self.score_member_ents(&member_ents, items)
    }

    /// Cold-start scoring for an *ad-hoc* member list — a group that
    /// never existed at training time. Members are aggregated by the
    /// trained attention block over their propagated representations
    /// (SP-only when the list is off the nominal size, see
    /// [`Kgag::forward_group`]); a member list matching a bound group
    /// scores bit-identically to [`Kgag::score_group_items`].
    ///
    /// The list's order does not matter: it is scored in ascending user
    /// order, the order `GroupStore::create` stores a roster in, so the
    /// same members score as the group created from them. (The PI
    /// tower's peer slots are ordered, so another order would move the
    /// last bits.)
    ///
    /// Unlike the panicking in-process paths, every bad input is a typed
    /// [`ScoreError`].
    pub fn score_members(&self, members: &[u32], items: &[u32]) -> Result<Vec<f32>, ScoreError> {
        let mut member_ents = self.member_entities_for(members)?;
        // a user's entity is its id past a fixed base, so this is the
        // ascending user order
        member_ents.sort_unstable();
        if let Some(&v) = items.iter().find(|&&v| v >= self.num_items) {
            return Err(ScoreError::UnknownItem(v));
        }
        Ok(self.score_member_ents(&member_ents, items))
    }

    /// Shared per-case scoring kernel: one member-entity list (any
    /// length ≥ 1 the attention supports), live-sampled fields.
    fn score_member_ents(&self, member_ents: &[u32], items: &[u32]) -> Vec<f32> {
        let l = member_ents.len();
        // checkpoint-fixed salt: deterministic eval-time sampling, and
        // the same receptive field for an entity no matter which group
        // or candidate list asks — the invariant RfCache banks on
        let salt = self.eval_salt();
        // chunks are independent instances — the receptive-field draw for
        // an entity depends on (seed, salt, entity, level), never on batch
        // position, and every tape op is per-instance — so scoring chunks
        // in parallel is bit-identical to one sequential pass
        let chunks: Vec<&[u32]> = items.chunks(128).collect();
        let scored = pool::par_map(&chunks, |_, chunk| {
            let mut flat_members = Vec::with_capacity(chunk.len() * l);
            for _ in *chunk {
                flat_members.extend_from_slice(member_ents);
            }
            let item_ents = self.item_entities(chunk);
            let mut tape = Tape::new(&self.store);
            let fwd = self.forward_group(&mut tape, &flat_members, &item_ents, l, salt, false);
            tape.value(fwd.score)
                .data()
                .iter()
                .map(|&s| kgag_tensor::tensor::sigmoid(s))
                .collect::<Vec<f32>>()
        });
        scored.into_iter().flatten().collect()
    }

    /// Individual prediction scores `σ(u · v)` (Eq. 19) for a user.
    pub fn score_user_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        if kgag_obs::enabled() {
            kgag_obs::counter("infer.user_items_scored").add(items.len() as u64);
        }
        let u_ent = self.ckg.user_entity(user).0;
        // checkpoint-fixed for the same reason as score_group_items
        let salt = derive_seed(self.config.seed, "score-user");
        // independent chunks, same argument as score_group_items
        let chunks: Vec<&[u32]> = items.chunks(256).collect();
        let scored = pool::par_map(&chunks, |_, chunk| {
            let users = vec![u_ent; chunk.len()];
            let item_ents = self.item_entities(chunk);
            let mut tape = Tape::new(&self.store);
            let logits = self.forward_user(&mut tape, &users, &item_ents, salt, false);
            tape.value(logits)
                .data()
                .iter()
                .map(|&s| kgag_tensor::tensor::sigmoid(s))
                .collect::<Vec<f32>>()
        });
        scored.into_iter().flatten().collect()
    }

    /// Attention read-out for one `(group, item)` pair — the RQ4
    /// interpretability interface.
    pub fn explain(&self, group: u32, item: u32) -> GroupExplanation {
        let flat_members = self.member_entities(group);
        let l = flat_members.len();
        let item_ents = self.item_entities(&[item]);
        let mut tape = Tape::new(&self.store);
        // the serving salt, not a private stream: the attention weights
        // shown here decompose exactly the score score_group_items serves
        let salt = self.eval_salt();
        let fwd = self.forward_group(&mut tape, &flat_members, &item_ents, l, salt, false);
        let read = |n: Option<NodeId>| n.map(|id| tape.value(id).data().to_vec());
        GroupExplanation {
            group,
            item,
            members: self.groups[group as usize].clone(),
            alpha: tape.value(fwd.attention.alpha).data().to_vec(),
            sp: read(fwd.attention.sp),
            pi: read(fwd.attention.pi),
            score: kgag_tensor::tensor::sigmoid(tape.value(fwd.score).data()[0]),
        }
    }

    /// Serialise the trained parameters to a checkpoint buffer. The
    /// buffer carries the backend tag, so a restore into a model built
    /// for a different backend fails typed instead of silently loading
    /// parameters trained under another update rule.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        kgag_tensor::checkpoint::save_tagged(&self.store, self.config.backend.tag())
    }

    /// Restore parameters from a checkpoint produced by a model with the
    /// same configuration and dataset (names and shapes must match).
    /// Tagged checkpoints must carry this model's backend tag
    /// ([`kgag_tensor::checkpoint::CheckpointError::TagMismatch`]
    /// otherwise); legacy untagged buffers load as before.
    pub fn load_checkpoint(
        &mut self,
        bytes: &[u8],
    ) -> Result<usize, kgag_tensor::checkpoint::CheckpointError> {
        kgag_tensor::checkpoint::verify_tag(bytes, self.config.backend.tag())?;
        kgag_tensor::checkpoint::load(&mut self.store, bytes)
    }

    /// Evaluate against prepared cases with the shared protocol.
    pub fn evaluate(&self, cases: &[GroupEvalCase], config: &EvalConfig) -> MetricSummary {
        kgag_eval::evaluate_group_ranking(self, self.num_items, cases, config)
    }
}

/// The group forward as pure tape ops over *pre-resolved* receptive
/// fields — the training forward, and the reference the inference
/// engine ([`crate::infer`]) reproduces bit for bit.
///
/// `rf_*` are `None` under the KGAG-KG ablation (zero-order embeddings,
/// no propagation). The op sequence is the serving contract: gather
/// members, gather items, item query = member mean, item propagation,
/// member queries = repeated item rows, member propagation, attention,
/// row-dot.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_group_prepared(
    tape: &mut Tape<'_>,
    params: &ModelParams,
    config: &KgagConfig,
    nominal_size: usize,
    flat_members: &[u32],
    item_ents: &[u32],
    l: usize,
    rf_members: Option<&ReceptiveField>,
    rf_items: Option<&ReceptiveField>,
) -> GroupForward {
    debug_assert_eq!(flat_members.len(), item_ents.len() * l);
    let residual = if config.residual { config.propagation_weight } else { 0.0 };
    let m0 = tape.gather(params.prop.entity_emb, flat_members);
    let i0 = tape.gather(params.prop.entity_emb, item_ents);
    let q_item = tape.group_mean(m0, l);
    let item_rep = match rf_items {
        Some(rf) => crate::propagation::propagate_with(
            tape,
            &params.prop,
            config.backend,
            rf,
            q_item,
            residual,
        ),
        None => tape.gather(params.prop.entity_emb, item_ents),
    };
    let q_members = tape.repeat_rows(i0, l);
    let member_rep = match rf_members {
        Some(rf) => crate::propagation::propagate_with(
            tape,
            &params.prop,
            config.backend,
            rf,
            q_members,
            residual,
        ),
        None => tape.gather(params.prop.entity_emb, flat_members),
    };
    // backend hook: the interaction-pattern backend mixes each member
    // with its roster peers here; every other backend is a no-op that
    // emits zero tape ops (bit-identity preserved)
    let member_rep = config.backend.dispatch().member_interaction(tape, params, member_rep, l);
    // the peer-influence weights are tied to the trained group size
    // (`att_w2` maps the (L−1)·d peer concatenation), so off-nominal
    // groups — cold-start creations, lifecycle-mutated memberships —
    // score with SP-only attention; nominal-size groups take the
    // full path bit-identically to the static engine
    let effective;
    let config = if l == nominal_size {
        config
    } else {
        effective = config.clone().ablate_pi();
        &effective
    };
    let attention = group_attention(tape, params, config, member_rep, item_rep, l);
    let score = tape.row_dot(attention.group_rep, item_rep);
    GroupForward { attention, score }
}

/// Known-positive label masks for the KGNN-LS regularizer, one per
/// receptive-field level below the targets.
///
/// `rf` is the depth-`H` field of `target_ents` (instance-major:
/// `rf.entities[lvl][i·K^lvl .. (i+1)·K^lvl]` belong to instance `i`);
/// entry `j` of level `lvl` is 1 iff that entity is an item the
/// instance's user interacted with in training — *except* the
/// instance's own target item, which is held out (its label is what the
/// propagation must predict; leaving it in would let the self-loop
/// leak the answer).
fn ls_level_labels(
    pos: &HashSet<(u32, u32)>,
    rf: &ReceptiveField,
    user_ents: &[u32],
    target_ents: &[u32],
) -> Vec<Vec<f32>> {
    debug_assert_eq!(rf.entities[0].len(), user_ents.len());
    debug_assert_eq!(rf.entities[0].len(), target_ents.len());
    let k = rf.k;
    (1..=rf.depth)
        .map(|lvl| {
            let span = k.pow(lvl as u32);
            rf.entities[lvl]
                .iter()
                .enumerate()
                .map(|(j, &e)| {
                    let i = j / span;
                    let known = pos.contains(&(user_ents[i], e)) && e != target_ents[i];
                    if known {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

impl GroupScorer for Kgag {
    fn score(&self, group: u32, items: &[u32]) -> Vec<f32> {
        self.score_group_items(group, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the cross-epoch cursor bug: with the cursor
    /// persisting across per-epoch reshuffles, a pass over `len` draws
    /// could visit some pairs twice and miss others. Every full pass must
    /// be a permutation of the pair list, no matter where the previous
    /// epoch left off.
    #[test]
    fn pair_cycler_visits_every_pair_once_per_pass() {
        let pairs: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 100)).collect();
        let mut want = pairs.clone();
        want.sort_unstable();
        let mut cycle = PairCycler::new(pairs);
        let mut rng = SplitMix64::new(42);
        for epoch in 0..5 {
            cycle.start_epoch(&mut rng);
            let mut seen: Vec<(u32, u32)> = (0..cycle.len()).map(|_| cycle.next()).collect();
            seen.sort_unstable();
            assert_eq!(seen, want, "epoch {epoch}: full pass must be a permutation");
            // leave the cursor mid-list, like an epoch whose draw count
            // is not a multiple of the pair count
            for _ in 0..3 {
                cycle.next();
            }
        }
    }

    #[test]
    fn pair_cycler_wraps_within_one_epoch() {
        let mut cycle = PairCycler::new(vec![(1, 2), (3, 4)]);
        let mut rng = SplitMix64::new(7);
        cycle.start_epoch(&mut rng);
        let draws: Vec<(u32, u32)> = (0..6).map(|_| cycle.next()).collect();
        // wrap-around repeats the same shuffled order, so each pair shows
        // up exactly three times in six draws
        assert_eq!(draws.iter().filter(|&&p| p == (1, 2)).count(), 3);
        assert_eq!(draws.iter().filter(|&&p| p == (3, 4)).count(), 3);
    }

    #[test]
    #[should_panic(expected = "no training pairs")]
    fn pair_cycler_rejects_empty_input() {
        PairCycler::new(Vec::new());
    }
}
