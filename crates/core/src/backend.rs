//! Pluggable propagation backends (DESIGN.md §17).
//!
//! The propagation block of §III-C used to hard-wire a two-armed
//! `match` over the paper's aggregators. Every axis that grew around it
//! — the inference engine, the sharded gather, the ablation binaries —
//! had to reproduce that match. [`PropagationBackend`] is the one seam
//! they now implement against:
//!
//! * **combine rule** ([`PropagationBackend::combine`]): the tape-op
//!   sequence turning `(e, e_N)` into the pre-bias update. The
//!   [`Backend::Gcn`] and [`Backend::GraphSage`] impls emit *exactly*
//!   the ops the old match arms emitted, so the refactor is provably
//!   value-neutral (the golden gate pins the bits).
//! * **member interaction** ([`PropagationBackend::member_interaction`]):
//!   an optional pass over the group roster between propagation and
//!   preference aggregation — identity for every backend except
//!   [`Backend::InteractionPattern`].
//! * **label smoothness** ([`PropagationBackend::label_smoothness`]):
//!   whether the trainer adds the KGNN-LS regularizer
//!   ([`label_smoothness_loss`]) to the combined objective.
//! * **engine plan** ([`PropagationBackend::fused_aggregation`]): which
//!   fused kernel sequence of the inference engine ([`crate::infer`])
//!   reproduces the combine rule bit for bit. Every backend has one;
//!   the interaction-pattern pass is applied by the engine whenever the
//!   model registered its mixing parameters.
//!
//! ## The two non-paper backends
//!
//! **KGNN-LS** (Wang et al., KDD 2019) regularises the propagation
//! toward *label smoothness*: a user's interaction labels, propagated
//! over the KG with the same relation-attention weights the model
//! scores with, should predict the held-out label of the target item.
//! Here the propagation runs over the *collaborative* KG, so labels
//! reach the target through shared attributes (item → attribute →
//! co-attributed item) and through co-consumers (item → user →
//! co-consumed item). The predicted label is an attention-weighted
//! convex combination of {0, 1} labels with known-positive entities
//! clamped at interior levels; the squared error against the true
//! label joins the training loss with weight `ls_weight`. Inference is
//! bit-identical to GCN at equal weights — the regularizer only bends
//! the gradient.
//!
//! **Interaction-pattern** layers a member–member aggregation pass over
//! the roster under the attention tower: each member's propagated
//! representation is mixed with the mean of its *peers'*
//! representations through a dedicated `[2d, d]` weight,
//! `m' = m + tanh([m ‖ peer_mean] W_ip + b_ip)`. The residual form
//! keeps the pass a perturbation of the propagated representation; the
//! peer mean is roster-size-agnostic, so the pass applies to cold-start
//! and lifecycle-mutated groups of any size ≥ 2 (unlike the
//! shape-tied PI attention term).

use crate::config::Backend;
use crate::model::{ModelParams, PropagationParams};
use kgag_kg::ReceptiveField;
pub use kgag_tensor::infer::FusedAggregation;
use kgag_tensor::{NodeId, Tape, Tensor};

/// One propagation backend: the representation-update rule plus its
/// training and serving hooks. Impls are stateless — parameters live in
/// the model's store; the backend only decides which ops read them.
pub trait PropagationBackend: Send + Sync {
    /// The enum tag this impl serves.
    fn kind(&self) -> Backend;

    /// Rows of the per-layer weight `W_h` for representation width `d`.
    fn layer_w_rows(&self, d: usize) -> usize;

    /// The pre-bias representation update: combine `e` and `e_N`
    /// through the layer-`h` weight `w`. Must emit a deterministic op
    /// sequence — the bit-identity contracts flow through here.
    fn combine(&self, tape: &mut Tape<'_>, w: NodeId, e: NodeId, e_n: NodeId) -> NodeId;

    /// Optional member–member pass over the roster (`[B·l, d]` member
    /// representations, `l` members per group), applied between
    /// propagation and preference aggregation. The default is identity
    /// — and emits no tape ops, so backends without a pass stay
    /// bit-identical to the pre-refactor forward.
    fn member_interaction(
        &self,
        tape: &mut Tape<'_>,
        params: &ModelParams,
        member_rep: NodeId,
        l: usize,
    ) -> NodeId {
        let _ = (tape, params, l);
        member_rep
    }

    /// Whether the trainer adds the KGNN-LS label-smoothness term.
    fn label_smoothness(&self) -> bool {
        false
    }

    /// The fused kernel plan the inference engine runs for
    /// [`PropagationBackend::combine`].
    fn fused_aggregation(&self) -> FusedAggregation;
}

struct GcnBackend;
struct GraphSageBackend;
struct KgnnLsBackend;
struct InteractionPatternBackend;

/// GCN-shaped combine: `(e + e_N) · W` — shared by every backend whose
/// update rule is Eq. 5.
fn combine_sum(tape: &mut Tape<'_>, w: NodeId, e: NodeId, e_n: NodeId) -> NodeId {
    let sum = tape.add(e, e_n);
    tape.matmul(sum, w)
}

impl PropagationBackend for GcnBackend {
    fn kind(&self) -> Backend {
        Backend::Gcn
    }

    fn layer_w_rows(&self, d: usize) -> usize {
        d
    }

    fn combine(&self, tape: &mut Tape<'_>, w: NodeId, e: NodeId, e_n: NodeId) -> NodeId {
        combine_sum(tape, w, e, e_n)
    }

    fn fused_aggregation(&self) -> FusedAggregation {
        FusedAggregation::SumSelf
    }
}

impl PropagationBackend for GraphSageBackend {
    fn kind(&self) -> Backend {
        Backend::GraphSage
    }

    fn layer_w_rows(&self, d: usize) -> usize {
        2 * d
    }

    fn combine(&self, tape: &mut Tape<'_>, w: NodeId, e: NodeId, e_n: NodeId) -> NodeId {
        let cat = tape.concat_cols(e, e_n);
        tape.matmul(cat, w)
    }

    fn fused_aggregation(&self) -> FusedAggregation {
        FusedAggregation::SplitConcat
    }
}

impl PropagationBackend for KgnnLsBackend {
    fn kind(&self) -> Backend {
        Backend::KgnnLs
    }

    fn layer_w_rows(&self, d: usize) -> usize {
        d
    }

    fn combine(&self, tape: &mut Tape<'_>, w: NodeId, e: NodeId, e_n: NodeId) -> NodeId {
        combine_sum(tape, w, e, e_n)
    }

    fn label_smoothness(&self) -> bool {
        true
    }

    fn fused_aggregation(&self) -> FusedAggregation {
        // the regularizer is train-only; inference is GCN-shaped and
        // rides the same fused kernels
        FusedAggregation::SumSelf
    }
}

impl PropagationBackend for InteractionPatternBackend {
    fn kind(&self) -> Backend {
        Backend::InteractionPattern
    }

    fn layer_w_rows(&self, d: usize) -> usize {
        d
    }

    fn combine(&self, tape: &mut Tape<'_>, w: NodeId, e: NodeId, e_n: NodeId) -> NodeId {
        combine_sum(tape, w, e, e_n)
    }

    /// `m' = m + tanh([m ‖ peer_mean] W_ip + b_ip)` where `peer_mean`
    /// is the mean of the *other* members' representations,
    /// `(l·mean − m) / (l − 1)`. Roster-size-agnostic; single-member
    /// rosters have no peers and pass through unchanged.
    fn member_interaction(
        &self,
        tape: &mut Tape<'_>,
        params: &ModelParams,
        member_rep: NodeId,
        l: usize,
    ) -> NodeId {
        if l < 2 {
            return member_rep;
        }
        let ip = params
            .interaction
            .as_ref()
            .expect("interaction-pattern backend registers its mixing parameters");
        let mean = tape.group_mean(member_rep, l);
        let mean_rep = tape.repeat_rows(mean, l);
        let scaled_mean = tape.scale(mean_rep, l as f32 / (l as f32 - 1.0));
        let neg_self = tape.scale(member_rep, -1.0 / (l as f32 - 1.0));
        let peer_mean = tape.add(scaled_mean, neg_self);
        let cat = tape.concat_cols(member_rep, peer_mean);
        let w = tape.param(ip.w);
        let b = tape.param(ip.b);
        let pre = tape.matmul(cat, w);
        let biased = tape.add_row(pre, b);
        let mix = tape.tanh(biased);
        tape.add(member_rep, mix)
    }

    fn fused_aggregation(&self) -> FusedAggregation {
        // GCN-shaped combine; the engine's member-interaction pass
        // mirrors `member_interaction` above op for op
        FusedAggregation::SumSelf
    }
}

static GCN: GcnBackend = GcnBackend;
static GRAPHSAGE: GraphSageBackend = GraphSageBackend;
static KGNN_LS: KgnnLsBackend = KgnnLsBackend;
static INTERACTION: InteractionPatternBackend = InteractionPatternBackend;

impl Backend {
    /// The trait impl behind this tag — the single place the enum
    /// resolves to behavior.
    pub fn dispatch(self) -> &'static dyn PropagationBackend {
        match self {
            Backend::Gcn => &GCN,
            Backend::GraphSage => &GRAPHSAGE,
            Backend::KgnnLs => &KGNN_LS,
            Backend::InteractionPattern => &INTERACTION,
        }
    }
}

/// The KGNN-LS label-smoothness term over one receptive field.
///
/// `rf` is the target items' field (any depth ≥ 1, sampled on its own
/// salt stream); `query` holds the `[N, d]` zero-order user embeddings.
/// `level_labels[lvl]` is the known-positive mask of `rf.entities[lvl +
/// 1]` (1 where the entity is an item this instance's user interacted
/// with in training, target item held out); `targets` is the `[N]`
/// true label of each instance.
///
/// Labels propagate down the field with the same scaled relation
/// attention the representation propagation uses (Eq. 2–3 with the
/// user as query), deepest level first; at interior levels
/// known-positive entities are *clamped* back to 1 (label propagation
/// treats observed labels as boundary conditions). The result is a
/// predicted label in [0, 1]; the term is its mean squared error
/// against `targets` — the finite-everywhere surrogate of KGNN-LS's
/// holdout cross-entropy.
///
/// Gradients flow into the relation embeddings (through the attention
/// weights) and the user rows of the entity table (through the query).
pub(crate) fn label_smoothness_loss(
    tape: &mut Tape<'_>,
    params: &PropagationParams,
    rf: &ReceptiveField,
    query: NodeId,
    level_labels: &[Vec<f32>],
    targets: &[f32],
) -> NodeId {
    let n = rf.entities[0].len();
    let k = rf.k;
    debug_assert_eq!(level_labels.len(), rf.depth);
    debug_assert_eq!(targets.len(), n);
    let inv_sqrt_d = 1.0 / (tape.value(query).cols() as f32).sqrt();

    // relation-attention weights per level, exactly as propagate_with
    // computes them (the regularizer shares the model's attention)
    let mut level_weights: Vec<NodeId> = Vec::with_capacity(rf.depth);
    for rels in rf.relations.iter() {
        let times = rels.len() / n;
        let q_rep = tape.repeat_rows(query, times);
        let pi_raw = tape.gather_row_dot(params.relation_emb, rels, q_rep);
        let pi = tape.scale(pi_raw, inv_sqrt_d);
        level_weights.push(tape.softmax_groups(pi, k));
    }

    // deepest level: the raw known-label mask
    let mut lhat = tape.constant(Tensor::col_vector(&level_labels[rf.depth - 1]));
    for lvl in (0..rf.depth).rev() {
        lhat = tape.group_weighted_sum(level_weights[lvl], lhat, k);
        if lvl > 0 {
            // clamp known positives: l' = l·(1 − mask) + mask
            let mask = &level_labels[lvl - 1];
            let keep: Vec<f32> = mask.iter().map(|&m| 1.0 - m).collect();
            let keep = tape.constant(Tensor::col_vector(&keep));
            let inject = tape.constant(Tensor::col_vector(mask));
            let kept = tape.mul(lhat, keep);
            lhat = tape.add(kept, inject);
        }
    }
    let tgt = tape.constant(Tensor::col_vector(targets));
    let diff = tape.sub(lhat, tgt);
    let sq = tape.mul(diff, diff);
    tape.mean_all(sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_round_trips_the_tag() {
        for b in Backend::all() {
            assert_eq!(b.dispatch().kind(), b);
        }
    }

    #[test]
    fn engine_plans_match_combine_rules() {
        for b in Backend::all() {
            let want = if b == Backend::GraphSage {
                FusedAggregation::SplitConcat
            } else {
                FusedAggregation::SumSelf
            };
            assert_eq!(b.dispatch().fused_aggregation(), want, "{b:?}");
        }
    }

    #[test]
    fn only_kgnn_ls_wants_label_smoothness() {
        for b in Backend::all() {
            assert_eq!(b.dispatch().label_smoothness(), b == Backend::KgnnLs, "{b:?}");
        }
    }

    #[test]
    fn layer_rows_are_doubled_only_for_concat() {
        for b in Backend::all() {
            let want = if b == Backend::GraphSage { 12 } else { 6 };
            assert_eq!(b.dispatch().layer_w_rows(6), want, "{b:?}");
        }
    }
}
