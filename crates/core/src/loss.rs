//! The optimization block (§III-E): pairwise group losses and the
//! pointwise user log loss.

use kgag_tensor::{NodeId, Tape, Tensor};

/// The paper's margin loss (Eq. 17):
/// `mean( max(σ(ŷ_neg) − σ(ŷ_pos) + M, 0) )` over the batch.
///
/// `pos`/`neg` are `[B, 1]` raw prediction scores.
pub fn margin_group_loss(tape: &mut Tape<'_>, pos: NodeId, neg: NodeId, margin: f32) -> NodeId {
    let sig_p = tape.sigmoid(pos);
    let sig_n = tape.sigmoid(neg);
    let diff = tape.sub(sig_n, sig_p);
    let shifted = tape.add_scalar(diff, margin);
    let hinged = tape.relu(shifted);
    tape.mean_all(hinged)
}

/// Bayesian personalized ranking loss [33]:
/// `mean( −ln σ(ŷ_pos − ŷ_neg) )` — the KGAG (BPR) ablation.
pub fn bpr_group_loss(tape: &mut Tape<'_>, pos: NodeId, neg: NodeId) -> NodeId {
    let diff = tape.sub(pos, neg);
    let sig = tape.sigmoid(diff);
    let ln = tape.ln(sig);
    let mean = tape.mean_all(ln);
    tape.scale(mean, -1.0)
}

/// The user-side log loss (Eq. 18): binary cross-entropy of
/// `σ(ŷ^U_{u,v})` against `targets` (a `[B, 1]` 0/1 column), averaged.
pub fn user_log_loss(tape: &mut Tape<'_>, logits: NodeId, targets: Tensor) -> NodeId {
    let per_example = tape.bce_with_logits(logits, targets);
    tape.mean_all(per_example)
}

/// The combined objective's data terms (Eq. 20):
/// `β·L_group + (1−β)·L_user`; the optimizer adds `λ‖Θ‖²`.
pub fn combined_loss(tape: &mut Tape<'_>, group: NodeId, user: NodeId, beta: f32) -> NodeId {
    let group = tape.scale(group, beta);
    let user = tape.scale(user, 1.0 - beta);
    tape.add(group, user)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgag_tensor::ParamStore;

    #[test]
    fn margin_loss_zero_when_satisfied() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        // σ(3)≈0.95, σ(-3)≈0.05 → difference 0.9 ≥ 0.4 margin
        let pos = tape.constant(Tensor::col_vector(&[3.0]));
        let neg = tape.constant(Tensor::col_vector(&[-3.0]));
        let loss = margin_group_loss(&mut tape, pos, neg, 0.4);
        assert!(tape.value(loss).item() < 1e-6);
    }

    #[test]
    fn margin_loss_positive_when_violated() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let pos = tape.constant(Tensor::col_vector(&[0.0]));
        let neg = tape.constant(Tensor::col_vector(&[0.0]));
        let loss = margin_group_loss(&mut tape, pos, neg, 0.4);
        // equal scores violate by exactly the margin
        assert!((tape.value(loss).item() - 0.4).abs() < 1e-6);
    }

    #[test]
    fn margin_loss_increases_with_margin() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let pos = tape.constant(Tensor::col_vector(&[0.5]));
        let neg = tape.constant(Tensor::col_vector(&[0.0]));
        let l_small = margin_group_loss(&mut tape, pos, neg, 0.2);
        let l_large = margin_group_loss(&mut tape, pos, neg, 0.6);
        assert!(tape.value(l_large).item() > tape.value(l_small).item());
    }

    #[test]
    fn bpr_loss_decreases_as_separation_grows() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let pos_hi = tape.constant(Tensor::col_vector(&[2.0]));
        let pos_lo = tape.constant(Tensor::col_vector(&[0.5]));
        let neg = tape.constant(Tensor::col_vector(&[0.0]));
        let l_hi = bpr_group_loss(&mut tape, pos_hi, neg);
        let l_lo = bpr_group_loss(&mut tape, pos_lo, neg);
        assert!(tape.value(l_hi).item() < tape.value(l_lo).item());
        // BPR at zero separation is ln 2
        let same = bpr_group_loss(&mut tape, neg, neg);
        assert!((tape.value(same).item() - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn margin_beyond_saturation_still_penalises_ties() {
        // even with a margin no sigmoid pair can satisfy at tied scores,
        // the hinge stays finite and differentiable-ish
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let pos = tape.constant(Tensor::col_vector(&[10.0]));
        let neg = tape.constant(Tensor::col_vector(&[10.0]));
        let loss = margin_group_loss(&mut tape, pos, neg, 0.6);
        assert!((tape.value(loss).item() - 0.6).abs() < 1e-5);
    }

    #[test]
    fn user_log_loss_matches_manual_bce() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let logits = tape.constant(Tensor::col_vector(&[0.0, 2.0]));
        let targets = Tensor::col_vector(&[1.0, 0.0]);
        let loss = user_log_loss(&mut tape, logits, targets);
        let expect = (std::f32::consts::LN_2 + (1.0 + 2.0f32.exp()).ln()) / 2.0;
        assert!((tape.value(loss).item() - expect).abs() < 1e-4);
    }

    #[test]
    fn losses_are_batch_means() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let pos = tape.constant(Tensor::col_vector(&[0.0, 0.0, 0.0, 0.0]));
        let neg = tape.constant(Tensor::col_vector(&[0.0, 0.0, 0.0, 0.0]));
        let loss = margin_group_loss(&mut tape, pos, neg, 0.3);
        assert!((tape.value(loss).item() - 0.3).abs() < 1e-6, "mean, not sum");
    }
}
