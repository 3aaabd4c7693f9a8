//! The trained baselines' training loop: KGAG's batches and objective
//! around each model's own tape forward.

use crate::BaselineConfig;
use kgag::loss::{combined_loss, margin_group_loss, user_log_loss};
use kgag::{EpochLoss, TrainReport};
use kgag_data::split::{DatasetSplit, TrainBatch, TrainBatches};
use kgag_tensor::optim::{Adam, Optimizer};
use kgag_tensor::rng::derive_seed;
use kgag_tensor::{NodeId, ParamStore, Tape, Tensor};

/// A trained baseline's tape forward over one [`TrainBatch`].
pub(crate) trait TapeForward {
    fn params(&self) -> &ParamStore;

    fn params_mut(&mut self) -> &mut ParamStore;

    /// Raw `[B, 1]` scores of the batch's positive and negative items
    /// for its groups.
    fn group_scores(&self, tape: &mut Tape<'_>, batch: &TrainBatch) -> (NodeId, NodeId);

    /// Raw `[2·U, 1]` logits of the batch's user instances.
    fn user_logits(&self, tape: &mut Tape<'_>, batch: &TrainBatch) -> NodeId;
}

/// Adam on `β·L_group + (1−β)·L_user + λ‖Θ‖²` for `cfg.epochs` passes
/// over the batches of the seed stream `stream`; returns the per-epoch
/// mean losses.
pub(crate) fn fit(
    stream: &str,
    cfg: BaselineConfig,
    model: &mut impl TapeForward,
    split: &DatasetSplit,
) -> TrainReport {
    let mut adam = Adam::with_decay(cfg.learning_rate, cfg.lambda);
    let seed = derive_seed(cfg.seed, stream);
    let mut batches = TrainBatches::new(split, seed, cfg.batch_size, cfg.user_batch_size);
    let mut report = TrainReport::default();
    for _ in 0..cfg.epochs {
        let mut losses = Vec::new();
        for batch in batches.epoch() {
            let (grads, group, user) = {
                let mut tape = Tape::new(model.params());
                let (pos, neg) = model.group_scores(&mut tape, &batch);
                let lg = margin_group_loss(&mut tape, pos, neg, cfg.margin);
                let logits = model.user_logits(&mut tape, &batch);
                let lu = user_log_loss(&mut tape, logits, Tensor::col_vector(&batch.labels));
                let total = combined_loss(&mut tape, lg, lu, cfg.beta);
                (tape.backward(total), tape.value(lg).item(), tape.value(lu).item())
            };
            adam.step(model.params_mut(), &grads);
            losses.push((group, user));
        }
        report.epochs.push(EpochLoss::mean(&losses));
    }
    report
}

/// The batch's group instances' members, instance-major.
pub(crate) fn flat_members(groups: &[Vec<u32>], batch: &TrainBatch) -> Vec<u32> {
    batch.groups.iter().flat_map(|&g| &groups[g as usize]).copied().collect()
}
