//! KGAG hyper-parameters and ablation switches.

use kgag_testkit::json::{Json, ToJson};

/// Propagation backend: the representation-update rule of §III-C plus
/// any backend-specific training or aggregation hooks. The first two
/// variants are the paper's aggregators (Eq. 4–6); the last two are
/// related-work backends behind the same
/// [`crate::backend::PropagationBackend`] seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `σ(W(e + e_N) + b)` — Eq. 5. The paper's best (Table IV).
    Gcn,
    /// `σ(W[e ‖ e_N] + b)` — Eq. 6.
    GraphSage,
    /// GCN updates plus KGNN-LS label-smoothness regularization over
    /// the collaborative KG (weight [`KgagConfig::ls_weight`], train
    /// time only — inference is bit-identical to [`Backend::Gcn`] at
    /// equal weights).
    KgnnLs,
    /// GCN updates plus a member–member interaction-pattern pass over
    /// the group roster, layered under the attention aggregator (the
    /// 2021 GNN group-recommendation lineage).
    InteractionPattern,
}

impl Backend {
    /// The stable lowercase tag of this backend — the spelling used by
    /// checkpoint tags, the CLI `--backend` flag and JSON reports.
    pub fn tag(self) -> &'static str {
        match self {
            Backend::Gcn => "gcn",
            Backend::GraphSage => "graphsage",
            Backend::KgnnLs => "kgnn-ls",
            Backend::InteractionPattern => "interaction",
        }
    }

    /// Parse a [`Backend::tag`] spelling (case-sensitive).
    pub fn from_tag(tag: &str) -> Option<Backend> {
        match tag {
            "gcn" => Some(Backend::Gcn),
            "graphsage" => Some(Backend::GraphSage),
            "kgnn-ls" => Some(Backend::KgnnLs),
            "interaction" => Some(Backend::InteractionPattern),
            _ => None,
        }
    }

    /// Every backend, in declaration order — what ablation sweeps
    /// iterate.
    pub fn all() -> [Backend; 4] {
        [Backend::Gcn, Backend::GraphSage, Backend::KgnnLs, Backend::InteractionPattern]
    }
}

/// Pairwise group ranking loss (optimization block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupLoss {
    /// The paper's margin loss (Eq. 17): requires
    /// `σ(ŷ_pos) − σ(ŷ_neg) ≥ M`.
    Margin,
    /// Bayesian personalized ranking — the KGAG (BPR) ablation.
    Bpr,
}

impl ToJson for Backend {
    fn to_json(&self) -> Json {
        Json::Str(self.tag().to_owned())
    }
}

impl ToJson for GroupLoss {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                GroupLoss::Margin => "Margin",
                GroupLoss::Bpr => "Bpr",
            }
            .to_owned(),
        )
    }
}

/// Full configuration of a KGAG model and its trainer.
#[derive(Clone, Debug)]
pub struct KgagConfig {
    /// Representation dimension `d` (paper sweeps 16–64, Fig. 5).
    pub dim: usize,
    /// Propagation depth `H` (paper sweeps 1–3, Fig. 4).
    pub layers: usize,
    /// Neighbors sampled per node `K`.
    pub neighbor_k: usize,
    /// Propagation backend: the representation-update rule (Table IV
    /// for the paper's two aggregators) plus backend-specific hooks.
    pub backend: Backend,
    /// Weight of the KGNN-LS label-smoothness regularizer added to the
    /// training loss. Only read under [`Backend::KgnnLs`]; `0` disables
    /// the term entirely (training is then bit-identical to
    /// [`Backend::Gcn`]).
    pub ls_weight: f32,
    /// Group ranking loss.
    pub group_loss: GroupLoss,
    /// Margin `M` of Eq. 16/17 (paper sweeps 0.2–0.6, Fig. 4).
    pub margin: f32,
    /// Group-loss weight `β` of Eq. 20 (paper sweeps 0.5–0.9, Fig. 5).
    pub beta: f32,
    /// L2 coefficient `λ` of Eq. 20.
    pub lambda: f32,
    /// Additional L2 decay applied to the attention parameters only
    /// (`W_{c1}`, `W_{c2}`, `b`, `v_c`). The group-interaction data is
    /// orders of magnitude smaller than the user–item data, so the
    /// preference-aggregation tower regularises toward its uniform-
    /// attention prior unless the group data earns the deviation.
    pub attention_decay: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Group-instance mini-batch size.
    pub batch_size: usize,
    /// User-instance mini-batch size (the `(1−β)` tower).
    pub user_batch_size: usize,
    /// Ablation: propagate over the collaborative KG (`false` = KGAG-KG:
    /// zero-order embeddings go straight to preference aggregation).
    pub use_kg: bool,
    /// Ablation: include the self-persistence attention term (Eq. 9).
    pub use_sp: bool,
    /// Ablation: include the peer-influence attention term (Eq. 10).
    pub use_pi: bool,
    /// Neighbors sampled per node at *evaluation* time. The aggregation
    /// weights are softmax-normalised, so the trained parameters are
    /// valid for any K; a larger evaluation sample just lowers the
    /// variance of the neighborhood estimate. `None` = same as
    /// `neighbor_k`.
    pub eval_neighbor_k: Option<usize>,
    /// Scale γ of the propagated correction when `residual` is on:
    /// `rep = e⁰ + γ·e^H`. Damps the variance of the K-sampled
    /// neighborhood summary relative to the entity's own embedding.
    pub propagation_weight: f32,
    /// Residual connection around the propagation block: the final
    /// representation is `e⁰ + e^H` instead of `e^H` alone. A deviation
    /// from the paper's Eq. 8 in the KGAT lineage (layer combination):
    /// on small, hub-heavy collaborative KGs, replacing an entity's own
    /// embedding with a K-sampled neighborhood summary destroys
    /// information faster than it adds context. Ablatable.
    pub residual: bool,
    /// RNG seed (initialization, shuffling, sampling).
    pub seed: u64,
}

impl Default for KgagConfig {
    fn default() -> Self {
        KgagConfig {
            dim: 16,
            layers: 2,
            neighbor_k: 4,
            backend: Backend::Gcn,
            ls_weight: 0.1,
            group_loss: GroupLoss::Margin,
            margin: 0.4,
            beta: 0.7,
            lambda: 1e-5,
            attention_decay: 1e-3,
            learning_rate: 1e-2,
            epochs: 20,
            batch_size: 128,
            user_batch_size: 256,
            use_kg: true,
            use_sp: true,
            use_pi: true,
            eval_neighbor_k: Some(8),
            propagation_weight: 0.5,
            residual: true,
            seed: 0x4a6,
        }
    }
}

impl ToJson for KgagConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dim", self.dim.to_json()),
            ("layers", self.layers.to_json()),
            ("neighbor_k", self.neighbor_k.to_json()),
            ("backend", self.backend.to_json()),
            ("ls_weight", self.ls_weight.to_json()),
            ("group_loss", self.group_loss.to_json()),
            ("margin", self.margin.to_json()),
            ("beta", self.beta.to_json()),
            ("lambda", self.lambda.to_json()),
            ("attention_decay", self.attention_decay.to_json()),
            ("learning_rate", self.learning_rate.to_json()),
            ("epochs", self.epochs.to_json()),
            ("batch_size", self.batch_size.to_json()),
            ("user_batch_size", self.user_batch_size.to_json()),
            ("use_kg", self.use_kg.to_json()),
            ("use_sp", self.use_sp.to_json()),
            ("use_pi", self.use_pi.to_json()),
            ("eval_neighbor_k", self.eval_neighbor_k.to_json()),
            ("propagation_weight", self.propagation_weight.to_json()),
            ("residual", self.residual.to_json()),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl KgagConfig {
    /// Validate the configuration; returns violations (empty = OK).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.dim == 0 {
            errs.push("dim must be positive".into());
        }
        if self.use_kg && self.layers == 0 {
            errs.push("layers must be ≥ 1 when use_kg is on".into());
        }
        if self.neighbor_k == 0 {
            errs.push("neighbor_k must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.beta) {
            errs.push(format!("beta {} outside [0, 1]", self.beta));
        }
        if self.margin < 0.0 || self.margin >= 1.0 {
            errs.push(format!("margin {} outside [0, 1) (scores are sigmoids)", self.margin));
        }
        if self.batch_size == 0 || self.user_batch_size == 0 {
            errs.push("batch sizes must be positive".into());
        }
        if self.learning_rate <= 0.0 {
            errs.push("learning rate must be positive".into());
        }
        if !self.ls_weight.is_finite() || self.ls_weight < 0.0 {
            errs.push(format!("ls_weight {} must be finite and ≥ 0", self.ls_weight));
        }
        errs
    }

    /// Select a propagation backend (sweep/CLI convenience).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The KGAG-KG ablation: no information propagation block.
    pub fn ablate_kg(mut self) -> Self {
        self.use_kg = false;
        self
    }

    /// The KGAG-SP ablation: no self-persistence attention term.
    pub fn ablate_sp(mut self) -> Self {
        self.use_sp = false;
        self
    }

    /// The KGAG-PI ablation: no peer-influence attention term.
    pub fn ablate_pi(mut self) -> Self {
        self.use_pi = false;
        self
    }

    /// The KGAG (BPR) ablation: replace the margin loss with BPR.
    pub fn with_bpr(mut self) -> Self {
        self.group_loss = GroupLoss::Bpr;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(KgagConfig::default().validate().is_empty());
    }

    #[test]
    fn invalid_configs_are_flagged() {
        let bad = KgagConfig { dim: 0, beta: 1.5, margin: 2.0, ..Default::default() };
        let errs = bad.validate();
        assert_eq!(errs.len(), 3, "{errs:?}");
    }

    #[test]
    fn zero_layers_ok_without_kg() {
        let cfg = KgagConfig { layers: 0, ..Default::default() }.ablate_kg();
        assert!(cfg.validate().is_empty());
        let cfg = KgagConfig { layers: 0, ..Default::default() };
        assert!(!cfg.validate().is_empty());
    }

    #[test]
    fn backend_tags_round_trip() {
        for b in Backend::all() {
            assert_eq!(Backend::from_tag(b.tag()), Some(b), "{b:?}");
        }
        assert_eq!(Backend::from_tag("Gcn"), None, "tags are lowercase");
        assert_eq!(Backend::from_tag(""), None);
    }

    #[test]
    fn bad_ls_weight_is_flagged() {
        for bad in [-0.5f32, f32::NAN, f32::INFINITY] {
            let cfg = KgagConfig { ls_weight: bad, ..Default::default() };
            assert!(!cfg.validate().is_empty(), "ls_weight {bad} must be rejected");
        }
    }

    #[test]
    fn ablation_builders() {
        let base = KgagConfig::default();
        assert!(!base.clone().ablate_kg().use_kg);
        assert!(!base.clone().ablate_sp().use_sp);
        assert!(!base.clone().ablate_pi().use_pi);
        assert_eq!(base.with_bpr().group_loss, GroupLoss::Bpr);
    }
}
