//! The inference engine (DESIGN.md §14).
//!
//! At inference the model is a fixed sequence of attention → weighted
//! sum → matmul steps over a receptive field, so the one
//! [`crate::Scorer`] — and with it every front end over any source —
//! scores through the one [`Engine`] here: the fused kernels of
//! [`kgag_tensor::infer`], no tape, no backward bookkeeping, no
//! materialised `gather`/`repeat_rows`/`peer_concat`/`concat_cols`
//! copies.
//!
//! The engine is **bit-identical to the tape forward**
//! (`forward_group_prepared`), which stays as the training path and the
//! reference the oracle suites compare against. That holds because the
//! engine issues the tape's roundings in the tape's order; in
//! particular:
//!
//! 1. a group mean scales each row by `1/L` before adding it;
//! 2. the relation table stays unscaled — the f32 dot is multiplied by
//!    the f32 `1/√d` after the gather-dot;
//! 3. peer influence sums `W₁·u` and `W₂·peers` in separate
//!    accumulators and then adds them;
//! 4. values are read raw — no subnormal flush, no copy, no rescale;
//! 5. rows are read in place by id: iteration 0 of propagation reads
//!    every level, the residual's `e⁰` and the member queries (member
//!    row `i` under item row `i / L`) straight from the entity table,
//!    and only levels propagation has updated are owned buffers;
//! 6. a relation-attention logit depends only on its query row and
//!    relation, so it is computed once per (query row, relation) with
//!    the tape's own expression and copied to every edge that shares
//!    it;
//! 7. at d = 16 the accumulating kernels hold the output row packed in
//!    registers — across all L−1 `W₂` blocks in the PI tower — with
//!    each element still summing its terms in k order, zero terms
//!    skipped;
//! 8. the propagation softmax computes `exp(π − max)` once per (query
//!    row, relation, relation of the group max) and runs a group whose
//!    logits are all NaN per edge;
//! 9. each propagation level is one fused node update — children's
//!    weighted sum, self term, matmul, bias and activation per row, in
//!    registers at d = 16, in the tape's per-element order — and its
//!    tanh is `kgag_tensor::tanh`, the same port of fdlibm `tanhf` the
//!    tape calls, 16 lanes at a time on a packed row.
//!
//! Every kernel computes each output row from its own instance rows
//! only, and receptive-field draws are position-independent, so the
//! chunking, thread count and cache setting are value-neutral
//! (DESIGN.md §11).
//!
//! With telemetry on, each chunk adds its wall time per stage to the
//! `infer.stage.{fields,attention,propagate,aggregate}_ns` counters, its
//! relation dot count to `infer.relation_dots` and its softmax `exp`
//! count to `infer.exps` — once per chunk, never per op, and never
//! touching a value.

use crate::config::KgagConfig;
use crate::model::ModelParams;
use kgag_kg::ReceptiveField;
use kgag_tensor::infer::{self as kernels, Activation, FusedAggregation, Rows};
use kgag_tensor::tensor::{dot, sigmoid};
use kgag_tensor::{pool, ParamStore};
use std::collections::BTreeMap;
use std::time::Instant;

/// A stage of one chunk's scoring, as the stage clock splits it.
#[derive(Clone, Copy)]
pub(crate) enum Stage {
    /// Receptive fields and rows from the chunk source.
    Fields,
    /// Relation-attention logits and their softmax.
    Attention,
    /// Propagation layers and the residual combine.
    Propagate,
    /// Member mixing, preference aggregation and the read-out.
    Aggregate,
}

const STAGE_COUNTERS: [&str; 4] = [
    "infer.stage.fields_ns",
    "infer.stage.attention_ns",
    "infer.stage.propagate_ns",
    "infer.stage.aggregate_ns",
];

/// One chunk's passive stage timer: a no-op unless telemetry is on;
/// otherwise laps accumulate locally and reach the counters once, in
/// [`StageClock::flush`].
pub(crate) struct StageClock {
    last: Option<Instant>,
    ns: [u64; 4],
    dots: u64,
    exps: u64,
}

impl StageClock {
    /// Start timing a chunk.
    pub(crate) fn start() -> Self {
        StageClock { last: kgag_obs::enabled().then(Instant::now), ns: [0; 4], dots: 0, exps: 0 }
    }

    /// Charge the time since the previous lap to `stage`.
    pub(crate) fn lap(&mut self, stage: Stage) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.ns[stage as usize] += now.duration_since(*last).as_nanos() as u64;
            *last = now;
        }
    }

    /// Add the chunk's totals to the telemetry counters.
    pub(crate) fn flush(self) {
        if self.last.is_some() {
            for (name, ns) in STAGE_COUNTERS.iter().zip(self.ns) {
                kgag_obs::counter(name).add(ns);
            }
            kgag_obs::counter("infer.relation_dots").add(self.dots);
            kgag_obs::counter("infer.exps").add(self.exps);
        }
    }
}

/// A borrowed view of everything the ranking forward reads: the model
/// config, the weights in a [`ParamStore`] and the two embedding tables
/// as flat row-major slices. Building one copies nothing.
pub(crate) struct Engine<'a> {
    config: &'a KgagConfig,
    store: &'a ParamStore,
    params: &'a ModelParams,
    plan: FusedAggregation,
    /// The trained nominal group size the PI tower is shaped for.
    nominal_l: usize,
    /// `γ` of the residual combine; 0 disables it.
    residual_weight: f32,
    /// The f32 attention temperature `1/√d`.
    inv_sqrt_d: f32,
    /// Entity embeddings `[rows, d]`.
    entity: &'a [f32],
    /// Relation embeddings `[rows, d]`, unscaled.
    relation: &'a [f32],
}

impl<'a> Engine<'a> {
    /// The weights in `store` over a chunk's embedding rows as its source
    /// provides them: the model's own tables lent in place, or a remote
    /// source's compact tables, whose ids the source has remapped to
    /// match.
    pub(crate) fn new(
        config: &'a KgagConfig,
        nominal_l: usize,
        store: &'a ParamStore,
        params: &'a ModelParams,
        entity: &'a [f32],
        relation: &'a [f32],
    ) -> Self {
        Engine {
            config,
            store,
            params,
            plan: config.backend.dispatch().fused_aggregation(),
            nominal_l,
            residual_weight: if config.residual { config.propagation_weight } else { 0.0 },
            inv_sqrt_d: 1.0 / (config.dim as f32).sqrt(),
            entity,
            relation,
        }
    }

    fn weight(&self, id: kgag_tensor::ParamId) -> &'a [f32] {
        self.store.value(id).data()
    }

    /// Rows of the entity table by id, in place.
    fn entities<'r>(&self, ids: &'r [u32]) -> Rows<'r>
    where
        'a: 'r,
    {
        Rows::ById { table: self.entity, ids }
    }

    /// Raw scores → sigmoid for one uniform-`l` chunk of `(group,
    /// item)` instances over prepared receptive fields (`None` under
    /// the KGAG-KG ablation) — the engine twin of
    /// `forward_group_prepared` plus the sigmoid read-out.
    pub(crate) fn score_chunk(
        &self,
        rf_members: Option<&ReceptiveField>,
        rf_items: Option<&ReceptiveField>,
        flat_members: &[u32],
        item_ents: &[u32],
        l: usize,
        clock: &mut StageClock,
    ) -> Vec<f32> {
        debug_assert_eq!(flat_members.len(), item_ents.len() * l);
        let d = self.config.dim;
        let (members, items) = (self.entities(flat_members), self.entities(item_ents));
        let gathered = |ids: &[u32]| {
            let mut out = Vec::new();
            kernels::gather_rows(self.entity, d, ids, &mut out);
            out
        };
        // §III-C queries: the item propagates under the members' mean
        // zero-order embedding, each member under its item's
        let item_rep = match rf_items {
            Some(rf) => {
                let mut q_item = Vec::new();
                kernels::group_mean(members, d, l, &mut q_item);
                clock.lap(Stage::Propagate);
                self.propagate(rf, Rows::Dense(&q_item), clock)
            }
            None => gathered(item_ents),
        };
        let member_rep = match rf_members {
            Some(rf) => self.propagate(rf, items, clock),
            None => gathered(flat_members),
        };
        let member_rep = self.member_interaction(member_rep, l);
        let scores = self.aggregate_and_score(&member_rep, &item_rep, l, item_ents.len());
        clock.lap(Stage::Aggregate);
        scores
    }

    /// Propagation (§III-C): relation-attention weights per level, then
    /// the triangular H-iteration update, one fused node-update kernel a
    /// level (weighted sum, self term, matmul, bias and activation per
    /// row). Query row `i` serves the `i`-th
    /// equal share of the targets (one row per target, or one item row
    /// per `L` members).
    fn propagate(&self, rf: &ReceptiveField, query: Rows<'_>, clock: &mut StageClock) -> Vec<f32> {
        let d = self.config.dim;
        let layers = self.params.prop.layer_w.len();
        let k = rf.k;
        assert_eq!(rf.depth, layers, "receptive field depth {} != layers {layers}", rf.depth);
        // query- and level- but not iteration-dependent: precompute
        let mut level_weights = Vec::new();
        clock.dots += kernels::relation_logits(
            self.relation,
            d,
            query,
            &rf.relations,
            self.inv_sqrt_d,
            &mut level_weights,
        ) as u64;
        clock.exps += kernels::relation_softmax(
            &mut level_weights,
            &rf.relations,
            query.len(d),
            self.relation.len() / d,
            k,
        ) as u64;
        clock.lap(Stage::Attention);
        // iteration 0 reads every level in place; `reps[lvl]` holds
        // level `lvl` once propagation has updated it
        let mut reps: Vec<Vec<f32>> = Vec::with_capacity(layers);
        let mut updated = Vec::new();
        for h in 0..layers {
            let act = if h + 1 == layers { Activation::Tanh } else { Activation::Relu };
            let w = self.weight(self.params.prop.layer_w[h]);
            let bias = self.weight(self.params.prop.layer_b[h]);
            for lvl in 0..(layers - h) {
                let (own, children) = if h == 0 {
                    (self.entities(&rf.entities[lvl]), self.entities(&rf.entities[lvl + 1]))
                } else {
                    (Rows::Dense(&reps[lvl]), Rows::Dense(&reps[lvl + 1]))
                };
                let weights = &level_weights[lvl];
                kernels::node_update(
                    self.plan,
                    own,
                    children,
                    weights,
                    k,
                    d,
                    w,
                    bias,
                    act,
                    &mut updated,
                );
                if h == 0 {
                    reps.push(std::mem::take(&mut updated));
                } else {
                    std::mem::swap(&mut reps[lvl], &mut updated);
                }
            }
        }
        // the config keeps `layers ≥ 1` whenever the KG is on
        let mut out = reps.swap_remove(0);
        if self.residual_weight > 0.0 {
            let e0 = self.entities(&rf.entities[0]);
            kernels::residual_inplace(e0, self.residual_weight, d, &mut out);
        }
        clock.lap(Stage::Propagate);
        out
    }

    /// The member–member mixing pass, applied when the model registered
    /// interaction parameters: `m' = m + tanh([m ‖ peer_mean] W_ip +
    /// b_ip)` with `peer_mean = mean·l/(l−1) + m·(−1/(l−1))`, op for op
    /// as `InteractionPatternBackend::member_interaction` emits it.
    fn member_interaction(&self, member_rep: Vec<f32>, l: usize) -> Vec<f32> {
        let Some(ip) = &self.params.interaction else {
            return member_rep;
        };
        if l < 2 {
            return member_rep;
        }
        let d = self.config.dim;
        let mut mean = Vec::new();
        kernels::group_mean(Rows::Dense(&member_rep), d, l, &mut mean);
        let up = l as f32 / (l as f32 - 1.0);
        let down = -1.0 / (l as f32 - 1.0);
        let mut peer_mean = Vec::with_capacity(member_rep.len());
        for (i, m) in member_rep.chunks_exact(d).enumerate() {
            let mu = &mean[(i / l) * d..(i / l + 1) * d];
            peer_mean.extend(mu.iter().zip(m).map(|(&mu, &x)| mu * up + x * down));
        }
        let (w_m, w_peer) = self.weight(ip.w).split_at(d * d);
        let mut mixed = Vec::new();
        kernels::matmul2_bias_act(
            Rows::Dense(&member_rep),
            &peer_mean,
            member_rep.len() / d,
            d,
            w_m,
            w_peer,
            d,
            self.weight(ip.b),
            Activation::Tanh,
            &mut mixed,
        );
        for (o, &m) in mixed.iter_mut().zip(&member_rep) {
            *o = m + *o;
        }
        mixed
    }

    /// Preference aggregation (§III-D) and the sigmoid read-out.
    fn aggregate_and_score(
        &self,
        member_rep: &[f32],
        item_rep: &[f32],
        l: usize,
        b: usize,
    ) -> Vec<f32> {
        let d = self.config.dim;
        let sp = self.config.use_sp.then(|| {
            let mut sp = Vec::new();
            kernels::row_dot_rep_scaled(member_rep, item_rep, d, l, self.inv_sqrt_d, &mut sp);
            sp
        });
        // the PI tower is shape-tied to the trained size; off-nominal
        // rosters score SP-only, exactly like the tape forward
        let pi = (self.config.use_pi && l == self.nominal_l && l >= 2).then(|| {
            let w1 = self.weight(self.params.att_w1);
            let w2 = self.weight(self.params.att_w2);
            let bias = self.weight(self.params.att_b);
            let v = self.weight(self.params.att_v);
            let mut pi = Vec::with_capacity(b * l);
            let mut h1 = vec![0.0f32; d];
            let mut h2 = vec![0.0f32; d];
            let mut prefix = vec![0.0f32; d];
            let mut act = vec![0.0f32; d];
            let slab = d * d;
            for g in 0..b {
                let member = |m: usize| &member_rep[(g * l + m) * d..(g * l + m + 1) * d];
                // peer slot q holds the q-th other member in ascending
                // order — W₂'s d×d block q multiplies it. Slots 0..j hold
                // members 0..j for every member after j, so `prefix`
                // carries their running sum and member j adds only slots
                // j..l-1 (members j+1..l); each element still sees the
                // same additions in the same order
                prefix.fill(0.0);
                for j in 0..l {
                    h1.fill(0.0);
                    kernels::accumulate_row(member(j), w1, d, &mut h1);
                    h2.copy_from_slice(&prefix);
                    let peers = (j + 1..l).map(member);
                    kernels::accumulate_blocks(peers, &w2[j * slab..], d, &mut h2);
                    if j + 1 < l {
                        let w = &w2[j * slab..(j + 1) * slab];
                        kernels::accumulate_row(member(j), w, d, &mut prefix);
                    }
                    for (c, a) in act.iter_mut().enumerate() {
                        *a = (h1[c] + h2[c] + bias[c]).max(0.0);
                    }
                    let mut raw = [0.0f32];
                    kernels::accumulate_row(&act, v, 1, &mut raw);
                    pi.push(raw[0] * self.inv_sqrt_d);
                }
            }
            pi
        });
        let mut alpha = match (sp, pi) {
            (Some(mut s), Some(p)) => {
                for (a, b) in s.iter_mut().zip(&p) {
                    *a += b;
                }
                s
            }
            (Some(s), None) => s,
            (None, Some(p)) => p,
            (None, None) => vec![0.0; b * l], // uniform fallback
        };
        kernels::softmax_groups_inplace(&mut alpha, l);
        let mut group_rep = Vec::new();
        kernels::group_weighted_sum(&alpha, Rows::Dense(member_rep), d, l, &mut group_rep);
        group_rep
            .chunks_exact(d)
            .zip(item_rep.chunks_exact(d))
            .map(|(g, i)| sigmoid(dot(g, i)))
            .collect()
    }
}

/// The one bucket → chunk → reassemble loop behind every scorer:
/// flatten `(member entities, items)` cases to `(case, item entity)`
/// instances, bucket them by member count `L` (groups of different sizes
/// cannot share a flattened forward; ascending `L` for determinism),
/// chunk each bucket for the pool, score each chunk with
/// `score_chunk(flat_members, item_ents, l)` and reassemble per case in
/// request order.
///
/// A failed chunk fails every case it contained (the scorer retries
/// those in isolation). With uniform member counts the bucketing
/// degenerates to one bucket holding every instance in case order.
pub(crate) fn score_buckets<E, F>(
    batch_instances: usize,
    cases: &[(&[u32], &[u32])],
    item_entity: impl Fn(u32) -> u32,
    score_chunk: F,
) -> Vec<Result<Vec<f32>, E>>
where
    E: Clone + Send,
    F: Fn(&[u32], &[u32], usize) -> Result<Vec<f32>, E> + Sync,
{
    let mut buckets: BTreeMap<usize, Vec<(u32, u32)>> = BTreeMap::new();
    for (ci, (members, items)) in cases.iter().enumerate() {
        let bucket = buckets.entry(members.len()).or_default();
        bucket.extend(items.iter().map(|&v| (ci as u32, item_entity(v))));
    }
    let mut out: Vec<Result<Vec<f32>, E>> =
        cases.iter().map(|(_, items)| Ok(Vec::with_capacity(items.len()))).collect();
    for (&l, instances) in &buckets {
        // any chunking is bit-identical (per-row pure kernels,
        // position-independent draws), so the size is picked for load
        // balance alone: several chunks per pool worker, capped at
        // `batch_instances`
        let per_worker = instances.len().div_ceil(pool::num_threads() * 4).max(1);
        let chunk_size = per_worker.min(batch_instances);
        let chunks: Vec<&[(u32, u32)]> = instances.chunks(chunk_size).collect();
        let scored = pool::par_map(&chunks, |_, chunk| {
            let mut flat_members = Vec::with_capacity(chunk.len() * l);
            let mut item_ents = Vec::with_capacity(chunk.len());
            for &(ci, ent) in *chunk {
                flat_members.extend_from_slice(cases[ci as usize].0);
                item_ents.push(ent);
            }
            score_chunk(&flat_members, &item_ents, l)
        });
        for (chunk, result) in chunks.iter().zip(scored) {
            match result {
                Ok(scores) => {
                    for (&(ci, _), s) in chunk.iter().zip(scores) {
                        if let Ok(row) = &mut out[ci as usize] {
                            row.push(s);
                        }
                    }
                }
                Err(e) => {
                    for &(ci, _) in *chunk {
                        out[ci as usize] = Err(e.clone());
                    }
                }
            }
        }
    }
    out
}
