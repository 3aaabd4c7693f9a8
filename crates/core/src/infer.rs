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
//!    every level, the residual's `e⁰` and the member queries (each
//!    member under its instance's item row) straight from the entity
//!    table, and only levels propagation has updated are owned buffers;
//! 6. a relation-attention logit depends only on its query row and
//!    relation, so it is computed once per (query row, relation) with
//!    the tape's own expression ([`LogitMemo`]) and reused for every
//!    edge that shares it;
//! 7. at d = 16 the accumulating kernels hold the output row packed in
//!    registers — across all L−1 `W₂` blocks in the PI tower — with
//!    each element still summing its terms in k order, zero terms
//!    skipped;
//! 8. the propagation softmax computes `exp(π − max)` once per (query
//!    row, relation, relation of the group max) ([`ExpMemo`]) and runs a
//!    group whose logits are all NaN per edge;
//! 9. each propagation level is one fused node update — children's
//!    weighted sum, self term, matmul, bias and activation per row, in
//!    registers at d = 16, in the tape's per-element order — and its
//!    tanh is `kgag_tensor::tanh`, the same port of fdlibm `tanhf` the
//!    tape calls, 16 lanes at a time on a packed row;
//! 10. propagation walks the chunk's receptive fields as a DAG: a
//!     node's state after iteration `h` is a pure function of its key
//!     (level, entity, query row) — the member side's query row is the
//!     instance's item, the item side's the instance's case — so each
//!     distinct key is computed once per chunk (Rule 1), and at `h = 0`
//!     a node whose `K` edges share one relation is computed once for
//!     every query row whose logit for it is finite: `K` equal finite
//!     logits weigh each child exactly `1/K` (Rule 2). A non-finite
//!     logit keeps the node under its own key.
//!
//! Each output row is a pure function of its own instance's inputs; a
//! node is shared only between instances whose keys are equal, the
//! memo lives for one chunk, and receptive-field draws are
//! position-independent, so the chunking, thread count and cache
//! setting are value-neutral (DESIGN.md §11).
//!
//! With telemetry on, each chunk adds its wall time per stage to the
//! `infer.stage.{fields,attention,propagate,aggregate}_ns` counters, its
//! relation dot count to `infer.relation_dots`, its softmax `exp` count
//! to `infer.exps`, its node updates to `infer.node_updates` and its
//! weighted attention edges to `infer.attention_edges` — once per
//! chunk, never per op, and never touching a value.

use crate::config::KgagConfig;
use crate::model::ModelParams;
use kgag_kg::{FieldDag, IdMap};
use kgag_tensor::infer::{self as kernels, Activation, ExpMemo, FusedAggregation, LogitMemo, Rows};
use kgag_tensor::tensor::{dot, sigmoid, softmax_inplace};
use kgag_tensor::{pool, ParamStore};
use std::collections::BTreeMap;
use std::time::Instant;

/// A stage of one chunk's scoring, as the stage clock splits it.
#[derive(Clone, Copy)]
pub(crate) enum Stage {
    /// Receptive fields and rows from the chunk source.
    Fields,
    /// Rule 2, the relation-attention logits and their softmax.
    Attention,
    /// The DAG keys, the propagation layers and the residual combine.
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
    node_updates: u64,
    attention_edges: u64,
}

impl StageClock {
    /// Start timing a chunk.
    pub(crate) fn start() -> Self {
        StageClock {
            last: kgag_obs::enabled().then(Instant::now),
            ns: [0; 4],
            dots: 0,
            exps: 0,
            node_updates: 0,
            attention_edges: 0,
        }
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
            kgag_obs::counter("infer.node_updates").add(self.node_updates);
            kgag_obs::counter("infer.attention_edges").add(self.attention_edges);
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

    /// Raw scores → sigmoid for every instance of `chunk`, in order,
    /// over the chunk's distinct-node fields (`None` under the KGAG-KG
    /// ablation) — the engine twin of `forward_group_prepared` plus the
    /// sigmoid read-out. `members` and `items` are the entity rows of
    /// the chunk's distinct members and items as the source numbers
    /// them.
    pub(crate) fn score_chunk(
        &self,
        fields: Option<(&FieldDag, &FieldDag)>,
        chunk: &Chunk,
        members: &[u32],
        items: &[u32],
        clock: &mut StageClock,
    ) -> Vec<f32> {
        let (d, l) = (self.config.dim, chunk.l);
        let roster = |c: u32| &chunk.rosters[c as usize * l..(c as usize + 1) * l];
        let item_rep = match fields {
            Some((_, dag)) => {
                // §III-C queries: the items of a case propagate under the
                // mean zero-order embedding of its members — one row a
                // case, bitwise the row every instance of it would get
                let roster_ids: Vec<u32> =
                    chunk.rosters.iter().map(|&m| members[m as usize]).collect();
                let mut q_case = Vec::new();
                kernels::group_mean(self.entities(&roster_ids), d, l, &mut q_case);
                clock.lap(Stage::Propagate);
                let slots: Vec<(u32, u32)> = chunk.instances.iter().map(|&(c, v)| (v, c)).collect();
                self.propagate(dag, Rows::Dense(&q_case), &slots, clock)
            }
            None => {
                let ids: Vec<u32> =
                    chunk.instances.iter().map(|&(_, v)| items[v as usize]).collect();
                self.gathered(&ids)
            }
        };
        // each member under its instance's item
        let slots: Vec<(u32, u32)> = chunk
            .instances
            .iter()
            .flat_map(|&(c, v)| roster(c).iter().map(move |&m| (m, v)))
            .collect();
        let member_rep = match fields {
            Some((dag, _)) => self.propagate(dag, self.entities(items), &slots, clock),
            None => {
                let ids: Vec<u32> = slots.iter().map(|&(m, _)| members[m as usize]).collect();
                self.gathered(&ids)
            }
        };
        let member_rep = self.member_interaction(member_rep, l);
        let scores = self.aggregate_and_score(&member_rep, &item_rep, l, chunk.instances.len());
        clock.lap(Stage::Aggregate);
        scores
    }

    /// Entity rows by id, copied into a dense buffer.
    fn gathered(&self, ids: &[u32]) -> Vec<f32> {
        let mut out = Vec::new();
        kernels::gather_rows(self.entity, self.config.dim, ids, &mut out);
        out
    }

    /// Propagation (§III-C) over a distinct-node field: slot `t` is
    /// root node `slots[t].0` under query row `slots[t].1`, and the
    /// result holds one representation row per slot.
    ///
    /// A node's state at iteration `h` is a pure function of its key
    /// (level, node, query row), so the walk computes each distinct key
    /// once (Rule 1) and, at `h = 0`, each node whose `K` edges share
    /// one relation once for every query row whose logit for that
    /// relation is finite (Rule 2: the softmax of `K` equal finite
    /// logits is exactly `1/K`). Each iteration is the triangular
    /// H-iteration update, one fused node-update kernel a level reading
    /// the children of every key from the compacted level buffers by id.
    fn propagate(
        &self,
        dag: &FieldDag,
        query: Rows<'_>,
        slots: &[(u32, u32)],
        clock: &mut StageClock,
    ) -> Vec<f32> {
        let d = self.config.dim;
        let layers = self.params.prop.layer_w.len();
        let k = dag.k;
        assert_eq!(dag.depth, layers, "receptive field depth {} != layers {layers}", dag.depth);
        // Rule 1: every level's distinct (node, query row) keys, with
        // the query rows renumbered in the walk's class order
        let walk = Walk::new(dag, slots, query.len(d));
        let (table, ids) = match query {
            Rows::Dense(table) => (table, walk.order.clone()),
            Rows::ById { table, ids } => {
                (table, walk.order.iter().map(|&q| ids[q as usize]).collect())
            }
        };
        let query = Rows::ById { table, ids: &ids };
        clock.lap(Stage::Propagate);
        // Rule 2 at h = 0 and the attention of every query-bound block
        let mut logits = LogitMemo::new(self.relation, d, self.inv_sqrt_d);
        let mut exps = ExpMemo::new(self.relation.len() / d);
        let firsts: Vec<FirstIteration> = (0..layers)
            .map(|lvl| self.first_iteration(dag, &walk, lvl, query, &mut logits, &mut exps))
            .collect();
        clock.dots += logits.dots as u64;
        clock.exps += exps.exps as u64;
        for first in &firsts {
            clock.attention_edges += first.weights.len() as u64;
        }
        clock.lap(Stage::Attention);
        // h = 0 over each level's entries, rows read in place from the
        // entity table
        let act = |h: usize| if h + 1 == layers { Activation::Tanh } else { Activation::Relu };
        let mut state: Vec<Vec<f32>> = Vec::with_capacity(layers);
        let (mut own, mut children) = (Vec::new(), Vec::new());
        for (lvl, first) in firsts.iter().enumerate() {
            own.clear();
            children.clear();
            children.resize(first.weights.len(), 0);
            let mut entries = children.chunks_exact_mut(k);
            for &(n, count) in &first.runs {
                let (n, count) = (n as usize, count as usize);
                own.extend(std::iter::repeat_n(dag.nodes[lvl][n], count));
                let block = &dag.children[lvl][n * k..(n + 1) * k];
                entries.by_ref().take(count).for_each(|entry| entry.copy_from_slice(block));
            }
            let mut out = Vec::new();
            kernels::node_update(
                self.plan,
                self.entities(&own),
                self.entities(&children),
                &first.weights,
                k,
                d,
                self.weight(self.params.prop.layer_w[0]),
                self.weight(self.params.prop.layer_b[0]),
                act(0),
                &mut out,
            );
            clock.node_updates += own.len() as u64;
            state.push(out);
        }
        // h ≥ 1 over the keys of every level but the deepest, each key
        // weighted as its h = 0 entry was; level `lvl + 1` still holds
        // iteration h − 1 while level `lvl` updates
        let key_weights: Vec<Vec<f32>> = firsts
            .iter()
            .take(layers - 1)
            .map(|first| {
                let entries: Vec<&[f32]> = first.weights.chunks_exact(k).collect();
                let mut weights = vec![0.0; first.slot.len() * k];
                for (key, &e) in weights.chunks_exact_mut(k).zip(&first.slot) {
                    key.copy_from_slice(entries[e as usize]);
                }
                weights
            })
            .collect();
        let mut updated = Vec::new();
        for h in 1..layers {
            let w = self.weight(self.params.prop.layer_w[h]);
            let bias = self.weight(self.params.prop.layer_b[h]);
            for lvl in 0..(layers - h) {
                // at h = 1 a key's row is its h = 0 entry
                let (own, children) = if h == 1 {
                    let below = &firsts[lvl + 1].slot;
                    (
                        Rows::ById { table: &state[lvl], ids: &firsts[lvl].slot },
                        walk.child_keys(lvl, k, |key| below[key as usize]),
                    )
                } else {
                    (Rows::Dense(&state[lvl]), walk.child_keys(lvl, k, |key| key))
                };
                kernels::node_update(
                    self.plan,
                    own,
                    Rows::ById { table: &state[lvl + 1], ids: &children },
                    &key_weights[lvl],
                    k,
                    d,
                    w,
                    bias,
                    act(h),
                    &mut updated,
                );
                clock.node_updates += walk.keys[lvl] as u64;
                std::mem::swap(&mut state[lvl], &mut updated);
            }
        }
        // one row per slot — its root key's row, or the key's h = 0
        // entry when level 0 has run only h = 0 — then the residual
        let rows: Vec<u32> = if layers == 1 {
            walk.slot_keys.iter().map(|&key| firsts[0].slot[key as usize]).collect()
        } else {
            walk.slot_keys.clone()
        };
        let mut out = Vec::new();
        kernels::gather_rows(&state[0], d, &rows, &mut out);
        if self.residual_weight > 0.0 {
            let e0: Vec<u32> = slots.iter().map(|&(n, _)| dag.nodes[0][n as usize]).collect();
            kernels::residual_inplace(self.entities(&e0), self.residual_weight, d, &mut out);
        }
        clock.lap(Stage::Propagate);
        out
    }

    /// Rule 2 and the attention at level `lvl`: each key's h = 0 entry
    /// — a query-bound key its own, a query-free node one shared by
    /// every row — and each entry's node and weights. Only query-bound
    /// blocks run the softmax; a query-free entry weighs its children
    /// `1/K` each.
    ///
    /// Every row of a class has the same keys, so when each relation
    /// that some node of the class uses alone has a finite logit in
    /// every row, the class's entries follow its keys' layout with the
    /// query-free nodes left out. Otherwise the class is classified key
    /// by key.
    fn first_iteration(
        &self,
        dag: &FieldDag,
        walk: &Walk,
        lvl: usize,
        query: Rows<'_>,
        logits: &mut LogitMemo<'_>,
        exps: &mut ExpMemo,
    ) -> FirstIteration {
        let k = dag.k;
        let blocks = &dag.relations[lvl];
        let block = |n: u32| &blocks[n as usize * k..(n as usize + 1) * k];
        // each node's relation when all its K edges share one
        let single: Vec<u32> = blocks
            .chunks_exact(k)
            .map(|b| if b.iter().all(|&r| r == b[0]) { b[0] } else { NONE })
            .collect();
        let mut free_entry = vec![NONE; dag.nodes[lvl].len()];
        let mut free = Vec::new();
        let mut free_of = |n: u32| {
            let entry = &mut free_entry[n as usize];
            if *entry == NONE {
                *entry = free.len() as u32;
                free.push(n);
            }
            FREE | *entry
        };
        let keys = walk.keys[lvl];
        let mut first = FirstIteration {
            slot: vec![0; keys],
            runs: Vec::new(),
            weights: Vec::with_capacity(keys * k),
            bound: 0,
        };
        for class in &walk.classes {
            let nodes = &class.nodes[lvl];
            let rows = class.rows as usize;
            let lone: Vec<u32> = {
                let mut lone: Vec<u32> = nodes.iter().map(|&n| single[n as usize]).collect();
                lone.sort_unstable();
                lone.dedup();
                lone.retain(|&r| r != NONE);
                lone
            };
            let bound: Vec<u32> =
                nodes.iter().copied().filter(|&n| single[n as usize] == NONE).collect();
            // optimistically, every row frees every lone-relation node:
            // the bound entries node by node, row by row
            let (base, runs) = (first.bound, first.runs.len());
            first.runs.extend(bound.iter().map(|&n| (n, rows as u32)));
            first.bound += bound.len() * rows;
            first.weights.resize(first.bound * k, 0.0);
            let mut freed = true;
            for i in 0..rows {
                let q = self.row_start(query, class.first as usize + i, logits, exps);
                if !lone.iter().all(|&r| logits.logit(q, r).is_finite()) {
                    freed = false;
                    break;
                }
                for (b, &n) in bound.iter().enumerate() {
                    let e = (base + b * rows + i) * k;
                    attend(logits, exps, q, block(n), &mut first.weights[e..e + k]);
                }
            }
            if freed {
                let mut b = 0;
                for (p, &n) in nodes.iter().enumerate() {
                    let keys = class.key(lvl, p as u32, 0) as usize..;
                    if single[n as usize] == NONE {
                        let entry = (base + b * rows) as u32;
                        first.slot[keys][..rows].iter_mut().zip(entry..).for_each(|(s, e)| *s = e);
                        b += 1;
                    } else {
                        first.slot[keys][..rows].fill(free_of(n));
                    }
                }
                continue;
            }
            // some row's logit is not finite: key by key, row by row
            first.runs.truncate(runs);
            first.bound = base;
            first.weights.truncate(base * k);
            for i in 0..rows {
                let q = self.row_start(query, class.first as usize + i, logits, exps);
                for (p, &n) in nodes.iter().enumerate() {
                    let key = class.key(lvl, p as u32, i as u32) as usize;
                    let r = single[n as usize];
                    first.slot[key] = if r != NONE && logits.logit(q, r).is_finite() {
                        free_of(n)
                    } else {
                        let e = first.weights.len();
                        first.weights.resize(e + k, 0.0);
                        attend(logits, exps, q, block(n), &mut first.weights[e..]);
                        first.runs.push((n, 1));
                        first.bound += 1;
                        first.bound as u32 - 1
                    };
                }
            }
        }
        for e in &mut first.slot {
            if *e & FREE != 0 {
                *e = first.bound as u32 + (*e & !FREE);
            }
        }
        first.runs.extend(free.iter().map(|&n| (n, 1)));
        // K equal finite logits: exp(0) each over a sum of K, as a block
        // of zeros gives
        let mut uniform = vec![0.0f32; k];
        softmax_inplace(&mut uniform);
        for _ in &free {
            first.weights.extend_from_slice(&uniform);
        }
        first
    }

    /// Start the memos on query row `row` and return its vector.
    fn row_start<'q>(
        &self,
        query: Rows<'q>,
        row: usize,
        logits: &mut LogitMemo<'_>,
        exps: &mut ExpMemo,
    ) -> &'q [f32] {
        logits.next_row();
        exps.next_row();
        query.row(row, self.config.dim)
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

/// No node, entry or relation.
const NONE: u32 = u32::MAX;

/// Marks a query-free entry while [`Engine::first_iteration`] still
/// counts the query-bound ones.
const FREE: u32 = 1 << 31;

/// Rule 1 for one side of a chunk. Query rows whose slots have the same
/// set of root nodes form a class, and every row of a class has exactly
/// the class's distinct nodes as its keys at every level. A level's keys
/// are therefore laid out class by class, node by node, row by row, and
/// numbered by arithmetic instead of by lookup; a node's keys sit side
/// by side, so its rows are read while they are hot.
struct Walk {
    /// The query rows in class order; a key's row is a position here.
    order: Vec<u32>,
    classes: Vec<Class>,
    /// Each slot's root key.
    slot_keys: Vec<u32>,
    /// Every level's key count.
    keys: Vec<usize>,
}

/// The rows of one class and the distinct nodes each of them reaches.
struct Class {
    /// The class's rows: positions `first..first + rows` of the order.
    first: u32,
    rows: u32,
    /// Per level: the node indices every row of the class reaches.
    nodes: Vec<Vec<u32>>,
    /// Per level but the deepest: `K` positions in the next level's
    /// `nodes` for each node.
    children: Vec<Vec<u32>>,
    /// Per level: the class's first key.
    base: Vec<u32>,
}

impl Walk {
    fn new(dag: &FieldDag, slots: &[(u32, u32)], n_query: usize) -> Walk {
        let (depth, k) = (dag.depth, dag.k);
        // the slots counting-sorted by query row
        let mut start = vec![0usize; n_query + 1];
        for &(_, q) in slots {
            start[q as usize + 1] += 1;
        }
        for q in 0..n_query {
            start[q + 1] += start[q];
        }
        let mut by_query = vec![0u32; slots.len()];
        let mut fill = start.clone();
        for (t, &(_, q)) in slots.iter().enumerate() {
            by_query[fill[q as usize]] = t as u32;
            fill[q as usize] += 1;
        }
        // each row's root set, sorted and deduplicated in place
        let mut roots: Vec<u32> = by_query.iter().map(|&t| slots[t as usize].0).collect();
        let mut root_len = vec![0usize; n_query];
        for q in 0..n_query {
            let set = &mut roots[start[q]..start[q + 1]];
            set.sort_unstable();
            let mut len = 0;
            for i in 0..set.len() {
                if i == 0 || set[i] != set[len - 1] {
                    set[len] = set[i];
                    len += 1;
                }
            }
            root_len[q] = len;
        }
        // classes of rows with equal root sets, in first-seen order; a
        // row usually shares its predecessor's
        let mut class_index: IdMap<&[u32], u32> = IdMap::default();
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut last: Option<(&[u32], u32)> = None;
        for q in 0..n_query {
            let set = &roots[start[q]..start[q] + root_len[q]];
            let c = match last {
                Some((prev, c)) if prev == set => c,
                _ => *class_index.entry(set).or_insert_with(|| {
                    members.push(Vec::new());
                    members.len() as u32 - 1
                }),
            };
            members[c as usize].push(q as u32);
            last = Some((set, c));
        }
        let order: Vec<u32> = members.iter().flatten().copied().collect();
        // every class's nodes level by level, keys numbered as laid out
        let mut seen: Vec<Vec<(u32, u32)>> =
            dag.nodes.iter().map(|level| vec![(0, 0); level.len()]).collect();
        let mut keys = vec![0usize; depth];
        let mut slot_keys = vec![0u32; slots.len()];
        let mut classes = Vec::with_capacity(members.len());
        let mut first = 0;
        for (c, rows) in members.iter().enumerate() {
            let stamp = c as u32 + 1;
            let q0 = rows[0] as usize;
            let mut class = Class {
                first,
                rows: rows.len() as u32,
                nodes: vec![roots[start[q0]..start[q0] + root_len[q0]].to_vec()],
                children: Vec::with_capacity(depth.saturating_sub(1)),
                base: Vec::with_capacity(depth),
            };
            first += class.rows;
            for lvl in 0..depth {
                class.base.push(keys[lvl] as u32);
                keys[lvl] += rows.len() * class.nodes[lvl].len();
                if lvl + 1 == depth {
                    break;
                }
                let (mut next, mut positions) = (Vec::new(), Vec::new());
                positions.reserve(class.nodes[lvl].len() * k);
                for &n in &class.nodes[lvl] {
                    for &child in &dag.child_nodes[lvl][n as usize * k..(n as usize + 1) * k] {
                        let entry = &mut seen[lvl + 1][child as usize];
                        if entry.0 != stamp {
                            *entry = (stamp, next.len() as u32);
                            next.push(child);
                        }
                        positions.push(entry.1);
                    }
                }
                class.nodes.push(next);
                class.children.push(positions);
            }
            // each slot's root key: its row's rank in the class and its
            // node's position among the class's roots
            for (p, &n) in class.nodes[0].iter().enumerate() {
                seen[0][n as usize] = (stamp, p as u32);
            }
            for (i, &q) in rows.iter().enumerate() {
                for &t in &by_query[start[q as usize]..start[q as usize + 1]] {
                    let p = seen[0][slots[t as usize].0 as usize].1;
                    slot_keys[t as usize] = class.key(0, p, i as u32);
                }
            }
            classes.push(class);
        }
        Walk { order, classes, slot_keys, keys }
    }

    /// `K` next-level keys per key of level `lvl`, each through `row`.
    fn child_keys(&self, lvl: usize, k: usize, row: impl Fn(u32) -> u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.keys[lvl] * k);
        for class in &self.classes {
            for positions in class.children[lvl].chunks_exact(k) {
                for i in 0..class.rows {
                    out.extend(positions.iter().map(|&p| row(class.key(lvl + 1, p, i))));
                }
            }
        }
        out
    }
}

impl Class {
    /// The key of node position `p` of level `lvl` under the class's
    /// `i`-th row: a class's keys run node by node, row by row.
    fn key(&self, lvl: usize, p: u32, i: u32) -> u32 {
        self.base[lvl] + p * self.rows + i
    }
}

/// One query-bound block's weights into `out`: its logits under query
/// vector `q`, softmaxed in place.
fn attend(logits: &mut LogitMemo<'_>, exps: &mut ExpMemo, q: &[f32], ids: &[u32], out: &mut [f32]) {
    for (x, &r) in out.iter_mut().zip(ids) {
        *x = logits.logit(q, r);
    }
    exps.softmax(out, ids);
}

/// Iteration 0 of one level: every key's entry in the level's compacted
/// buffer — the query-bound keys first, in key order, then one entry
/// per query-free node.
struct FirstIteration {
    /// Each key's entry.
    slot: Vec<u32>,
    /// The entries' nodes in order, as `(node, entries)` runs.
    runs: Vec<(u32, u32)>,
    /// Each entry's `K` attention weights.
    weights: Vec<f32>,
    /// The number of query-bound entries.
    bound: usize,
}

/// One chunk of same-`L` instances in the form the engine scores: the
/// distinct members and items the chunk's fields are assembled over,
/// and the indices that tie each instance to them.
pub(crate) struct Chunk {
    /// The member count of every case in the chunk.
    pub(crate) l: usize,
    /// The distinct member entities, first-seen order.
    pub(crate) members: Vec<u32>,
    /// The distinct item entities, first-seen order.
    pub(crate) items: Vec<u32>,
    /// Each chunk case's `l` members as indices into `members`.
    pub(crate) rosters: Vec<u32>,
    /// Each instance's `(chunk case, index into items)`, in order.
    pub(crate) instances: Vec<(u32, u32)>,
}

impl Chunk {
    /// The chunk of `instances` — `(case, item entity)` pairs, each
    /// case's contiguous — over `cases` of `l` members each.
    fn new(cases: &[(&[u32], &[u32])], instances: &[(u32, u32)], l: usize) -> Self {
        let mut chunk = Chunk {
            l,
            members: Vec::new(),
            items: Vec::new(),
            rosters: Vec::new(),
            instances: Vec::with_capacity(instances.len()),
        };
        let (mut member_index, mut item_index) = (IdMap::default(), IdMap::default());
        let mut current = None;
        let mut n_cases = 0;
        for &(ci, ent) in instances {
            if current != Some(ci) {
                current = Some(ci);
                n_cases += 1;
                for &m in cases[ci as usize].0 {
                    chunk.rosters.push(intern(&mut member_index, &mut chunk.members, m));
                }
            }
            let v = intern(&mut item_index, &mut chunk.items, ent);
            chunk.instances.push((n_cases - 1, v));
        }
        chunk
    }
}

/// The index of `id` in `values`, appended if new.
fn intern(index: &mut IdMap<u32, u32>, values: &mut Vec<u32>, id: u32) -> u32 {
    *index.entry(id).or_insert_with(|| {
        values.push(id);
        values.len() as u32 - 1
    })
}

/// The one bucket → chunk → reassemble loop behind every scorer:
/// flatten `(member entities, items)` cases to `(case, item entity)`
/// instances, bucket them by member count `L` (groups of different sizes
/// cannot share a flattened forward; ascending `L` for determinism),
/// chunk each bucket for the pool, score each [`Chunk`] with
/// `score_chunk` and reassemble per case in request order.
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
    F: Fn(&Chunk) -> Result<Vec<f32>, E> + Sync,
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
        // position-independent draws), so the size is picked for speed
        // alone: as few balanced chunks as keep each within
        // `batch_instances` (each chunk pays the walk's bookkeeping once)
        let n = instances.len().max(1);
        let count = n.div_ceil(batch_instances);
        let chunks: Vec<&[(u32, u32)]> = instances.chunks(n.div_ceil(count)).collect();
        let scored = pool::par_map(&chunks, |_, chunk| score_chunk(&Chunk::new(cases, chunk, l)));
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
