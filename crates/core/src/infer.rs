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
//!    registers — across all L−1 `W₂` blocks in the PI tower, which is
//!    one kernel call a chunk — with each element still summing its
//!    terms in k order, zero terms skipped;
//! 8. the propagation softmax computes `exp(π − max)` once per (query
//!    row, relation, relation of the group max) ([`ExpMemo`]) and runs a
//!    group whose logits are all NaN per edge; where a row's logits are
//!    pairwise distinct numbers, a block's max is its highest-ranked
//!    relation's logit, the one value its `f32::max` fold can give;
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
//! node is shared only between instances whose keys are equal, and
//! receptive-field draws are position-independent, so the chunking,
//! thread count and cache setting are value-neutral (DESIGN.md §11).
//!
//! Every buffer a chunk writes besides its scores lives in its thread's
//! [`Workspace`] and is reused by the thread's next chunk, so a chunk of
//! a shape the thread has scored before allocates only its scores. The
//! buffers carry no values between chunks: each is cleared or
//! overwritten before it is read, the walk restamps its nodes per chunk,
//! the logit memo numbers a fresh relation set per class and the `exp`
//! memo starts every query row empty — a remote chunk's remapped
//! relation ids never meet another chunk's logits.
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
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::BuildHasher;
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
    /// them. Every buffer but the returned scores is this thread's
    /// [`Workspace`].
    pub(crate) fn score_chunk(
        &self,
        fields: Option<(&FieldDag, &FieldDag)>,
        chunk: &Chunk,
        members: &[u32],
        items: &[u32],
        clock: &mut StageClock,
    ) -> Vec<f32> {
        WORKSPACE
            .with_borrow_mut(|ws| self.score_chunk_in(ws, fields, chunk, members, items, clock))
    }

    fn score_chunk_in(
        &self,
        ws: &mut Workspace,
        fields: Option<(&FieldDag, &FieldDag)>,
        chunk: &Chunk,
        members: &[u32],
        items: &[u32],
        clock: &mut StageClock,
    ) -> Vec<f32> {
        let (d, l) = (self.config.dim, chunk.l);
        let roster = |c: u32| &chunk.rosters[c as usize * l..(c as usize + 1) * l];
        let Workspace { ids, slots, q_case, item_rep, member_rep, mix, prop } = ws;
        match fields {
            Some((_, dag)) => {
                // §III-C queries: the items of a case propagate under the
                // mean zero-order embedding of its members — one row a
                // case, bitwise the row every instance of it would get
                ids.clear();
                ids.extend(chunk.rosters.iter().map(|&m| members[m as usize]));
                kernels::group_mean(self.entities(ids), d, l, q_case);
                clock.lap(Stage::Propagate);
                slots.clear();
                slots.extend(chunk.instances.iter().map(|&(c, v)| (v, c)));
                self.propagate(prop, dag, Rows::Dense(q_case), slots, clock, item_rep);
            }
            None => {
                ids.clear();
                ids.extend(chunk.instances.iter().map(|&(_, v)| items[v as usize]));
                kernels::gather_rows(self.entity, d, ids, item_rep);
            }
        }
        // each member under its instance's item
        slots.clear();
        slots.extend(
            chunk.instances.iter().flat_map(|&(c, v)| roster(c).iter().map(move |&m| (m, v))),
        );
        match fields {
            Some((dag, _)) => {
                self.propagate(prop, dag, self.entities(items), slots, clock, member_rep)
            }
            None => {
                ids.clear();
                ids.extend(slots.iter().map(|&(m, _)| members[m as usize]));
                kernels::gather_rows(self.entity, d, ids, member_rep);
            }
        }
        self.member_interaction(member_rep, mix, l);
        let scores = self.aggregate_and_score(member_rep, item_rep, mix, l, chunk.instances.len());
        clock.lap(Stage::Aggregate);
        scores
    }

    /// Propagation (§III-C) over a distinct-node field: slot `t` is
    /// root node `slots[t].0` under query row `slots[t].1`, and `out`
    /// receives one representation row per slot.
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
        ws: &mut Propagation,
        dag: &FieldDag,
        query: Rows<'_>,
        slots: &[(u32, u32)],
        clock: &mut StageClock,
        out: &mut Vec<f32>,
    ) {
        let d = self.config.dim;
        let layers = self.params.prop.layer_w.len();
        let k = dag.k;
        assert_eq!(dag.depth, layers, "receptive field depth {} != layers {layers}", dag.depth);
        let Propagation { walk, query_ids, firsts, attention, state, updated, own, children } = ws;
        // Rule 1: every level's distinct (node, query row) keys, with
        // the query rows renumbered in the walk's class order
        walk.build(dag, slots, query.len(d));
        let query = match query {
            Rows::Dense(table) => Rows::ById { table, ids: &walk.order },
            Rows::ById { table, ids } => {
                query_ids.clear();
                query_ids.extend(walk.order.iter().map(|&q| ids[q as usize]));
                Rows::ById { table, ids: query_ids }
            }
        };
        clock.lap(Stage::Propagate);
        // Rule 2 at h = 0 and the attention of every query-bound block
        attention.logits.dots = 0;
        attention.exps.exps = 0;
        firsts.resize_with(layers, FirstIteration::default);
        for (lvl, first) in firsts.iter_mut().enumerate() {
            self.first_iteration(dag, walk, lvl, query, attention, first);
            clock.attention_edges += first.weights.len() as u64;
        }
        clock.dots += attention.logits.dots as u64;
        clock.exps += attention.exps.exps as u64;
        clock.lap(Stage::Attention);
        // h = 0 over each level's entries, rows read in place from the
        // entity table
        let act = |h: usize| if h + 1 == layers { Activation::Tanh } else { Activation::Relu };
        state.resize_with(layers, Vec::new);
        for (lvl, (first, state)) in firsts.iter().zip(state.iter_mut()).enumerate() {
            own.clear();
            children.clear();
            for &(n, count) in &first.runs {
                let (n, count) = (n as usize, count as usize);
                own.extend(std::iter::repeat_n(dag.nodes[lvl][n], count));
                // the run's `count` copies of the node's children, in
                // doubling copies rather than one short copy an entry
                let start = children.len();
                children.extend_from_slice(&dag.children[lvl][n * k..(n + 1) * k]);
                while children.len() < start + count * k {
                    let have = children.len() - start;
                    children.extend_from_within(start..start + have.min(count * k - have));
                }
            }
            kernels::node_update(
                self.plan,
                self.entities(own),
                self.entities(children),
                &first.weights,
                k,
                d,
                self.weight(self.params.prop.layer_w[0]),
                self.weight(self.params.prop.layer_b[0]),
                act(0),
                state,
            );
            clock.node_updates += own.len() as u64;
        }
        // h ≥ 1 over the keys of every level but the deepest, each key
        // weighted as its h = 0 entry was; level `lvl + 1` still holds
        // iteration h − 1 while level `lvl` updates
        for first in &mut firsts[..layers - 1] {
            first.key_weights.clear();
            for &e in &first.slot {
                let e = e as usize * k;
                first.key_weights.extend_from_slice(&first.weights[e..e + k]);
            }
        }
        for h in 1..layers {
            let w = self.weight(self.params.prop.layer_w[h]);
            let bias = self.weight(self.params.prop.layer_b[h]);
            for lvl in 0..(layers - h) {
                // at h = 1 a key's row is its h = 0 entry
                let own = if h == 1 {
                    let below = &firsts[lvl + 1].slot;
                    walk.child_keys(lvl, k, |key| below[key as usize], children);
                    Rows::ById { table: &state[lvl], ids: &firsts[lvl].slot }
                } else {
                    walk.child_keys(lvl, k, |key| key, children);
                    Rows::Dense(&state[lvl])
                };
                kernels::node_update(
                    self.plan,
                    own,
                    Rows::ById { table: &state[lvl + 1], ids: children },
                    &firsts[lvl].key_weights,
                    k,
                    d,
                    w,
                    bias,
                    act(h),
                    updated,
                );
                clock.node_updates += walk.keys[lvl] as u64;
                std::mem::swap(&mut state[lvl], updated);
            }
        }
        // one row per slot — its root key's row, or the key's h = 0
        // entry when level 0 has run only h = 0 — then the residual
        own.clear();
        if layers == 1 {
            own.extend(walk.slot_keys.iter().map(|&key| firsts[0].slot[key as usize]));
        } else {
            own.extend_from_slice(&walk.slot_keys);
        }
        kernels::gather_rows(&state[0], d, own, out);
        if self.residual_weight > 0.0 {
            own.clear();
            own.extend(slots.iter().map(|&(n, _)| dag.nodes[0][n as usize]));
            kernels::residual_inplace(self.entities(own), self.residual_weight, d, out);
        }
        clock.lap(Stage::Propagate);
    }

    /// Rule 2 and the attention at level `lvl` into `first`: each key's
    /// h = 0 entry — a query-bound key its own, a query-free node one
    /// shared by every row — and each entry's node and weights. Only
    /// query-bound blocks run the softmax; a query-free entry weighs its
    /// children `1/K` each.
    ///
    /// Every row of a class has the same keys and visits the same bound
    /// blocks, so the class's relation set — its lone relations, then
    /// its bound blocks' — and each block edge's index in it are laid out
    /// once, and each row computes its logits of the set into a dense
    /// array the blocks index. When each relation that some node of the
    /// class uses alone has a finite logit in every row, the class's
    /// entries follow its keys' layout with the query-free nodes left
    /// out. Otherwise the class is classified key by key.
    fn first_iteration(
        &self,
        dag: &FieldDag,
        walk: &Walk,
        lvl: usize,
        query: Rows<'_>,
        at: &mut Attention,
        first: &mut FirstIteration,
    ) {
        let (d, k) = (self.config.dim, dag.k);
        let blocks = &dag.relations[lvl];
        let Attention { single, free_entry, free, lone, bound, edges, block, logits, exps } = at;
        // each node's relation when all its K edges share one
        single.clear();
        single.extend(blocks.chunks_exact(k).map(|b| {
            if b.iter().all(|&r| r == b[0]) {
                b[0]
            } else {
                NONE
            }
        }));
        free_entry.clear();
        free_entry.resize(dag.nodes[lvl].len(), NONE);
        free.clear();
        let mut free_of = |n: u32| {
            let entry = &mut free_entry[n as usize];
            if *entry == NONE {
                *entry = free.len() as u32;
                free.push(n);
            }
            FREE | *entry
        };
        first.slot.clear();
        first.slot.resize(walk.keys[lvl], 0);
        first.runs.clear();
        first.weights.clear();
        first.bound = 0;
        for (c, class) in walk.classes.iter().enumerate() {
            let nodes = walk.nodes(lvl, c);
            let rows = class.rows as usize;
            lone.clear();
            lone.extend(nodes.iter().map(|&n| single[n as usize]).filter(|&r| r != NONE));
            lone.sort_unstable();
            lone.dedup();
            bound.clear();
            bound.extend(nodes.iter().copied().filter(|&n| single[n as usize] == NONE));
            logits.start_set();
            for &r in lone.iter() {
                logits.intern(r);
            }
            edges.clear();
            for &n in bound.iter() {
                let n = n as usize;
                edges.extend(blocks[n * k..(n + 1) * k].iter().map(|&r| logits.intern(r)));
            }
            // optimistically, every row frees every lone-relation node:
            // the bound entries node by node, row by row
            let (base, runs) = (first.bound, first.runs.len());
            first.runs.extend(bound.iter().map(|&n| (n, rows as u32)));
            first.bound += bound.len() * rows;
            first.weights.resize(first.bound * k, 0.0);
            let mut freed = true;
            for i in 0..rows {
                let q = query.row(class.first as usize + i, d);
                if !logits.row(q, self.relation, self.inv_sqrt_d, lone.len()) {
                    freed = false;
                    break;
                }
                if !edges.is_empty() {
                    exps.next_row(logits.len());
                    let out = &mut first.weights[(base + i) * k..];
                    exps.softmax_blocks(logits.logits(), edges, k, out, rows * k);
                }
            }
            if freed {
                let mut b = 0;
                for (p, &n) in nodes.iter().enumerate() {
                    let keys = walk.key(lvl, c, p, 0) as usize..;
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
                let q = query.row(class.first as usize + i, d);
                logits.row(q, self.relation, self.inv_sqrt_d, 0);
                exps.next_row(logits.len());
                let mut bound_blocks = edges.chunks_exact(k);
                for (p, &n) in nodes.iter().enumerate() {
                    let key = walk.key(lvl, c, p, i) as usize;
                    let r = single[n as usize];
                    let j = (r != NONE).then(|| logits.intern(r));
                    first.slot[key] = match j {
                        Some(j) if logits.logits()[j as usize].is_finite() => free_of(n),
                        _ => {
                            let ids = match j {
                                Some(j) => {
                                    block.clear();
                                    block.resize(k, j);
                                    &block[..]
                                }
                                None => bound_blocks.next().expect("a block per bound node"),
                            };
                            let e = first.weights.len();
                            first.weights.resize(e + k, 0.0);
                            exps.softmax(logits.logits(), ids, &mut first.weights[e..]);
                            first.runs.push((n, 1));
                            first.bound += 1;
                            first.bound as u32 - 1
                        }
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
        if !free.is_empty() {
            let start = first.weights.len();
            first.weights.resize(start + k, 0.0);
            softmax_inplace(&mut first.weights[start..]);
            for _ in 1..free.len() {
                first.weights.extend_from_within(start..start + k);
            }
        }
    }

    /// The member–member mixing pass, applied when the model registered
    /// interaction parameters: `m' = m + tanh([m ‖ peer_mean] W_ip +
    /// b_ip)` with `peer_mean = mean·l/(l−1) + m·(−1/(l−1))`, op for op
    /// as `InteractionPatternBackend::member_interaction` emits it.
    fn member_interaction(&self, member_rep: &mut Vec<f32>, mix: &mut Mixing, l: usize) {
        let Some(ip) = &self.params.interaction else {
            return;
        };
        if l < 2 {
            return;
        }
        let d = self.config.dim;
        let Mixing { mean, peer_mean, mixed, .. } = mix;
        kernels::group_mean(Rows::Dense(member_rep), d, l, mean);
        let up = l as f32 / (l as f32 - 1.0);
        let down = -1.0 / (l as f32 - 1.0);
        peer_mean.clear();
        for (i, m) in member_rep.chunks_exact(d).enumerate() {
            let mu = &mean[(i / l) * d..(i / l + 1) * d];
            peer_mean.extend(mu.iter().zip(m).map(|(&mu, &x)| mu * up + x * down));
        }
        let (w_m, w_peer) = self.weight(ip.w).split_at(d * d);
        kernels::matmul2_bias_act(
            Rows::Dense(member_rep),
            peer_mean,
            member_rep.len() / d,
            d,
            w_m,
            w_peer,
            d,
            self.weight(ip.b),
            Activation::Tanh,
            mixed,
        );
        for (o, &m) in mixed.iter_mut().zip(member_rep.iter()) {
            *o = m + *o;
        }
        std::mem::swap(member_rep, mixed);
    }

    /// Preference aggregation (§III-D) and the sigmoid read-out.
    fn aggregate_and_score(
        &self,
        member_rep: &[f32],
        item_rep: &[f32],
        mix: &mut Mixing,
        l: usize,
        b: usize,
    ) -> Vec<f32> {
        let d = self.config.dim;
        let Mixing { sp, pi, group_rep, .. } = mix;
        let use_sp = self.config.use_sp;
        if use_sp {
            kernels::row_dot_rep_scaled(member_rep, item_rep, d, l, self.inv_sqrt_d, sp);
        }
        // the PI tower is shape-tied to the trained size; off-nominal
        // rosters score SP-only, exactly like the tape forward
        let use_pi = self.config.use_pi && l == self.nominal_l && l >= 2;
        if use_pi {
            kernels::peer_influence(
                member_rep,
                l,
                d,
                self.weight(self.params.att_w1),
                self.weight(self.params.att_w2),
                self.weight(self.params.att_b),
                self.weight(self.params.att_v),
                self.inv_sqrt_d,
                pi,
            );
        }
        let alpha = match (use_sp, use_pi) {
            (true, true) => {
                for (a, b) in sp.iter_mut().zip(pi.iter()) {
                    *a += b;
                }
                sp
            }
            (true, false) => sp,
            (false, true) => pi,
            (false, false) => {
                // uniform fallback
                sp.clear();
                sp.resize(b * l, 0.0);
                sp
            }
        };
        kernels::softmax_groups_inplace(alpha, l);
        kernels::group_weighted_sum(alpha, Rows::Dense(member_rep), d, l, group_rep);
        group_rep
            .chunks_exact(d)
            .zip(item_rep.chunks_exact(d))
            .map(|(g, i)| sigmoid(dot(g, i)))
            .collect()
    }
}

thread_local! {
    /// This thread's engine buffers, reused by every chunk it scores.
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Every buffer one chunk's scoring writes besides the scores it
/// returns, kept per thread and reused chunk after chunk, so a chunk of a
/// shape the thread has scored before allocates nothing else. Buffers
/// only: each is cleared or overwritten before it is read, the walk
/// restamps its nodes per chunk and the memos start every row empty, so
/// no value of one chunk reaches the next — a router chunk's remapped
/// relation table never meets a logit of another.
#[derive(Default)]
struct Workspace {
    /// An id list: the rosters' member rows, or the gathered rows of the
    /// KGAG-KG ablation.
    ids: Vec<u32>,
    /// One side's `(root node, query row)` slots.
    slots: Vec<(u32, u32)>,
    /// The item side's queries, one row a case.
    q_case: Vec<f32>,
    item_rep: Vec<f32>,
    member_rep: Vec<f32>,
    mix: Mixing,
    prop: Propagation,
}

/// The member mixing and aggregation buffers.
#[derive(Default)]
struct Mixing {
    mean: Vec<f32>,
    peer_mean: Vec<f32>,
    mixed: Vec<f32>,
    sp: Vec<f32>,
    pi: Vec<f32>,
    group_rep: Vec<f32>,
}

/// One side's propagation buffers, used by each side in turn.
#[derive(Default)]
struct Propagation {
    walk: Walk,
    /// The query rows' table ids in the walk's class order.
    query_ids: Vec<u32>,
    /// Each level's iteration 0.
    firsts: Vec<FirstIteration>,
    attention: Attention,
    /// Each level's current state rows, and the next iteration's.
    state: Vec<Vec<f32>>,
    updated: Vec<f32>,
    /// Own and child row ids of one level's update.
    own: Vec<u32>,
    children: Vec<u32>,
}

/// [`Engine::first_iteration`]'s buffers.
#[derive(Default)]
struct Attention {
    /// Each node's lone relation, or `NONE`.
    single: Vec<u32>,
    /// Each query-free node's entry among the query-free ones, or `NONE`.
    free_entry: Vec<u32>,
    /// The query-free nodes in entry order.
    free: Vec<u32>,
    /// A class's lone relations and query-bound nodes.
    lone: Vec<u32>,
    bound: Vec<u32>,
    /// The class's bound blocks' edges as indices into its relation set.
    edges: Vec<u32>,
    /// One lone-relation block as indices, where its logit is not finite.
    block: Vec<u32>,
    logits: LogitMemo,
    exps: ExpMemo,
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
#[derive(Default)]
struct Walk {
    /// The query rows in class order; a key's row is a position here.
    order: Vec<u32>,
    classes: Vec<Class>,
    /// Per level: every class's node indices, class after class.
    nodes: Vec<Vec<u32>>,
    /// Per level: where each class's nodes start in `nodes`, and the end.
    spans: Vec<Vec<u32>>,
    /// Per level: each class's first key.
    bases: Vec<Vec<u32>>,
    /// Per level but the deepest: `K` positions among its class's
    /// next-level nodes for each node of `nodes`.
    children: Vec<Vec<u32>>,
    /// Each slot's root key.
    slot_keys: Vec<u32>,
    /// Every level's key count.
    keys: Vec<usize>,
    /// [`Walk::build`]'s scratch: the slots counting-sorted by query
    /// row, each row's sorted root set and its class, the classes by
    /// root-set hash, and each level's node stamps.
    start: Vec<usize>,
    fill: Vec<usize>,
    by_query: Vec<u32>,
    roots: Vec<u32>,
    root_len: Vec<usize>,
    row_class: Vec<u32>,
    class_of: IdMap<u64, u32>,
    same_hash: Vec<u32>,
    seen: Vec<Vec<(u32, u32)>>,
}

/// The rows of one class: positions `first..first + rows` of the order.
#[derive(Clone, Copy)]
struct Class {
    first: u32,
    rows: u32,
    /// A row of the class, whose root set is the class's.
    row: u32,
}

impl Walk {
    fn build(&mut self, dag: &FieldDag, slots: &[(u32, u32)], n_query: usize) {
        let (depth, k) = (dag.depth, dag.k);
        // the slots counting-sorted by query row
        let start = &mut self.start;
        start.clear();
        start.resize(n_query + 1, 0);
        for &(_, q) in slots {
            start[q as usize + 1] += 1;
        }
        for q in 0..n_query {
            start[q + 1] += start[q];
        }
        self.by_query.clear();
        self.by_query.resize(slots.len(), 0);
        self.fill.clear();
        self.fill.extend_from_slice(start);
        for (t, &(_, q)) in slots.iter().enumerate() {
            self.by_query[self.fill[q as usize]] = t as u32;
            self.fill[q as usize] += 1;
        }
        // each row's root set, sorted and deduplicated in place
        self.roots.clear();
        self.roots.extend(self.by_query.iter().map(|&t| slots[t as usize].0));
        self.root_len.clear();
        for q in 0..n_query {
            let set = &mut self.roots[start[q]..start[q + 1]];
            set.sort_unstable();
            let mut len = 0;
            for i in 0..set.len() {
                if i == 0 || set[i] != set[len - 1] {
                    set[len] = set[i];
                    len += 1;
                }
            }
            self.root_len.push(len);
        }
        // classes of rows with equal root sets, in first-seen order; a
        // row usually shares its predecessor's
        let set = |q: usize| &self.roots[start[q]..start[q] + self.root_len[q]];
        self.classes.clear();
        self.class_of.clear();
        self.same_hash.clear();
        self.row_class.clear();
        for q in 0..n_query {
            let c = match q.checked_sub(1) {
                Some(prev) if set(prev) == set(q) => self.row_class[prev],
                _ => {
                    let hash = self.class_of.hasher().hash_one(set(q));
                    let mut c = self.class_of.get(&hash).copied().unwrap_or(NONE);
                    while c != NONE && set(self.classes[c as usize].row as usize) != set(q) {
                        c = self.same_hash[c as usize];
                    }
                    if c == NONE {
                        c = self.classes.len() as u32;
                        self.classes.push(Class { first: 0, rows: 0, row: q as u32 });
                        self.same_hash.push(self.class_of.insert(hash, c).unwrap_or(NONE));
                    }
                    c
                }
            };
            self.classes[c as usize].rows += 1;
            self.row_class.push(c);
        }
        let mut first = 0;
        for class in &mut self.classes {
            class.first = first;
            first += class.rows;
        }
        self.order.clear();
        self.order.resize(n_query, 0);
        self.fill.clear();
        self.fill.extend(self.classes.iter().map(|class| class.first as usize));
        for (q, &c) in self.row_class.iter().enumerate() {
            self.order[self.fill[c as usize]] = q as u32;
            self.fill[c as usize] += 1;
        }
        // every class's nodes level by level, keys numbered as laid out
        for list in [&mut self.nodes, &mut self.spans, &mut self.bases, &mut self.children] {
            list.resize_with(depth, Vec::new);
            list.iter_mut().for_each(Vec::clear);
        }
        self.seen.resize_with(depth, Vec::new);
        for (seen, level) in self.seen.iter_mut().zip(&dag.nodes) {
            seen.clear();
            seen.resize(level.len(), (0, 0));
        }
        self.keys.clear();
        self.keys.resize(depth, 0);
        self.slot_keys.clear();
        self.slot_keys.resize(slots.len(), 0);
        for (c, class) in self.classes.iter().enumerate() {
            let stamp = c as u32 + 1;
            let rows = class.rows as usize;
            let q0 = class.row as usize;
            self.spans[0].push(self.nodes[0].len() as u32);
            self.nodes[0].extend_from_slice(&self.roots[start[q0]..start[q0] + self.root_len[q0]]);
            for lvl in 0..depth {
                let span = self.spans[lvl][c] as usize;
                self.bases[lvl].push(self.keys[lvl] as u32);
                self.keys[lvl] += rows * (self.nodes[lvl].len() - span);
                if lvl + 1 == depth {
                    continue;
                }
                let (upper, lower) = self.nodes.split_at_mut(lvl + 1);
                let next = &mut lower[0];
                let first_next = next.len();
                self.spans[lvl + 1].push(first_next as u32);
                for &n in &upper[lvl][span..] {
                    for &child in &dag.child_nodes[lvl][n as usize * k..(n as usize + 1) * k] {
                        let entry = &mut self.seen[lvl + 1][child as usize];
                        if entry.0 != stamp {
                            *entry = (stamp, (next.len() - first_next) as u32);
                            next.push(child);
                        }
                        self.children[lvl].push(entry.1);
                    }
                }
            }
            // each slot's root key: its row's rank in the class and its
            // node's position among the class's roots
            let span = self.spans[0][c] as usize;
            for (p, &n) in self.nodes[0][span..].iter().enumerate() {
                self.seen[0][n as usize] = (stamp, p as u32);
            }
            let base = self.bases[0][c];
            for (i, &q) in self.order[class.first as usize..][..rows].iter().enumerate() {
                for &t in &self.by_query[start[q as usize]..start[q as usize + 1]] {
                    let p = self.seen[0][slots[t as usize].0 as usize].1;
                    self.slot_keys[t as usize] = base + p * class.rows + i as u32;
                }
            }
        }
        for (spans, nodes) in self.spans.iter_mut().zip(&self.nodes) {
            spans.push(nodes.len() as u32);
        }
    }

    /// Class `c`'s nodes at level `lvl`.
    fn nodes(&self, lvl: usize, c: usize) -> &[u32] {
        &self.nodes[lvl][self.spans[lvl][c] as usize..self.spans[lvl][c + 1] as usize]
    }

    /// The key of class `c`'s node position `p` of level `lvl` under the
    /// class's `i`-th row: a class's keys run node by node, row by row.
    fn key(&self, lvl: usize, c: usize, p: usize, i: usize) -> u32 {
        self.bases[lvl][c] + (p * self.classes[c].rows as usize + i) as u32
    }

    /// `K` next-level keys per key of level `lvl`, each through `row`,
    /// into `out`.
    fn child_keys(&self, lvl: usize, k: usize, row: impl Fn(u32) -> u32, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(self.keys[lvl] * k);
        for (c, class) in self.classes.iter().enumerate() {
            let span = self.spans[lvl][c] as usize * k..self.spans[lvl][c + 1] as usize * k;
            let base = self.bases[lvl + 1][c];
            for positions in self.children[lvl][span].chunks_exact(k) {
                for i in 0..class.rows {
                    out.extend(positions.iter().map(|&p| row(base + p * class.rows + i)));
                }
            }
        }
    }
}

/// Iteration 0 of one level: every key's entry in the level's compacted
/// buffer — the query-bound keys first, in key order, then one entry
/// per query-free node.
#[derive(Default)]
struct FirstIteration {
    /// Each key's entry.
    slot: Vec<u32>,
    /// The entries' nodes in order, as `(node, entries)` runs.
    runs: Vec<(u32, u32)>,
    /// Each entry's `K` attention weights.
    weights: Vec<f32>,
    /// Each key's `K` weights, its entry's, for the iterations past 0.
    key_weights: Vec<f32>,
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
    pub(crate) fn new(cases: &[(&[u32], &[u32])], instances: &[(u32, u32)], l: usize) -> Self {
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
