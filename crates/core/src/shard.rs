//! Scatter-gather scoring over row-partitioned shards.
//!
//! A shard ([`kgag_kg::ShardState`]) owns a contiguous slice of the
//! entity and relation embedding tables plus its entities' CSR rows, and
//! answers exactly two query shapes: keyed neighbor draws and embedding
//! row gathers. [`RouterCore`] owns everything else — the (small) layer
//! and attention weights, the group table, the item→entity mapping and
//! the model config — and turns a batch of `(group, candidates)` cases
//! into shard queries, then scores the gathered rows **locally** through
//! the very same forward kernels the single-node engine uses.
//!
//! ## Why sharded ≡ single-node, bit for bit
//!
//! 1. *Draws are partition-invariant.* Every receptive-field draw is
//!    keyed on `(sampler seed, salt, entity, level)` and reads only that
//!    entity's own adjacency row, so a shard reproduces the single-node
//!    draw exactly (proven in `kgag_kg::partition` tests).
//! 2. *Gathers are exact.* Shards return raw f32 table rows; the router
//!    assembles compact tables whose rows are bit-copies of the full
//!    tables' rows and hands them to the engine as they arrived — no
//!    conversion, so a non-finite row scores exactly as it would on a
//!    single node instead of failing the chunk.
//! 3. *The reduction order is the engine's.* The router remaps global
//!    ids to a dense per-chunk id space and scores through the shared
//!    inference engine ([`crate::infer`]). Every kernel computes each
//!    output row purely from its own instance's rows, so the compact
//!    renaming and any chunking are value-neutral.
//!
//! ## Failure semantics
//!
//! [`ShardFetch`] implementations surface peer failures as typed
//! [`ShardError`]s. A failed chunk poisons only the cases it contained:
//! [`RouterCore::score_cases`] retries each of those cases in isolation
//! so a request is answered with an error *only if its own receptive
//! field needs the dead shard* — and the retry is bit-identical to the
//! joint pass (chunking is value-neutral). The router never panics on a
//! peer failure.

use crate::config::KgagConfig;
use crate::infer::{score_buckets, Engine};
use crate::model::ModelParams;
use crate::trainer::{Kgag, SALT_ITEM, SALT_MEMBER};
use kgag_kg::{Partition, ReceptiveField, ShardState};
use kgag_tensor::{ParamStore, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// What went wrong talking to a shard peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardErrorKind {
    /// The peer is gone (connect refused, connection reset, pool closed).
    Unavailable,
    /// The peer did not answer within the configured deadline.
    Timeout,
    /// The peer answered with a malformed or mismatched frame.
    Protocol,
}

/// A typed per-shard failure — the only error the scatter-gather path
/// produces (it never panics on peer failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the shard that failed.
    pub shard: usize,
    /// Failure class.
    pub kind: ShardErrorKind,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ShardErrorKind::Unavailable => write!(f, "shard {} unavailable", self.shard),
            ShardErrorKind::Timeout => write!(f, "shard {} timed out", self.shard),
            ShardErrorKind::Protocol => write!(f, "shard {} protocol error", self.shard),
        }
    }
}

impl std::error::Error for ShardError {}

/// The transport seam between the router and its shard peers. Ids are
/// **global**; implementations split them across peers (by the shared
/// [`Partition`]) and scatter replies back into query order.
///
/// Contract (the bit-identity proofs lean on it):
/// * `fetch_draws` returns `k` children and `k` edge relations per
///   entity, entity-major, exactly as [`ShardState::draws`] produces;
/// * `fetch_entity_rows` / `fetch_relation_rows` return `dim` floats per
///   id, in query order, bit-copies of the full tables' rows.
pub trait ShardFetch: Sync {
    /// Keyed neighbor draws for `entities` at `level` under `salt`.
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError>;

    /// Entity embedding rows for global `ids`, in query order.
    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError>;

    /// Relation embedding rows for global `ids`, in query order.
    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError>;
}

/// An in-process [`ShardFetch`] over a full set of [`ShardState`]s —
/// the partitioning semantics without the network. The equivalence
/// suite drives the router through this to prove partitioning itself is
/// bit-neutral; the TCP pool in `kgag-serve` adds only transport.
pub struct LocalFetch {
    shards: Vec<ShardState>,
}

impl LocalFetch {
    /// Wrap a complete, index-ordered set of shards.
    ///
    /// # Panics
    /// Panics when the set is empty, out of order, or the shards
    /// disagree on the partition.
    pub fn new(shards: Vec<ShardState>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let ep = shards[0].entity_partition();
        let rp = shards[0].relation_partition();
        assert_eq!(ep.shards(), shards.len(), "incomplete shard set");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index(), i, "shards must be in index order");
            assert_eq!(s.entity_partition(), ep, "entity partition mismatch");
            assert_eq!(s.relation_partition(), rp, "relation partition mismatch");
        }
        LocalFetch { shards }
    }

    fn scatter_rows(
        &self,
        part: Partition,
        ids: &[u32],
        gather: impl Fn(&ShardState, &[u32], &mut Vec<f32>),
        dim: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; ids.len() * dim];
        for (shard, bucket) in part.split(ids).into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let ids: Vec<u32> = bucket.iter().map(|&(_, id)| id).collect();
            let mut rows = Vec::with_capacity(ids.len() * dim);
            gather(&self.shards[shard], &ids, &mut rows);
            for (bi, &(pos, _)) in bucket.iter().enumerate() {
                out[pos * dim..(pos + 1) * dim].copy_from_slice(&rows[bi * dim..(bi + 1) * dim]);
            }
        }
        out
    }
}

impl ShardFetch for LocalFetch {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        let k = self.shards[0].k();
        let mut ch = vec![0u32; entities.len() * k];
        let mut rl = vec![0u32; entities.len() * k];
        let part = self.shards[0].entity_partition();
        for (shard, bucket) in part.split(entities).into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let ids: Vec<u32> = bucket.iter().map(|&(_, id)| id).collect();
            let (c, r) = self.shards[shard].draws(salt, level, &ids);
            for (bi, &(pos, _)) in bucket.iter().enumerate() {
                ch[pos * k..(pos + 1) * k].copy_from_slice(&c[bi * k..(bi + 1) * k]);
                rl[pos * k..(pos + 1) * k].copy_from_slice(&r[bi * k..(bi + 1) * k]);
            }
        }
        Ok((ch, rl))
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        let dim = self.shards[0].dim();
        let part = self.shards[0].entity_partition();
        Ok(self.scatter_rows(part, ids, |s, ids, out| s.gather_entity_rows(ids, out), dim))
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        let dim = self.shards[0].dim();
        let part = self.shards[0].relation_partition();
        Ok(self.scatter_rows(part, ids, |s, ids, out| s.gather_relation_rows(ids, out), dim))
    }
}

/// Per-(salt, level, entity) memo of keyed draws — the router-side
/// analogue of [`kgag_kg::RfCache`], filled lazily from shard replies
/// instead of eagerly from the local graph. Both return the identical
/// keyed draws, so the memo is bit-neutral (toggled with the same
/// `KGAG_RF_CACHE` knob).
type DrawMemo = Mutex<HashMap<(u64, u32, u32), (Box<[u32]>, Box<[u32]>)>>;

/// The router half of sharded scoring: holds every small tensor plus
/// the id mappings, fetches draws and rows through a [`ShardFetch`],
/// and scores chunks locally through the shared single-node kernels.
/// Detached from the model (owns clones), so serving can drop the
/// trained [`Kgag`] — and its big tables — entirely.
pub struct RouterCore {
    config: KgagConfig,
    group_size: usize,
    num_items: u32,
    /// item index → global entity id (the paper's mapping `f`).
    item_entity: Vec<u32>,
    /// group id → member entity ids (the bound group table, resolved).
    member_ents_by_group: Vec<Vec<u32>>,
    eval_salt: u64,
    sampler_k: usize,
    num_entities: usize,
    num_relation_slots: usize,
    /// Clones of the model's small weights (propagation layers,
    /// attention, interaction mixing) under the model's own parameter
    /// handles; the two embedding tables are zero-row placeholders —
    /// their rows arrive per chunk from the shards.
    store: ParamStore,
    params: ModelParams,
    batch_instances: usize,
    memo: Option<DrawMemo>,
}

impl Kgag {
    /// Extract shard `index` of `count` for this model — the tables and
    /// CSR rows a shard process holds (rows are the raw f32 parameters).
    pub fn shard_state(&self, index: usize, count: usize) -> ShardState {
        let p = self.params();
        ShardState::extract(
            index,
            count,
            self.collaborative_kg().graph(),
            self.eval_sampler(),
            self.config().dim,
            self.store().value(p.prop.entity_emb).data(),
            self.store().value(p.prop.relation_emb).data(),
        )
    }

    /// A [`RouterCore`] configured from the environment, mirroring
    /// [`Kgag::batch_scorer`]: `KGAG_RF_CACHE=0` disables the draw memo
    /// and `KGAG_EVAL_BATCH` overrides the chunk cap.
    pub fn router_core(&self) -> RouterCore {
        let memo = std::env::var("KGAG_RF_CACHE").map(|v| v != "0").unwrap_or(true);
        let core = RouterCore::from_model(self, memo);
        match std::env::var("KGAG_EVAL_BATCH").ok().and_then(|v| v.parse().ok()) {
            Some(n) if n > 0 => core.with_batch_instances(n),
            _ => core,
        }
    }
}

impl RouterCore {
    /// Detach a router from a trained model, with the draw memo on or
    /// off (the knob the equivalence suite sweeps).
    pub fn from_model(model: &Kgag, memo: bool) -> Self {
        let p = model.params();
        let ckg = model.collaborative_kg();
        let d = model.config().dim;
        // re-register every parameter in the model's order so the
        // model's handles index this store too; the big tables stay
        // behind on the shards
        let mut store = ParamStore::new();
        for (id, name, t) in model.store().iter() {
            let value = if id == p.prop.entity_emb || id == p.prop.relation_emb {
                Tensor::zeros(0, d)
            } else {
                t.clone()
            };
            store.register(name, value);
        }
        let member_ents_by_group =
            (0..model.groups().len() as u32).map(|g| model.member_entities(g)).collect();
        RouterCore {
            config: model.config().clone(),
            group_size: model.group_size(),
            num_items: model.num_items(),
            item_entity: ckg.item_entities().iter().map(|e| e.0).collect(),
            member_ents_by_group,
            eval_salt: model.eval_salt(),
            sampler_k: model.eval_sampler().k(),
            num_entities: ckg.num_entities(),
            num_relation_slots: ckg.num_relation_slots(),
            store,
            params: p.clone(),
            batch_instances: 256,
            memo: (memo && model.config().use_kg).then(|| Mutex::new(HashMap::new())),
        }
    }

    /// Override the instances-per-chunk cap (bit-neutral, like
    /// [`crate::BatchScorer::with_batch_instances`]).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn with_batch_instances(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_instances = n;
        self
    }

    /// Whether the draw memo is active.
    pub fn memoized(&self) -> bool {
        self.memo.is_some()
    }

    /// Groups in the bound table.
    pub fn num_groups(&self) -> u32 {
        self.member_ents_by_group.len() as u32
    }

    /// Items in the catalog.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Nominal members per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Neighbors drawn per node (`K`).
    pub fn sampler_k(&self) -> usize {
        self.sampler_k
    }

    /// Rows of the (sharded) entity table.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Rows of the (sharded) relation table.
    pub fn num_relation_slots(&self) -> usize {
        self.num_relation_slots
    }

    /// The entity partition a `count`-shard deployment uses — what the
    /// serve-layer pool validates peer handshakes against.
    pub fn entity_partition(&self, count: usize) -> Partition {
        Partition::new(self.num_entities, count)
    }

    /// The relation partition a `count`-shard deployment uses.
    pub fn relation_partition(&self, count: usize) -> Partition {
        Partition::new(self.num_relation_slots, count)
    }

    /// Score a batch of `(group, candidate items)` cases through
    /// `fetch`, bit-identical to [`crate::BatchScorer::score_cases`].
    ///
    /// Each case's result is `Ok(scores aligned with its items)` or the
    /// typed [`ShardError`] that prevented scoring it. Chunks are scored
    /// jointly; when a chunk fails, its cases are retried in isolation
    /// so only requests whose receptive field truly needs the failed
    /// shard surface the error (bit-identical either way — chunking is
    /// value-neutral).
    ///
    /// # Panics
    /// Panics when a group id or item id is out of range (the serving
    /// layer validates these into typed request errors first).
    pub fn score_cases<F: ShardFetch>(
        &self,
        fetch: &F,
        cases: &[(u32, Vec<u32>)],
    ) -> Vec<Result<Vec<f32>, ShardError>> {
        let member_ents: Vec<&[u32]> = cases
            .iter()
            .map(|&(g, _)| {
                assert!(g < self.num_groups(), "group {g} out of {}", self.num_groups());
                self.member_ents_by_group[g as usize].as_slice()
            })
            .collect();
        let mut out = self.score_joint(fetch, &member_ents, cases);
        // a failed chunk poisons every case it contained — re-score
        // those cases one at a time so only the ones that actually need
        // the failed shard end up with errors
        for (ci, result) in out.iter_mut().enumerate() {
            if result.is_err() {
                let alone = self.score_joint(fetch, &member_ents[ci..=ci], &cases[ci..=ci]);
                *result = alone.into_iter().next().expect("one case in, one result out");
            }
        }
        out
    }

    /// One pass of the shared bucket → chunk → reassemble driver, every
    /// chunk fetched and scored by [`RouterCore::score_chunk`].
    fn score_joint<F: ShardFetch>(
        &self,
        fetch: &F,
        member_ents: &[&[u32]],
        cases: &[(u32, Vec<u32>)],
    ) -> Vec<Result<Vec<f32>, ShardError>> {
        let item_entity = |v: u32| {
            assert!(v < self.num_items, "item {v} out of {}", self.num_items);
            self.item_entity[v as usize]
        };
        score_buckets(self.batch_instances, member_ents, cases, item_entity, |members, items, l| {
            self.score_chunk(fetch, members, items, l)
        })
    }

    /// Fetch, remap and score one uniform-`L` chunk.
    fn score_chunk<F: ShardFetch>(
        &self,
        fetch: &F,
        flat_members: &[u32],
        item_ents: &[u32],
        l: usize,
    ) -> Result<Vec<f32>, ShardError> {
        // scatter: receptive fields level by level, then the union of
        // rows every instance in the chunk touches
        let (rf_members, rf_items) = if self.config.use_kg {
            (
                Some(self.assemble_rf(fetch, self.eval_salt ^ SALT_MEMBER, flat_members)?),
                Some(self.assemble_rf(fetch, self.eval_salt ^ SALT_ITEM, item_ents)?),
            )
        } else {
            (None, None)
        };
        let mut ents: Vec<u32> = Vec::new();
        ents.extend_from_slice(flat_members);
        ents.extend_from_slice(item_ents);
        let mut rels: Vec<u32> = Vec::new();
        for rf in [&rf_members, &rf_items].into_iter().flatten() {
            for level in &rf.entities {
                ents.extend_from_slice(level);
            }
            for level in &rf.relations {
                rels.extend_from_slice(level);
            }
        }
        ents.sort_unstable();
        ents.dedup();
        rels.sort_unstable();
        rels.dedup();
        let ent_rows = fetch.fetch_entity_rows(&ents)?;
        let rel_rows =
            if rels.is_empty() { Vec::new() } else { fetch.fetch_relation_rows(&rels)? };
        // gather: remap everything into the compact row space and score
        // the gathered rows in place through the shared engine
        let emap: HashMap<u32, u32> =
            ents.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
        let rmap: HashMap<u32, u32> =
            rels.iter().enumerate().map(|(i, &r)| (r, i as u32)).collect();
        let rf_members_c = rf_members.as_ref().map(|rf| remap_rf(rf, &emap, &rmap));
        let rf_items_c = rf_items.as_ref().map(|rf| remap_rf(rf, &emap, &rmap));
        let engine = Engine::new(&self.config, self.group_size, &self.store, &self.params)
            .with_rows(&ent_rows, &rel_rows);
        Ok(engine.score_chunk(
            rf_members_c.as_ref(),
            rf_items_c.as_ref(),
            &remap_ids(flat_members, &emap),
            &remap_ids(item_ents, &emap),
            l,
        ))
    }

    /// Rebuild the receptive field of `targets` level-synchronously from
    /// shard draws: level `l+1` is one `fetch_draws` over level `l`'s
    /// entities (memoized per `(salt, level, entity)` when the memo is
    /// on — same draws either way, like `KGAG_RF_CACHE`).
    fn assemble_rf<F: ShardFetch>(
        &self,
        fetch: &F,
        salt: u64,
        targets: &[u32],
    ) -> Result<ReceptiveField, ShardError> {
        let depth = self.config.layers;
        let mut entities = Vec::with_capacity(depth + 1);
        let mut relations = Vec::with_capacity(depth);
        entities.push(targets.to_vec());
        for level in 0..depth {
            let parents = entities.last().expect("level 0 pushed above");
            let (ch, rl) = self.level_draws(fetch, salt, level, parents)?;
            entities.push(ch);
            relations.push(rl);
        }
        Ok(ReceptiveField { entities, relations, k: self.sampler_k, depth })
    }

    /// One level's draws for `parents` (duplicates allowed), through the
    /// memo when it is on: only never-seen entities go over the wire.
    fn level_draws<F: ShardFetch>(
        &self,
        fetch: &F,
        salt: u64,
        level: usize,
        parents: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        let Some(memo) = &self.memo else {
            return fetch.fetch_draws(salt, level, parents);
        };
        let k = self.sampler_k;
        let mut missing: Vec<u32> = {
            let guard = memo.lock().expect("draw memo poisoned");
            parents
                .iter()
                .copied()
                .filter(|&p| !guard.contains_key(&(salt, level as u32, p)))
                .collect()
        };
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            // fetch outside the lock so slow peers don't serialize the
            // whole pool; concurrent chunks may race on the same entity
            // but insert identical draws (they're keyed), so either wins
            let (ch, rl) = fetch.fetch_draws(salt, level, &missing)?;
            let mut guard = memo.lock().expect("draw memo poisoned");
            for (i, &p) in missing.iter().enumerate() {
                guard.entry((salt, level as u32, p)).or_insert_with(|| {
                    (ch[i * k..(i + 1) * k].into(), rl[i * k..(i + 1) * k].into())
                });
            }
        }
        let guard = memo.lock().expect("draw memo poisoned");
        let mut out_e = Vec::with_capacity(parents.len() * k);
        let mut out_r = Vec::with_capacity(parents.len() * k);
        for &p in parents {
            let (ch, rl) = &guard[&(salt, level as u32, p)];
            out_e.extend_from_slice(ch);
            out_r.extend_from_slice(rl);
        }
        Ok((out_e, out_r))
    }
}

fn remap_ids(ids: &[u32], map: &HashMap<u32, u32>) -> Vec<u32> {
    ids.iter().map(|id| map[id]).collect()
}

fn remap_rf(
    rf: &ReceptiveField,
    emap: &HashMap<u32, u32>,
    rmap: &HashMap<u32, u32>,
) -> ReceptiveField {
    ReceptiveField {
        entities: rf.entities.iter().map(|level| remap_ids(level, emap)).collect(),
        relations: rf.relations.iter().map(|level| remap_ids(level, rmap)).collect(),
        k: rf.k,
        depth: rf.depth,
    }
}
