//! The one scorer behind every scoring front end (DESIGN.md §11).
//!
//! A [`Scorer`] turns a batch of `(group, candidates)` cases into
//! per-case results in four steps, each written once:
//!
//! 1. **Validate** every case: an unknown group or item is a typed
//!    [`ScoreError`] on that case alone, never a panic.
//! 2. **Resolve** the members of each valid case to entity ids through
//!    the scorer's own live [`GroupStore`], the whole batch under one
//!    read guard that drops before any chunk is assembled.
//! 3. **Score** the valid cases through the shared bucket → chunk →
//!    reassemble loop ([`crate::infer::score_buckets`]) and the
//!    inference engine.
//! 4. **Retry** the cases of a failed chunk one at a time, so a case
//!    fails only when its own receptive field needs a failed shard.
//!
//! The only thing that varies between deployments is where a chunk's
//! receptive-field draws and embedding rows come from — the scorer's
//! [`ChunkSource`]:
//!
//! * the in-process source ([`crate::batch`]) lends the model's own
//!   tables in place under global ids, with fields from the
//!   [`kgag_kg::RfCache`] pair or the live sampler;
//! * every [`ShardFetch`] (the TCP shard pool, [`crate::LocalFetch`],
//!   a [`crate::DrawMemo`] over either) rebuilds the fields from keyed
//!   draws and gathers the rows the chunk touches into compact tables.
//!
//! Single-node scoring is therefore a one-shard deployment whose shard
//! lives in the process. Both sources hand the engine the same draws
//! and bit-copies of the same rows, so every source scores
//! bit-identically (`crates/core/tests/shard_oracle.rs`).

use crate::config::KgagConfig;
use crate::infer::{score_buckets, Chunk, Engine, Stage, StageClock};
use crate::model::ModelParams;
use crate::shard::{ShardError, ShardFetch};
use crate::trainer::{Kgag, SALT_ITEM, SALT_MEMBER};
use kgag_data::GroupStore;
use kgag_kg::FieldDag;
use kgag_tensor::{ParamStore, Tensor};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{RwLock, RwLockReadGuard};

/// Why one case could not be scored. Every scoring front end reports
/// failures per case with this one type; the rest of the batch is
/// answered normally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreError {
    /// No members at all: there is nothing to aggregate.
    EmptyGroup,
    /// A single member is an individual, not a group; score it through
    /// [`Kgag::score_user_items`] instead.
    SingleMember,
    /// Member user id outside the trained user universe.
    UnknownUser(u32),
    /// Candidate item id outside the trained catalog.
    UnknownItem(u32),
    /// Group id not present in the scorer's group table.
    UnknownGroup(u32),
    /// A shard the case's receptive field needs failed.
    Shard(ShardError),
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreError::EmptyGroup => write!(f, "group has no members"),
            ScoreError::SingleMember => write!(f, "single-member group: use individual scoring"),
            ScoreError::UnknownUser(u) => write!(f, "unknown user {u}"),
            ScoreError::UnknownItem(v) => write!(f, "unknown item {v}"),
            ScoreError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            ScoreError::Shard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScoreError {}

/// The scoring API every front end exposes: one result per case,
/// aligned with `cases`; `Ok` rows are aligned with that case's items.
pub trait ScoreCases: Sync {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>>;
}

/// What a remote source needs to rebuild receptive fields from keyed
/// draws: whether the model propagates at all, the field depth, the
/// draws per node and the model's inference salt.
#[derive(Clone, Copy, Debug)]
pub struct FieldPlan {
    use_kg: bool,
    depth: usize,
    k: usize,
    salt: u64,
}

/// Everything one uniform-`L` chunk is scored from: the member- and
/// item-side receptive fields of the chunk's distinct members and items,
/// each node once per level (`None` under the KGAG-KG ablation), those
/// member and item entity ids, and the embedding rows the ids index. The
/// in-process source borrows all of it; remote sources own compact
/// copies under remapped ids.
pub struct ChunkRows<'a> {
    pub(crate) fields: Option<(FieldDag, FieldDag)>,
    pub(crate) members: Cow<'a, [u32]>,
    pub(crate) items: Cow<'a, [u32]>,
    pub(crate) entity: Cow<'a, [f32]>,
    pub(crate) relation: Cow<'a, [f32]>,
}

/// Where a [`Scorer`] gets a chunk's receptive fields and embedding
/// rows. Implemented by the in-process source and, through the blanket
/// impl, by every [`ShardFetch`].
pub trait ChunkSource: Sync {
    /// The fields and rows for one chunk's distinct `members` and
    /// `items` entity ids.
    fn chunk<'a>(
        &'a self,
        plan: &FieldPlan,
        members: &'a [u32],
        items: &'a [u32],
    ) -> Result<ChunkRows<'a>, ShardError>;
}

impl<F: ShardFetch + ?Sized> ChunkSource for F {
    /// Scatter: receptive fields level by level, one draw per distinct
    /// parent, then the union of rows the chunk touches. Gather: remap
    /// every id into the compact row space — the engine only ever
    /// indexes rows, so the renaming is value-neutral.
    fn chunk<'a>(
        &'a self,
        plan: &FieldPlan,
        members: &'a [u32],
        items: &'a [u32],
    ) -> Result<ChunkRows<'a>, ShardError> {
        let fields = if plan.use_kg {
            Some((
                assemble_dag(self, plan, plan.salt ^ SALT_MEMBER, members)?,
                assemble_dag(self, plan, plan.salt ^ SALT_ITEM, items)?,
            ))
        } else {
            None
        };
        let mut ents: Vec<u32> = Vec::new();
        ents.extend_from_slice(members);
        ents.extend_from_slice(items);
        let mut rels: Vec<u32> = Vec::new();
        for dag in fields.iter().flat_map(|(m, i)| [m, i]) {
            // every node past the targets is some node's child
            ents.extend(dag.children.iter().flatten());
            rels.extend(dag.relations.iter().flatten());
        }
        ents.sort_unstable();
        ents.dedup();
        rels.sort_unstable();
        rels.dedup();
        let entity = self.fetch_entity_rows(&ents)?;
        let relation = if rels.is_empty() { Vec::new() } else { self.fetch_relation_rows(&rels)? };
        let emap: HashMap<u32, u32> =
            ents.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
        let rmap: HashMap<u32, u32> =
            rels.iter().enumerate().map(|(i, &r)| (r, i as u32)).collect();
        let rename = |dag: &FieldDag| dag.renamed(|e| emap[&e], |r| rmap[&r]);
        Ok(ChunkRows {
            fields: fields.as_ref().map(|(m, i)| (rename(m), rename(i))),
            members: Cow::Owned(remap(members, &emap)),
            items: Cow::Owned(remap(items, &emap)),
            entity: Cow::Owned(entity),
            relation: Cow::Owned(relation),
        })
    }
}

fn remap(ids: &[u32], map: &HashMap<u32, u32>) -> Vec<u32> {
    ids.iter().map(|id| map[id]).collect()
}

/// Rebuild the distinct-node field of `targets` from keyed draws: level
/// `l + 1` is one `fetch_draws` over level `l`'s distinct nodes.
fn assemble_dag<F: ShardFetch + ?Sized>(
    fetch: &F,
    plan: &FieldPlan,
    salt: u64,
    targets: &[u32],
) -> Result<FieldDag, ShardError> {
    FieldDag::assemble(targets, plan.depth, plan.k, |l, parents| {
        fetch.fetch_draws(salt, l, parents)
    })
}

/// The one scorer (module docs): a group table, the item → entity map,
/// the engine's weights and the chunk cap over a [`ChunkSource`].
/// Detached from the model — it owns clones of the small weights — so a
/// router can drop the trained [`Kgag`] and its big tables entirely.
pub struct Scorer<S> {
    config: KgagConfig,
    /// The trained nominal group size the PI tower is shaped for.
    group_size: usize,
    /// The live group table: only a [`crate::DynamicScorer`] writes it.
    pub(crate) groups: RwLock<GroupStore>,
    /// Entity id of user 0; users occupy a contiguous entity range.
    user_base: u32,
    /// item index → global entity id (the paper's mapping `f`).
    item_entity: Vec<u32>,
    plan: FieldPlan,
    /// Clones of the model's small weights (propagation layers,
    /// attention, interaction mixing) under the model's own parameter
    /// handles; the two embedding tables are zero-row placeholders —
    /// their rows come from the source per chunk.
    store: ParamStore,
    params: ModelParams,
    batch_instances: usize,
    pub(crate) source: S,
}

/// The default instances-per-chunk cap ([`Scorer::with_batch_instances`]):
/// large enough that a shortlist is one chunk, small enough that a
/// chunk's level buffers stay cache-sized and a 200-item request splits
/// into balanced chunks of 50.
const DEFAULT_BATCH_INSTANCES: usize = 64;

impl<S> Scorer<S> {
    /// A scorer for `model`'s bound groups over `source`, with the
    /// default chunk cap of 64 instances.
    pub fn new(model: &Kgag, source: S) -> Self {
        let p = model.params();
        let ckg = model.collaborative_kg();
        let d = model.config().dim;
        // re-register every parameter in the model's order so the
        // model's handles index this store too; the big tables stay
        // with the source
        let mut store = ParamStore::new();
        for (id, name, t) in model.store().iter() {
            let value = if id == p.prop.entity_emb || id == p.prop.relation_emb {
                Tensor::zeros(0, d)
            } else {
                t.clone()
            };
            store.register(name, value);
        }
        Scorer {
            config: model.config().clone(),
            group_size: model.group_size(),
            groups: RwLock::new(model.group_store()),
            user_base: ckg.num_base_entities(),
            item_entity: ckg.item_entities().iter().map(|e| e.0).collect(),
            plan: FieldPlan {
                use_kg: model.config().use_kg,
                depth: model.config().layers,
                k: model.eval_sampler().k(),
                salt: model.eval_salt(),
            },
            store,
            params: p.clone(),
            batch_instances: DEFAULT_BATCH_INSTANCES,
            source,
        }
    }

    /// Override the instances-per-chunk cap. Any positive value scores
    /// bit-identically; the size trades per-chunk bookkeeping and
    /// sharing against per-chunk buffer size — the engine propagates
    /// each receptive-field node once per chunk, so the cap also bounds
    /// how many instances share one.
    ///
    /// Each roster-size bucket of `n` instances is cut into
    /// `ceil(n / cap)` balanced chunks at any pool width, so a request
    /// of up to `cap` candidates is one chunk and 200 candidates under
    /// the default cap are 4 chunks of 50.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn with_batch_instances(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_instances = n;
        self
    }

    /// The draw and row source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Neighbors drawn per node (`K`) — part of the model card a remote
    /// source must agree with.
    pub fn sampler_k(&self) -> usize {
        self.plan.k
    }

    /// The live group table, read-locked. Copy out what you need: a
    /// mutation waits for every guard to drop.
    pub fn groups(&self) -> RwLockReadGuard<'_, GroupStore> {
        self.groups.read().expect("group table lock poisoned")
    }

    /// Check every case and resolve its members to entity ids — the
    /// bounds check and member lookup of every scoring front end. One
    /// read guard covers the batch, so it sees all of a mutation or none
    /// of it, and it drops before scoring, so a mutation never waits on
    /// chunk assembly or a shard round trip.
    fn resolve(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<u32>, ScoreError>> {
        let groups = self.groups();
        let resolve = |&(group, ref items): &(u32, Vec<u32>)| {
            let members = groups.members(group).map_err(|_| ScoreError::UnknownGroup(group))?;
            if let Some(&v) = items.iter().find(|&&v| v as usize >= self.item_entity.len()) {
                return Err(ScoreError::UnknownItem(v));
            }
            Ok(members.iter().map(|&u| self.user_base + u).collect())
        };
        cases.iter().map(resolve).collect()
    }
}

impl<S: ChunkSource> Scorer<S> {
    /// One pass of the shared scoring loop over resolved `(members, items)`
    /// cases: member entity ids and item ids.
    pub(crate) fn score_joint(
        &self,
        cases: &[(&[u32], &[u32])],
    ) -> Vec<Result<Vec<f32>, ShardError>> {
        score_buckets(
            self.batch_instances,
            cases,
            |v| self.item_entity[v as usize],
            |chunk| {
                let mut clock = StageClock::start();
                let rows = self.source.chunk(&self.plan, &chunk.members, &chunk.items)?;
                clock.lap(Stage::Fields);
                let scores = self.score_rows(chunk, &rows, &mut clock);
                clock.flush();
                Ok(scores)
            },
        )
    }

    /// The engine's scores of `chunk` over the fields and rows its source
    /// gave.
    fn score_rows(&self, chunk: &Chunk, rows: &ChunkRows<'_>, clock: &mut StageClock) -> Vec<f32> {
        let engine = Engine::new(
            &self.config,
            self.group_size,
            &self.store,
            &self.params,
            &rows.entity,
            &rows.relation,
        );
        let fields = rows.fields.as_ref().map(|(m, i)| (m, i));
        engine.score_chunk(fields, chunk, &rows.members, &rows.items, clock)
    }
}

impl<S: ChunkSource> ScoreCases for Scorer<S> {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        let members = self.resolve(cases);
        let mut out: Vec<Result<Vec<f32>, ScoreError>> =
            members.iter().map(|m| m.as_ref().map(|_| Vec::new()).map_err(|e| *e)).collect();
        let mut valid = Vec::with_capacity(cases.len());
        let mut batch: Vec<(&[u32], &[u32])> = Vec::with_capacity(cases.len());
        for (ci, (m, (_, items))) in members.iter().zip(cases).enumerate() {
            if let Ok(m) = m {
                valid.push(ci);
                batch.push((m, items));
            }
        }
        if kgag_obs::enabled() {
            let total: usize = batch.iter().map(|(_, items)| items.len()).sum();
            kgag_obs::counter("infer.batched_items_scored").add(total as u64);
        }
        let mut scored = self.score_joint(&batch);
        // a failed chunk poisons every case it contained — re-score
        // those cases one at a time so only the ones that actually need
        // the failed shard end up with errors (bit-identical either way:
        // chunking is value-neutral)
        for (bi, result) in scored.iter_mut().enumerate() {
            if result.is_err() {
                *result = self.score_joint(&batch[bi..=bi]).pop().expect("one case in, one out");
            }
        }
        for (ci, result) in valid.into_iter().zip(scored) {
            out[ci] = result.map_err(ScoreError::Shard);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kgag, KgagConfig};
    use kgag_data::movielens::{movielens_rand, MovieLensConfig, Scale};
    use kgag_data::split::split_dataset;
    use kgag_tensor::pool::with_threads;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// This thread's allocation count while a test counts.
        static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// The system allocator, counting each thread's allocations and
    /// reallocations while that thread counts.
    struct Counting;

    fn count() {
        // a thread past its locals' teardown counts nothing
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
    }

    // SAFETY: every call is forwarded to `System` unchanged; counting
    // touches only a const-initialised thread local, which allocates
    // nothing
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller's contract is `System`'s
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller's contract is `System`'s
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: the caller's contract is `System`'s
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's contract is `System`'s
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// The allocations `f` makes on this thread.
    fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
        ALLOCATIONS.with(|n| n.set(Some(0)));
        let r = f();
        (r, ALLOCATIONS.with(|n| n.replace(None)).expect("counting"))
    }

    /// The engine's buffers are this thread's workspace (DESIGN.md §14):
    /// once a chunk of a shape has sized them, the next chunk of that
    /// shape allocates nothing but the scores it returns — on the
    /// in-process scorer, at one thread, both sides propagating.
    #[test]
    fn a_second_chunk_of_a_shape_allocates_only_its_scores() {
        let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 7);
        let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 1, ..Default::default() });
        with_threads(1, || model.fit(&split));
        let scorer = model.batch_scorer();
        let members: Vec<u32> = {
            let groups = scorer.groups();
            let members = groups.members(0).expect("group 0");
            members.iter().map(|&u| scorer.user_base + u).collect()
        };
        let l = members.len();
        // two requests of one group and 50 items each, the served chunk
        let requests: Vec<Vec<u32>> = [0, 50]
            .iter()
            .map(|&from| (from..from + 50).map(|v| scorer.item_entity[v]).collect())
            .collect();
        with_threads(1, || {
            for items in &requests {
                let cases = [(&members[..], &items[..])];
                let instances: Vec<(u32, u32)> = items.iter().map(|&v| (0, v)).collect();
                let chunk = Chunk::new(&cases, &instances, l);
                let rows = scorer
                    .source
                    .chunk(&scorer.plan, &chunk.members, &chunk.items)
                    .expect("in process");
                assert!(rows.fields.is_some(), "both sides propagate");
                let score = || scorer.score_rows(&chunk, &rows, &mut StageClock::start());
                let (first, _) = allocations(score);
                let (second, n) = allocations(score);
                assert_eq!(
                    second.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    first.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(n, 1, "the scores are the one allocation");
            }
        });
    }
}
