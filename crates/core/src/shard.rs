//! Scatter-gather scoring over row-partitioned shards.
//!
//! A shard ([`kgag_kg::ShardState`]) owns a contiguous slice of the
//! entity and relation embedding tables plus its entities' CSR rows, and
//! answers exactly two query shapes: keyed neighbor draws and embedding
//! row gathers — the [`ShardFetch`] seam. The router is the one
//! [`crate::Scorer`] over a [`ShardFetch`]: it owns everything else (the
//! small layer and attention weights, the group table, the item→entity
//! mapping and the model config), turns a batch of `(group,
//! candidates)` cases into shard queries, and scores the gathered rows
//! **locally** through the very same engine a single node uses.
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
//!    inference engine ([`crate::infer`]). Each output row is a pure
//!    function of its own instance's inputs, so the compact renaming and
//!    any chunking are value-neutral.
//!
//! ## Failure semantics
//!
//! [`ShardFetch`] implementations surface peer failures as typed
//! [`ShardError`]s. A failed chunk poisons only the cases it contained:
//! the scorer retries each of those cases in isolation so a request is
//! answered with [`crate::ScoreError::Shard`] *only if its own receptive
//! field needs the dead shard* — and the retry is bit-identical to the
//! joint pass (chunking is value-neutral). The router never panics on a
//! peer failure.

use crate::trainer::Kgag;
use kgag_kg::{Partition, ShardState};
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

/// A typed per-shard failure — the only error a [`ShardFetch`] produces
/// (it never panics on peer failure).
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

impl<F: ShardFetch + ?Sized> ShardFetch for &F {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        (**self).fetch_draws(salt, level, entities)
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        (**self).fetch_entity_rows(ids)
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        (**self).fetch_relation_rows(ids)
    }
}

/// An in-process [`ShardFetch`] over a full set of [`ShardState`]s —
/// the partitioning semantics without the network. The equivalence
/// suite drives the scorer through this to prove partitioning itself is
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

/// Keyed draws already fetched, by `(salt, level, entity)`.
type Draws = HashMap<(u64, u32, u32), (Box<[u32]>, Box<[u32]>)>;

/// A [`ShardFetch`] that memoizes another's keyed draws — the remote
/// analogue of [`kgag_kg::RfCache`], filled lazily from shard replies
/// instead of eagerly from the local graph. Both return the identical
/// keyed draws, so the memo is bit-neutral: only never-seen entities go
/// over the wire. Rows are never memoized.
pub struct DrawMemo<F> {
    inner: F,
    draws: Mutex<Draws>,
}

impl<F> DrawMemo<F> {
    /// Wrap `inner`, memoizing its draws. The equivalence suites compare
    /// against a scorer over the bare `inner`.
    pub fn new(inner: F) -> Self {
        DrawMemo { inner, draws: Mutex::new(HashMap::new()) }
    }

    /// The wrapped fetch.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: ShardFetch> ShardFetch for DrawMemo<F> {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        parents: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        let key = |p: u32| (salt, level as u32, p);
        let mut missing: Vec<u32> = {
            let guard = self.draws.lock().expect("draw memo poisoned");
            parents.iter().copied().filter(|&p| !guard.contains_key(&key(p))).collect()
        };
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            // fetch outside the lock so slow peers don't serialize the
            // whole pool; concurrent chunks may race on the same entity
            // but insert identical draws (they're keyed), so either wins
            let (ch, rl) = self.inner.fetch_draws(salt, level, &missing)?;
            let k = ch.len() / missing.len();
            let mut guard = self.draws.lock().expect("draw memo poisoned");
            for (i, &p) in missing.iter().enumerate() {
                guard.entry(key(p)).or_insert_with(|| {
                    (ch[i * k..(i + 1) * k].into(), rl[i * k..(i + 1) * k].into())
                });
            }
        }
        let guard = self.draws.lock().expect("draw memo poisoned");
        let mut out_e = Vec::new();
        let mut out_r = Vec::new();
        for &p in parents {
            let (ch, rl) = &guard[&key(p)];
            out_e.extend_from_slice(ch);
            out_r.extend_from_slice(rl);
        }
        Ok((out_e, out_r))
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.inner.fetch_entity_rows(ids)
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.inner.fetch_relation_rows(ids)
    }
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
}
