//! Memoized fixed-`K` receptive fields for batched inference.
//!
//! [`NeighborSampler::receptive_field`] keys every draw on
//! `(seed, salt, entity, level)` only — never the batch position — so
//! for a *fixed* salt the `K` children of an entity at a given level are
//! the same no matter which batch asks for them. [`RfCache`] exploits
//! that: it runs [`sample_one`] once for every `(entity, level)` pair up
//! front and stores the results in flat per-level tables, after which
//! assembling the receptive field of any target batch
//! ([`RfCache::field_dag`]) is pure table lookup — no RNG, no graph
//! walks, no per-candidate resampling.
//!
//! The cache is tied to one `(sampler seed, salt, depth)` triple — in
//! serving terms, one checkpoint's evaluation salt. Build it once after
//! loading a checkpoint and share it read-only across threads (all
//! accessors take `&self`). Bit-identity with live sampling is
//! guaranteed by construction (both paths run the same `sample_one` on
//! the same RNG base) and enforced by the property tests below and by
//! the cross-crate oracle suite in `crates/core/tests/batched_oracle.rs`.

use crate::field_dag::FieldDag;
use crate::graph::KgGraph;
use crate::sampler::{sample_one, NeighborSampler};
use kgag_tensor::pool;
use std::convert::Infallible;

/// One level's memoized draws: entity `e`'s `k` sampled children and
/// edge relations live at `children[e*k .. (e+1)*k]` (respectively
/// `relations`).
#[derive(Clone, Debug)]
struct CacheLevel {
    children: Vec<u32>,
    relations: Vec<u32>,
}

/// Precomputed fixed-`K` receptive-field tables for every entity of a
/// graph, at a fixed sampler seed and salt.
///
/// Built once and read-only: entity `e`'s row at each level depends
/// solely on `(seed, salt, e, level)` and `e`'s own adjacency, and the
/// graph a checkpoint serves from never changes, so no row can go stale.
/// A different graph needs a new cache.
#[derive(Clone, Debug)]
pub struct RfCache {
    k: usize,
    depth: usize,
    salt: u64,
    num_entities: usize,
    /// `levels[l]` holds the draws parents make at level `l` (edges from
    /// level `l` nodes to level `l+1` nodes); `depth` entries.
    levels: Vec<CacheLevel>,
}

impl RfCache {
    /// Build the full per-entity tables for `depth` propagation hops.
    ///
    /// Cost is `O(num_entities · depth · K)` — paid once per checkpoint,
    /// parallelised over entities via the pool with bit-identical
    /// results at any `KGAG_THREADS` (disjoint output slots; the
    /// per-entity RNG never sees thread structure).
    pub fn build(sampler: &NeighborSampler, graph: &KgGraph, depth: usize, salt: u64) -> Self {
        let k = sampler.k();
        let n = graph.num_entities();
        let base = sampler.field_base(salt);
        let mut levels = Vec::with_capacity(depth);
        for l in 0..depth {
            let mut children = vec![0u32; n * k];
            let mut relations = vec![0u32; n * k];
            let band_entities = n.div_ceil(pool::num_threads()).max(1);
            pool::scope(|s| {
                for (band, (e_band, r_band)) in children
                    .chunks_mut(band_entities * k)
                    .zip(relations.chunks_mut(band_entities * k))
                    .enumerate()
                {
                    s.spawn(move || {
                        for (i, (e_slot, r_slot)) in
                            e_band.chunks_mut(k).zip(r_band.chunks_mut(k)).enumerate()
                        {
                            let entity = (band * band_entities + i) as u32;
                            sample_one(graph, base, l, entity, k, e_slot, r_slot);
                        }
                    });
                }
            });
            levels.push(CacheLevel { children, relations });
        }
        RfCache { k, depth, salt, num_entities: n, levels }
    }

    /// Neighbors memoized per node.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Propagation hops the tables cover.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The salt the tables were drawn under — the cache key alongside
    /// the sampler seed; a checkpoint served under a different salt
    /// needs a rebuild.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Number of entities covered (targets must be `< num_entities`).
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Approximate resident size of the memoized tables in bytes —
    /// `2 · 4 · num_entities · K` per level (children + relations). What
    /// a serving process pays to keep one checkpoint's receptive fields
    /// hot; the `kgag serve` startup log reports it.
    pub fn approx_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                std::mem::size_of_val(l.children.as_slice())
                    + std::mem::size_of_val(l.relations.as_slice())
            })
            .sum()
    }

    /// The distinct-node field of `targets` from the tables — what the
    /// in-process chunk source hands the inference engine. Bit-identical
    /// to the field assembled from `sampler.draws(graph, l, parents,
    /// salt)` for the `(sampler, graph, depth, salt)` this cache was
    /// built from.
    pub fn field_dag(&self, targets: &[u32]) -> FieldDag {
        let draws = |l: usize, parents: &[u32]| Ok::<_, Infallible>(self.draws(l, parents));
        let Ok(dag) = FieldDag::assemble(targets, self.depth, self.k, draws);
        dag
    }

    /// One level of memoized draws: the `k` children and edge relations
    /// of every parent at level `l`, parent-major — bit-identical to
    /// `sampler.draws(graph, l, parents, salt)`.
    pub fn draws(&self, l: usize, parents: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let k = self.k;
        let level = &self.levels[l];
        let mut children = Vec::with_capacity(parents.len() * k);
        let mut relations = Vec::with_capacity(parents.len() * k);
        for &p in parents {
            let p = p as usize;
            children.extend_from_slice(&level.children[p * k..(p + 1) * k]);
            relations.extend_from_slice(&level.relations[p * k..(p + 1) * k]);
        }
        (children, relations)
    }

    /// One entity's memoized row at one level — `(children, relations)`.
    /// Test hook for byte-level comparisons against other draw sources.
    pub fn entry(&self, level: usize, entity: u32) -> (&[u32], &[u32]) {
        let e = entity as usize;
        let lv = &self.levels[level];
        (&lv.children[e * self.k..(e + 1) * self.k], &lv.relations[e * self.k..(e + 1) * self.k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::TripleStore;
    use kgag_tensor::pool::with_threads;
    use kgag_tensor::rng::SplitMix64;

    /// 0-1-2-3 chain plus a hub 4 connected to everything (the sampler
    /// test fixture).
    fn chain_graph() -> KgGraph {
        let mut s = TripleStore::with_capacity(5, 2);
        s.add_raw(0, 0, 1);
        s.add_raw(1, 0, 2);
        s.add_raw(2, 0, 3);
        for e in 0..4 {
            s.add_raw(4, 1, e);
        }
        KgGraph::from_store(&s)
    }

    /// A hub with 40 interact-like edges and 4 attribute edges, so the
    /// stratified branch of `sample_one` is exercised through the cache.
    fn hub_graph() -> KgGraph {
        let mut s = TripleStore::with_capacity(50, 2);
        for u in 1..=40 {
            s.add_raw(0, 0, u);
        }
        for a in 41..=44 {
            s.add_raw(0, 1, a);
        }
        KgGraph::from_store(&s)
    }

    /// The field of `targets` drawn live, as the cache's was built.
    fn live_field(
        sampler: &NeighborSampler,
        graph: &KgGraph,
        targets: &[u32],
        depth: usize,
        salt: u64,
    ) -> FieldDag {
        let draws =
            |l: usize, parents: &[u32]| Ok::<_, Infallible>(sampler.draws(graph, l, parents, salt));
        let Ok(dag) = FieldDag::assemble(targets, depth, sampler.k(), draws);
        dag
    }

    #[test]
    fn cached_field_matches_live_sampler_exactly() {
        for (graph, targets) in
            [(chain_graph(), vec![0u32, 2, 4, 2]), (hub_graph(), vec![0u32, 7, 41, 0])]
        {
            for salt in [0u64, 1, 0xdead_beef] {
                let sampler = NeighborSampler::new(3, 42);
                let cache = RfCache::build(&sampler, &graph, 2, salt);
                let live = live_field(&sampler, &graph, &targets, 2, salt);
                assert_eq!(live, cache.field_dag(&targets), "salt {salt}");
            }
        }
    }

    #[test]
    fn random_batches_match_live_sampler() {
        let graph = hub_graph();
        let sampler = NeighborSampler::new(4, 7);
        let cache = RfCache::build(&sampler, &graph, 3, 0x5a17);
        let n = graph.num_entities() as u64;
        let mut rng = SplitMix64::new(11);
        for trial in 0..64 {
            let len = 1 + (trial % 9) as usize;
            let targets: Vec<u32> = (0..len).map(|_| (rng.next_u64() % n) as u32).collect();
            let live = live_field(&sampler, &graph, &targets, 3, 0x5a17);
            assert_eq!(live, cache.field_dag(&targets), "trial {trial}: {targets:?}");
        }
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let graph = hub_graph();
        let sampler = NeighborSampler::new(4, 3);
        let reference = with_threads(1, || RfCache::build(&sampler, &graph, 2, 9));
        for threads in [2, 3, 4] {
            let cache = with_threads(threads, || RfCache::build(&sampler, &graph, 2, 9));
            for (l, (a, b)) in reference.levels.iter().zip(&cache.levels).enumerate() {
                assert_eq!(a.children, b.children, "level {l} at {threads} threads");
                assert_eq!(a.relations, b.relations, "level {l} at {threads} threads");
            }
        }
    }

    #[test]
    fn approx_bytes_counts_both_tables_per_level() {
        let graph = chain_graph();
        let sampler = NeighborSampler::new(3, 1);
        let cache = RfCache::build(&sampler, &graph, 2, 0);
        // 2 levels × 2 tables × n·k u32s
        assert_eq!(cache.approx_bytes(), 2 * 2 * graph.num_entities() * 3 * 4);
    }

    #[test]
    fn depth_zero_cache_draws_nothing() {
        let graph = chain_graph();
        let sampler = NeighborSampler::new(2, 1);
        let cache = RfCache::build(&sampler, &graph, 0, 0);
        let dag = cache.field_dag(&[3, 2]);
        assert_eq!((dag.depth, dag.nodes.len(), dag.children.len()), (0, 0, 0));
    }
}
