//! Fixed-size neighbor sampling and receptive fields.
//!
//! The propagation block treats the computation of one entity's H-layer
//! representation as a tree (§III-C time-complexity analysis): the root is
//! the target entity, and every node has exactly `K` sampled children.
//! [`ReceptiveField`] materialises that tree for a *batch* of targets as
//! flat per-level index arrays laid out so that level `l` holds
//! `batch · K^l` entities, block-major by instance — exactly the layout
//! the grouped tape ops (`softmax_groups`, `group_weighted_sum`,
//! `repeat_rows`) expect.
//!
//! Sampling is with replacement when an entity has fewer than `K`
//! neighbors (the KGCN convention), and deterministic given the sampler
//! seed and the batch content.

use crate::graph::KgGraph;
use kgag_tensor::pool;
use kgag_tensor::rng::SplitMix64;

/// Layered receptive field for a batch of target entities, one tree
/// per target — the form the training tape consumes. Batched inference
/// assembles the same draws over a chunk's distinct targets with each
/// node once per level instead ([`crate::FieldDag`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ReceptiveField {
    /// `entities[l]` has `batch · K^l` entity ids; level 0 is the targets.
    pub entities: Vec<Vec<u32>>,
    /// `relations[l]` has `batch · K^(l+1)` relation ids: the edge labels
    /// between level `l` parents and level `l+1` children.
    pub relations: Vec<Vec<u32>>,
    /// Neighbors sampled per node.
    pub k: usize,
    /// Number of propagation hops (levels beyond the targets).
    pub depth: usize,
}

impl ReceptiveField {
    /// Number of target entities at the root level.
    pub fn batch(&self) -> usize {
        self.entities[0].len()
    }
}

/// Samples fixed-`K` receptive fields from a [`KgGraph`].
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    k: usize,
    seed: u64,
}

impl NeighborSampler {
    /// A sampler drawing `k` neighbors per node.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "neighbor sample size must be positive");
        NeighborSampler { k, seed }
    }

    /// Neighbors sampled per node.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-field RNG base for a given `salt` — the quantity every
    /// per-`(entity, level)` draw is keyed on. Shared with
    /// [`crate::RfCache`] so cached fields reproduce live sampling
    /// bit-for-bit.
    pub(crate) fn field_base(&self, salt: u64) -> u64 {
        self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Sample an `depth`-level receptive field for `targets`.
    ///
    /// Deterministic: the same `(seed, salt, targets)` always produces
    /// the same field. Pass a fresh `salt` (e.g. the training step) to
    /// resample across epochs.
    /// The draw for a given `(entity, level)` pair depends only on the
    /// sampler seed, the salt, the entity and the level — *not* on the
    /// entity's position in the batch. Repeated targets therefore get
    /// identical subtrees, which makes (a) the positive and negative
    /// branches of a pairwise loss see the same member representations
    /// (lower-variance margins) and (b) every candidate item of an
    /// evaluation ranking see the same group representation inputs
    /// (lower-variance rankings).
    pub fn receptive_field(
        &self,
        graph: &KgGraph,
        targets: &[u32],
        depth: usize,
        salt: u64,
    ) -> ReceptiveField {
        let mut entities = Vec::with_capacity(depth + 1);
        let mut relations = Vec::with_capacity(depth);
        entities.push(targets.to_vec());
        for l in 0..depth {
            let (next_e, next_r) = self.draws(graph, l, &entities[l], salt);
            entities.push(next_e);
            relations.push(next_r);
        }
        if kgag_obs::enabled() {
            sampler_metrics().record(&entities);
        }
        ReceptiveField { entities, relations, k: self.k, depth }
    }

    /// One level of draws: the `k` sampled children and edge relations
    /// of every parent at level `l` under `salt`, parent-major — the
    /// per-level step of [`NeighborSampler::receptive_field`].
    pub fn draws(
        &self,
        graph: &KgGraph,
        l: usize,
        parents: &[u32],
        salt: u64,
    ) -> (Vec<u32>, Vec<u32>) {
        let base = self.field_base(salt);
        let k = self.k;
        // Every parent emits exactly `k` (entity, relation) pairs into
        // its own preallocated slot, and the per-parent RNG is seeded
        // from (base, parent, level) only — never the batch position —
        // so banding parents across threads is bit-identical to the
        // sequential loop.
        let mut next_e = vec![0u32; parents.len() * k];
        let mut next_r = vec![0u32; parents.len() * k];
        let band_parents = parents.len().div_ceil(pool::num_threads()).max(1);
        pool::scope(|s| {
            for ((e_band, r_band), p_band) in next_e
                .chunks_mut(band_parents * k)
                .zip(next_r.chunks_mut(band_parents * k))
                .zip(parents.chunks(band_parents))
            {
                s.spawn(move || {
                    for (pi, &p) in p_band.iter().enumerate() {
                        sample_one(
                            graph,
                            base,
                            l,
                            p,
                            k,
                            &mut e_band[pi * k..(pi + 1) * k],
                            &mut r_band[pi * k..(pi + 1) * k],
                        );
                    }
                });
            }
        });
        (next_e, next_r)
    }
}

/// Cached metric handles for the sampler hot path (one intern per
/// process; only touched when telemetry is on).
struct SamplerMetrics {
    fields: std::sync::Arc<kgag_obs::Counter>,
    nodes: std::sync::Arc<kgag_obs::Counter>,
}

impl SamplerMetrics {
    fn record(&self, entities: &[Vec<u32>]) {
        self.fields.add(1);
        let sampled: usize = entities.iter().skip(1).map(Vec::len).sum();
        self.nodes.add(sampled as u64);
    }
}

fn sampler_metrics() -> &'static SamplerMetrics {
    static METRICS: std::sync::OnceLock<SamplerMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SamplerMetrics {
        fields: kgag_obs::counter("kg.receptive_fields"),
        nodes: kgag_obs::counter("kg.sampled_nodes"),
    })
}

/// Fill one parent's `k` neighbor slots (the per-parent body of
/// [`NeighborSampler::receptive_field`], shared by the banded live
/// path and the [`crate::RfCache`] builder).
pub(crate) fn sample_one(
    graph: &KgGraph,
    base: u64,
    l: usize,
    p: u32,
    k: usize,
    out_e: &mut [u32],
    out_r: &mut [u32],
) {
    let (nbrs, rels) = graph.neighbor_slices(p);
    sample_slices(base, l, p, k, nbrs, rels, out_e, out_r);
}

/// The draw itself, given the parent's adjacency slices directly.
///
/// Split out of [`sample_one`] so a [`crate::partition::ShardState`] —
/// which holds only its own entity range's CSR rows, not a whole
/// [`KgGraph`] — produces bit-identical draws: the RNG is keyed on
/// `(base, parent, level)` and the adjacency content only, never on
/// which structure the slices came from.
pub(crate) fn sample_slices(
    base: u64,
    l: usize,
    p: u32,
    k: usize,
    nbrs: &[u32],
    rels: &[u32],
    out_e: &mut [u32],
    out_r: &mut [u32],
) {
    let mut rng = SplitMix64::new(
        base ^ (p as u64).wrapping_mul(0xd6e8_feb8_6659_fd93) ^ ((l as u64 + 1) << 56),
    );
    debug_assert!(!nbrs.is_empty(), "graph invariant: no isolated nodes");
    if nbrs.len() <= k {
        if nbrs.len() == k {
            out_e.copy_from_slice(nbrs);
            out_r.copy_from_slice(rels);
        } else {
            // with replacement (KGCN convention for small degrees)
            for i in 0..k {
                let idx = rng.next_below(nbrs.len());
                out_e[i] = nbrs[idx];
                out_r[i] = rels[idx];
            }
        }
    } else {
        sample_stratified(nbrs, rels, k, &mut rng, out_e, out_r);
    }
}

/// Relation-stratified sampling without replacement.
///
/// In a collaborative KG the edge lists of item nodes are dominated by
/// `Interact` edges (hundreds of raters vs a handful of attribute
/// facts). A uniform K-sample would almost never include an attribute
/// edge, so the propagated item representation degenerates into a
/// mixture of random user vectors. Stratifying by relation type —
/// round-robin over the distinct relations of the node, uniform within
/// each — guarantees every relation present is represented in the
/// sample while keeping the draw unbiased within relations.
fn sample_stratified(
    nbrs: &[u32],
    rels: &[u32],
    k: usize,
    rng: &mut SplitMix64,
    out_e: &mut [u32],
    out_r: &mut [u32],
) {
    // bucket edge positions by relation id (small, node-local)
    let mut buckets: Vec<(u32, Vec<usize>)> = Vec::new();
    for (idx, &r) in rels.iter().enumerate() {
        match buckets.iter_mut().find(|(br, _)| *br == r) {
            Some((_, v)) => v.push(idx),
            None => buckets.push((r, vec![idx])),
        }
    }
    // shuffle within each bucket, then round-robin across buckets
    for (_, v) in buckets.iter_mut() {
        rng.shuffle(v);
    }
    rng.shuffle(&mut buckets);
    let mut taken = 0usize;
    let mut round = 0usize;
    while taken < k {
        let mut advanced = false;
        for (_, v) in &buckets {
            if taken == k {
                break;
            }
            if let Some(&idx) = v.get(round) {
                out_e[taken] = nbrs[idx];
                out_r[taken] = rels[idx];
                taken += 1;
                advanced = true;
            }
        }
        if !advanced {
            // all buckets exhausted (cannot happen when nbrs.len() > k,
            // but keep the loop total)
            break;
        }
        round += 1;
    }
    debug_assert_eq!(taken, k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::TripleStore;

    fn chain_graph() -> KgGraph {
        // 0 - 1 - 2 - 3 chain plus a hub 4 connected to everything
        let mut s = TripleStore::with_capacity(5, 2);
        s.add_raw(0, 0, 1);
        s.add_raw(1, 0, 2);
        s.add_raw(2, 0, 3);
        for e in 0..4 {
            s.add_raw(4, 1, e);
        }
        KgGraph::from_store(&s)
    }

    #[test]
    fn level_sizes_grow_by_k() {
        let g = chain_graph();
        let sampler = NeighborSampler::new(3, 7);
        let rf = sampler.receptive_field(&g, &[0, 1], 2, 0);
        assert_eq!(rf.batch(), 2);
        assert_eq!(rf.entities[0].len(), 2);
        assert_eq!(rf.entities[1].len(), 6);
        assert_eq!(rf.entities[2].len(), 18);
        assert_eq!(rf.relations[0].len(), 6);
        assert_eq!(rf.relations[1].len(), 18);
    }

    #[test]
    fn sampled_neighbors_are_real_neighbors() {
        let g = chain_graph();
        let sampler = NeighborSampler::new(2, 13);
        let rf = sampler.receptive_field(&g, &[4], 1, 0);
        for (i, &child) in rf.entities[1].iter().enumerate() {
            let rel = rf.relations[0][i];
            let (nbrs, rels) = g.neighbor_slices(4);
            let ok = nbrs.iter().zip(rels).any(|(&n, &r)| n == child && r == rel);
            assert!(ok, "sampled edge 4→{child} (rel {rel}) not in graph");
        }
    }

    #[test]
    fn deterministic_given_seed_and_salt() {
        let g = chain_graph();
        let s = NeighborSampler::new(4, 99);
        let a = s.receptive_field(&g, &[0, 2, 4], 2, 5);
        let b = s.receptive_field(&g, &[0, 2, 4], 2, 5);
        assert_eq!(a, b);
        let c = s.receptive_field(&g, &[0, 2, 4], 2, 6);
        assert_ne!(a, c, "different salt should resample");
    }

    #[test]
    fn replacement_when_degree_below_k() {
        let g = chain_graph();
        // entity 0 has degree 2 (neighbor 1 + inverse edge from hub 4)
        let s = NeighborSampler::new(8, 3);
        let rf = s.receptive_field(&g, &[0], 1, 0);
        assert_eq!(rf.entities[1].len(), 8);
        for &e in &rf.entities[1] {
            assert!(e == 1 || e == 4, "unexpected neighbor {e}");
        }
    }

    #[test]
    fn without_replacement_when_degree_at_least_k() {
        let g = chain_graph();
        // hub 4 has degree 4; sampling 4 must return all distinct
        let s = NeighborSampler::new(4, 17);
        let rf = s.receptive_field(&g, &[4], 1, 0);
        let mut got = rf.entities[1].clone();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn depth_zero_is_just_targets() {
        let g = chain_graph();
        let s = NeighborSampler::new(2, 1);
        let rf = s.receptive_field(&g, &[3, 3], 0, 0);
        assert_eq!(rf.entities.len(), 1);
        assert!(rf.relations.is_empty());
        assert_eq!(rf.entities[0], vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        NeighborSampler::new(0, 0);
    }
}

#[cfg(test)]
mod stratified_tests {
    use super::*;
    use crate::triple::TripleStore;

    /// A hub entity with 40 `Interact`-style edges and 4 attribute edges.
    fn hub_graph() -> KgGraph {
        let mut s = TripleStore::with_capacity(50, 2);
        for u in 1..=40 {
            s.add_raw(0, 0, u); // relation 0: interact-like
        }
        for a in 41..=44 {
            s.add_raw(0, 1, a); // relation 1: attribute-like
        }
        KgGraph::from_store(&s)
    }

    #[test]
    fn stratified_sampling_covers_minority_relations() {
        let g = hub_graph();
        let sampler = NeighborSampler::new(4, 5);
        // with uniform sampling, P(no attribute edge in 4 draws) ≈ 68%;
        // stratified sampling must include both relations every time
        for salt in 0..20 {
            let rf = sampler.receptive_field(&g, &[0], 1, salt);
            let rels: std::collections::HashSet<u32> = rf.relations[0].iter().copied().collect();
            assert!(rels.len() >= 2, "salt {salt}: sample covered only relations {rels:?}");
        }
    }

    #[test]
    fn stratified_sampling_has_no_duplicates_when_degree_allows() {
        let g = hub_graph();
        let sampler = NeighborSampler::new(8, 9);
        let rf = sampler.receptive_field(&g, &[0], 1, 3);
        let mut seen = rf.entities[1].clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "duplicates in stratified sample");
    }
}
