//! Receptive fields in distinct-node form, for batched inference.
//!
//! A [`crate::ReceptiveField`] is a tree per target: level `l` holds
//! `targets · K^l` positions. Every draw is keyed on `(seed, salt,
//! entity, level)` only, so two positions that hold the same entity at
//! the same level have identical subtrees. [`FieldDag`] stores each such
//! node once: level `l` lists its distinct entities, and each node's `K`
//! sampled edges name their children by index into the next level. The
//! inference engine propagates over this form, so a node shared by
//! several targets (members of one group reaching the same item, items
//! with common raters) is drawn, fetched and computed once per chunk.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by ids or short id lists, for the per-chunk dedups of
/// batched inference: a chunk's few hundred lookups would spend more on
/// SipHash than on the work. Its keys are table ids of the process, and a
/// chunk holds at most its cap of instances, so a run of colliding ids
/// costs a bounded slowdown, never a wrong answer.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The multiplicative hash behind [`IdMap`] (the rotate-xor-multiply
/// step of rustc's `FxHasher`).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.add(x as u64);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

/// The receptive field of a set of distinct targets, each node once.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDag {
    /// `nodes[l]` for `l < depth`: the distinct entities at level `l`,
    /// in first-seen order; level 0 holds the targets as given.
    pub nodes: Vec<Vec<u32>>,
    /// `children[l]`: the `k` sampled child entities of every node of
    /// `nodes[l]`, node-major (the deepest level's children are leaves,
    /// read only as embedding rows).
    pub children: Vec<Vec<u32>>,
    /// `relations[l]`: the edge relation of every entry of `children[l]`.
    pub relations: Vec<Vec<u32>>,
    /// `child_nodes[l]` for `l + 1 < depth`: the index in `nodes[l + 1]`
    /// of every entry of `children[l]`.
    pub child_nodes: Vec<Vec<u32>>,
    /// Neighbors sampled per node.
    pub k: usize,
    /// Number of propagation hops (levels beyond the targets).
    pub depth: usize,
}

impl FieldDag {
    /// Assemble the field of `targets` level by level: `draws(l,
    /// parents)` returns the `k` children and edge relations of every
    /// parent at level `l`, parent-major — and is asked once per
    /// distinct parent. Targets should be distinct; a repeated target
    /// is kept as a second node with the same subtree.
    pub fn assemble<E>(
        targets: &[u32],
        depth: usize,
        k: usize,
        mut draws: impl FnMut(usize, &[u32]) -> Result<(Vec<u32>, Vec<u32>), E>,
    ) -> Result<Self, E> {
        let mut dag = FieldDag {
            nodes: Vec::with_capacity(depth),
            children: Vec::with_capacity(depth),
            relations: Vec::with_capacity(depth),
            child_nodes: Vec::with_capacity(depth.saturating_sub(1)),
            k,
            depth,
        };
        let mut level = targets.to_vec();
        for l in 0..depth {
            let (children, relations) = draws(l, &level)?;
            assert_eq!(children.len(), level.len() * k, "k children per parent");
            assert_eq!(relations.len(), children.len(), "one relation per child");
            let next = if l + 1 < depth {
                let (next, index) = distinct(&children);
                dag.child_nodes.push(index);
                next
            } else {
                Vec::new()
            };
            dag.nodes.push(std::mem::replace(&mut level, next));
            dag.children.push(children);
            dag.relations.push(relations);
        }
        Ok(dag)
    }

    /// The same field with every entity id renamed by `entity` and
    /// every relation id by `relation` — a remote source's compact row
    /// spaces. The shape and the child indices are unchanged.
    pub fn renamed(&self, entity: impl Fn(u32) -> u32, relation: impl Fn(u32) -> u32) -> Self {
        let rename = |levels: &[Vec<u32>], f: &dyn Fn(u32) -> u32| -> Vec<Vec<u32>> {
            levels.iter().map(|ids| ids.iter().map(|&id| f(id)).collect()).collect()
        };
        FieldDag {
            nodes: rename(&self.nodes, &entity),
            children: rename(&self.children, &entity),
            relations: rename(&self.relations, &relation),
            child_nodes: self.child_nodes.clone(),
            k: self.k,
            depth: self.depth,
        }
    }
}

/// The distinct values of `ids` in first-seen order, and each entry's
/// index among them: one open-addressing pass, the table twice the
/// input's size.
fn distinct(ids: &[u32]) -> (Vec<u32>, Vec<u32>) {
    const EMPTY: u32 = u32::MAX;
    let bits = (2 * ids.len()).next_power_of_two().trailing_zeros().max(4);
    let mask = (1usize << bits) - 1;
    // (id, index among the values); an empty slot has index EMPTY
    let mut table = vec![(0u32, EMPTY); mask + 1];
    let mut values = Vec::new();
    let index = ids
        .iter()
        .map(|&id| {
            let mut slot =
                ((id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
            loop {
                let (key, at) = &mut table[slot];
                if *at == EMPTY {
                    (*key, *at) = (id, values.len() as u32);
                    values.push(id);
                    return *at;
                }
                if *key == id {
                    return *at;
                }
                slot = (slot + 1) & mask;
            }
        })
        .collect();
    (values, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KgGraph;
    use crate::sampler::NeighborSampler;
    use crate::triple::TripleStore;
    use std::convert::Infallible;

    /// A hub with 40 relation-0 edges and 4 relation-1 edges.
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

    /// Expanding the DAG back into a tree per target reproduces the live
    /// sampler's receptive field position for position.
    #[test]
    fn dag_expands_to_the_sampled_tree() {
        let graph = hub_graph();
        let sampler = NeighborSampler::new(3, 21);
        let targets = [0u32, 7, 41, 3];
        for depth in 1..=3 {
            let draws = |l: usize, parents: &[u32]| {
                Ok::<_, Infallible>(sampler.draws(&graph, l, parents, 5))
            };
            let dag = FieldDag::assemble(&targets, depth, 3, draws).unwrap();
            let tree = sampler.receptive_field(&graph, &targets, depth, 5);
            // tree positions as node indices, level by level
            let mut at: Vec<u32> = (0..targets.len() as u32).collect();
            for l in 0..depth {
                assert!(dag.nodes[l]
                    .iter()
                    .enumerate()
                    .all(|(i, e)| { dag.nodes[l][..i].iter().all(|other| other != e) }));
                let mut next = Vec::new();
                for (pos, &n) in at.iter().enumerate() {
                    assert_eq!(dag.nodes[l][n as usize], tree.entities[l][pos]);
                    let edges = n as usize * 3..(n as usize + 1) * 3;
                    let tree_edges = pos * 3..(pos + 1) * 3;
                    assert_eq!(
                        dag.children[l][edges.clone()],
                        tree.entities[l + 1][tree_edges.clone()]
                    );
                    assert_eq!(dag.relations[l][edges.clone()], tree.relations[l][tree_edges]);
                    if l + 1 < depth {
                        next.extend_from_slice(&dag.child_nodes[l][edges]);
                    }
                }
                at = next;
            }
        }
    }

    #[test]
    fn each_distinct_parent_is_drawn_once() {
        let graph = hub_graph();
        let sampler = NeighborSampler::new(8, 2);
        let mut asked = Vec::new();
        let draws = |l: usize, parents: &[u32]| {
            asked.push(parents.to_vec());
            Ok::<_, Infallible>(sampler.draws(&graph, l, parents, 0))
        };
        let dag = FieldDag::assemble(&[0, 41], 3, 8, draws).unwrap();
        for parents in &asked {
            let mut unique = parents.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), parents.len(), "a parent drawn twice: {parents:?}");
        }
        assert_eq!(asked[1], dag.nodes[1]);
    }
}
