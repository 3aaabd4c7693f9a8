//! # kgag-kg
//!
//! Knowledge-graph storage and graph machinery for the KGAG reproduction:
//!
//! * [`TripleStore`] — deduplicated (head, relation, tail) facts with
//!   entity/relation vocabularies;
//! * [`KgGraph`] — compressed sparse row adjacency over a triple store,
//!   with inverse edges and per-entity self-loops so propagation never
//!   dead-ends;
//! * [`CollaborativeKg`] — the paper's collaborative knowledge graph
//!   (§III-A): the item KG plus one user node per user and an `Interact`
//!   edge per observed user–item interaction;
//! * [`NeighborSampler`] / [`ReceptiveField`] — fixed-size (K) neighbor
//!   sampling producing the layered receptive-field tree that the
//!   information propagation block consumes (and that the paper's
//!   O(K^{H−h}·d²) complexity analysis assumes);
//! * [`FieldDag`] — the same field with each distinct node once per
//!   level, the form the batched inference engine propagates over;
//! * [`RfCache`] — per-entity memoization of those draws at a fixed
//!   salt, turning receptive-field assembly during batched inference
//!   into pure table lookup (bit-identical to live sampling);
//! * [`transe`] — a TransE embedding trainer used to give the MoSAN
//!   baseline knowledge-aware user representations (§IV-D);
//! * [`paths`] — BFS connectivity utilities backing the interpretability
//!   analyses (user–user high-order connectivity).

pub mod collab;
pub mod field_dag;
pub mod graph;
pub mod partition;
pub mod paths;
pub mod rf_cache;
pub mod sampler;
pub mod transe;
pub mod triple;

pub use collab::CollaborativeKg;
pub use field_dag::{FieldDag, IdMap};
pub use graph::KgGraph;
pub use partition::{Partition, ShardState};
pub use rf_cache::RfCache;
pub use sampler::{NeighborSampler, ReceptiveField};
pub use triple::{EntityId, RelationId, Triple, TripleStore};
