//! The count guard of the engine's distinct-node propagation (DESIGN.md
//! §14, invariant 10).
//!
//! Bit-identity oracles cannot tell the receptive-field DAG walk from
//! the tree walk it replaced: both give the same bits. This test pins
//! the sharing itself. It recounts, from [`kgag_kg::RfCache::entry`]
//! alone, every distinct key of each chunk — (level, entity, query row)
//! per iteration (Rule 1), with the `h = 0` update of a node whose `K`
//! edges share one relation counted once per chunk (Rule 2) — and
//! requires `infer.node_updates` to equal that number and
//! `infer.attention_edges` to equal `K` times the distinct blocks that
//! need weights. A change that quietly propagates shared nodes twice
//! fails here while every oracle still passes.
//!
//! One test in its own binary: the counters are process-wide.

use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_kg::RfCache;
use kgag_tensor::pool::with_threads;
use std::collections::HashSet;

/// Per level, the distinct `(entity, query)` keys reachable from
/// `roots`, where every root is reached under every query of its own.
fn levels(cache: &RfCache, roots: &[(u32, u32)]) -> Vec<HashSet<(u32, u32)>> {
    let mut levels = vec![roots.iter().copied().collect::<HashSet<_>>()];
    for lvl in 0..cache.depth() - 1 {
        let next = levels[lvl]
            .iter()
            .flat_map(|&(e, q)| cache.entry(lvl, e).0.iter().map(move |&c| (c, q)))
            .collect();
        levels.push(next);
    }
    levels
}

/// `(node updates, attention edges)` of one side of one chunk.
fn side_counts(cache: &RfCache, roots: &[(u32, u32)]) -> (u64, u64) {
    let (k, depth) = (cache.k() as u64, cache.depth());
    let levels = levels(cache, roots);
    let lone = |lvl: usize, e: u32| {
        let rels = cache.entry(lvl, e).1;
        rels.iter().all(|&r| r == rels[0])
    };
    let (mut updates, mut edges) = (0u64, 0u64);
    for (lvl, keys) in levels.iter().enumerate() {
        // h = 0: a lone-relation node once, any other key on its own
        let free: HashSet<u32> =
            keys.iter().filter(|&&(e, _)| lone(lvl, e)).map(|&(e, _)| e).collect();
        let bound = keys.iter().filter(|&&(e, _)| !lone(lvl, e)).count() as u64;
        updates += free.len() as u64 + bound;
        edges += k * (free.len() as u64 + bound);
        // h ≥ 1: every key of the levels that iteration updates
        updates += (1..depth - lvl).count() as u64 * keys.len() as u64;
    }
    (updates, edges)
}

#[test]
fn node_updates_and_attention_edges_count_each_distinct_key_once() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 1, ..Default::default() });
    with_threads(1, || model.fit(&split));
    // Rule 2 frees a lone-relation block only under a finite logit; a
    // bound on |dot(q, r)| over the tables makes every logit finite here
    let max_abs = |name: &str| {
        let (_, _, t) = model.store().iter().find(|(_, n, _)| *n == name).expect("parameter");
        t.data().iter().fold(0.0f32, |m, x| m.max(x.abs()))
    };
    let d = model.config().dim as f32;
    assert!(d * max_abs("entity_emb") * max_abs("relation_emb") < 1e30, "logits must be finite");

    let ckg = model.collaborative_kg();
    let l = model.group_size();
    // four groups of the trained size, `c` items each, among them items
    // shared across the cases and one repeated within a case
    let groups: Vec<u32> =
        (0..ds.num_groups()).filter(|&g| ds.groups[g as usize].len() == l).take(4).collect();
    assert_eq!(groups.len(), 4, "the tiny world has four groups of the trained size");
    let c = 12u32;
    let cases: Vec<(u32, Vec<u32>)> = groups
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let mut items: Vec<u32> =
                (0..c - 1).map(|j| (i as u32 * 5 + j) % ds.num_items).collect();
            items.push(items[0]);
            (g, items)
        })
        .collect();

    let scorer = model.batch_scorer().with_batch_instances(c as usize);
    let (members_cache, items_cache) = scorer.rf_caches().expect("the cache is on");
    // chunks of at most `c` instances — each case is exactly one chunk
    let (mut want_updates, mut want_edges) = (0, 0);
    for (g, items) in &cases {
        let members: Vec<u32> =
            ds.groups[*g as usize].iter().map(|&u| ckg.user_entity(u).0).collect();
        let item_ents: Vec<u32> = items.iter().map(|&v| ckg.item_entity(v).0).collect();
        // member side: each member under each distinct item; item side:
        // each item under the one case
        let member_roots: Vec<(u32, u32)> =
            item_ents.iter().flat_map(|&v| members.iter().map(move |&m| (m, v))).collect();
        let item_roots: Vec<(u32, u32)> = item_ents.iter().map(|&v| (v, 0)).collect();
        for (cache, roots) in [(members_cache, &member_roots), (items_cache, &item_roots)] {
            let (u, e) = side_counts(cache, roots);
            want_updates += u;
            want_edges += e;
        }
    }

    let sink = std::env::temp_dir().join(format!("kgag_dag_counts_{}.jsonl", std::process::id()));
    kgag_obs::enable_to(&sink).expect("telemetry sink");
    let (updates, edges) =
        (kgag_obs::counter("infer.node_updates"), kgag_obs::counter("infer.attention_edges"));
    let before = (updates.get(), edges.get());
    with_threads(1, || scorer.score_cases(&cases));
    let got = (updates.get() - before.0, edges.get() - before.1);
    kgag_obs::disable();
    let _ = std::fs::remove_file(&sink);
    assert_eq!(got, (want_updates, want_edges), "(node updates, attention edges)");
    // the tree walk updates every position: per target, Σ over
    // iterations h of the K^lvl nodes on levels 0..depth − h
    let (k, depth) = (members_cache.k() as u64, members_cache.depth() as u32);
    let per_target: u64 =
        (0..depth).map(|h| (0..depth - h).map(|lvl| k.pow(lvl)).sum::<u64>()).sum();
    let instances: u64 = cases.iter().map(|(_, items)| items.len() as u64).sum();
    let tree = instances * (l as u64 + 1) * per_target;
    assert!(want_updates < tree, "{want_updates} distinct keys vs {tree} tree nodes");
}
