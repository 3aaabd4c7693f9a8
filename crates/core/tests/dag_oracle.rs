//! The distinct-node propagation oracle (DESIGN.md §14, invariant 10).
//!
//! The engine computes each receptive-field node once per chunk: every
//! distinct (level, entity, query row) key once (Rule 1), and at the
//! first iteration a node whose `K` edges share one relation once for
//! every query row whose logit for it is finite (Rule 2). This property
//! builds batches that reach every sharing path and requires the engine
//! to equal the tape ([`Kgag::score_members`], live-sampled fields) bit
//! for bit on all of them, at every chunk cap from 1 to the batch size,
//! at one and four threads, in process (cache on and off) and over a
//! 2-shard [`LocalFetch`] with and without the [`DrawMemo`]:
//!
//! * cases that share members (a group and a copy with one member
//!   swapped);
//! * an item repeated within one case and across cases;
//! * members whose sampled items overlap (real groups);
//! * duplicate children, drawn with replacement below `K` neighbors;
//! * single-relation blocks under query rows whose logit for that
//!   relation is +∞, −∞ or NaN, on both sides. The fixture scales the
//!   `Interact` relation row — the one relation of every user's block —
//!   and a few entity rows, so that those logits overflow while every
//!   representation stays finite; a NaN row covers the third case.

use kgag::{
    ChunkSource, DrawMemo, DynamicScorer, Kgag, KgagConfig, LocalFetch, ScoreCases, Scorer,
};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupDataset, LifecycleOp};
use kgag_tensor::pool::with_threads;
use kgag_tensor::rng::SplitMix64;
use kgag_tensor::tensor::dot;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::u64_in;
use std::cell::Cell;
use std::collections::HashSet;

/// The poisoned model and the handles the batches are built from.
struct Fixture {
    ds: GroupDataset,
    model: Kgag,
    /// Items whose entity row drives the member-side `Interact` logit to
    /// +∞ and −∞, and an item whose row holds a NaN.
    pos_item: u32,
    neg_item: u32,
    nan_item: u32,
    /// Rosters whose mean drives the item-side `Interact` logit to +∞
    /// and −∞.
    pos_roster: Vec<u32>,
    neg_roster: Vec<u32>,
}

fn degree(model: &Kgag, entity: u32) -> usize {
    model.collaborative_kg().graph().neighbor_slices(entity).0.len()
}

fn fixture() -> Fixture {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 2, ..Default::default() });
    with_threads(1, || model.fit(&split));
    let l = model.group_size();
    let ckg = model.collaborative_kg();
    let d = model.config().dim;
    let scale = 1.0 / (d as f32).sqrt();
    // the fewest-connected items and users carry the poisoned rows, so
    // they reach few other fields
    let mut items: Vec<u32> = (0..ds.num_items).collect();
    items.sort_by_key(|&v| (degree(&model, ckg.item_entity(v).0), v));
    let mut users: Vec<u32> = (0..ckg.num_users()).collect();
    users.sort_by_key(|&u| (degree(&model, ckg.user_entity(u).0), u));
    let (pos_item, neg_item, nan_item) = (items[0], items[1], items[2]);
    let roster = |users: &[u32]| {
        let mut roster = users.to_vec();
        roster.sort_unstable();
        roster
    };
    let (pos_roster, neg_roster) = (roster(&users[..l]), roster(&users[l..2 * l]));

    let mut store = model.store().clone();
    let find = |name: &str| store.iter().find(|(_, n, _)| *n == name).map(|(id, _, _)| id);
    let (ent_id, rel_id) = (find("entity_emb").unwrap(), find("relation_emb").unwrap());
    let r = ckg.interact_relation().0 as usize;
    // `Interact` scaled so that its largest component is 1e36: a query
    // row of ordinary size keeps every partial sum of its dot finite
    let u: Vec<f32> = store.value(rel_id).row(r).to_vec();
    let big = 1e36 / u.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    store.value_mut(rel_id).row_mut(r).iter_mut().zip(&u).for_each(|(x, &c)| *x = c * big);
    let scaled: Vec<f32> = store.value(rel_id).row(r).to_vec();
    // a row `t·u` meets it in t·big·|u|² ≥ 4·f32::MAX: the dot overflows
    let t = f32::MAX / (big * dot(&u, &u)) * 4.0;
    let aligned = |sign: f32| u.iter().map(|&c| sign * t * c).collect::<Vec<f32>>();
    let entity = store.value_mut(ent_id);
    entity.row_mut(ckg.item_entity(pos_item).0 as usize).copy_from_slice(&aligned(1.0));
    entity.row_mut(ckg.item_entity(neg_item).0 as usize).copy_from_slice(&aligned(-1.0));
    entity.row_mut(ckg.item_entity(nan_item).0 as usize)[0] = f32::NAN;
    for (&u, sign) in pos_roster.iter().zip([1.0; 64]).chain(neg_roster.iter().zip([-1.0; 64])) {
        entity.row_mut(ckg.user_entity(u).0 as usize).copy_from_slice(&aligned(sign));
    }
    // finite rows whose logit is not; every other query row stays small
    // enough for a finite logit
    assert!(aligned(1.0).iter().all(|x| x.is_finite()));
    let logit = |q: &[f32]| dot(q, &scaled) * scale;
    assert_eq!(logit(&aligned(1.0)), f32::INFINITY);
    assert_eq!(logit(&aligned(-1.0)), f32::NEG_INFINITY);
    assert!(logit(entity.row(ckg.item_entity(nan_item).0 as usize)).is_nan());
    let ckpt = kgag_tensor::checkpoint::save_tagged(&store, model.config().backend.tag());
    model.load_checkpoint(&ckpt).expect("same-model checkpoint restores");
    Fixture { ds, model, pos_item, neg_item, nan_item, pos_roster, neg_roster }
}

/// Bit patterns, every NaN as one canonical NaN.
fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| if s.is_nan() { f32::NAN.to_bits() } else { s.to_bits() }).collect()
}

/// A batch of `(roster, items)` cases drawn from `seed`.
fn batch(fx: &Fixture, seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut rng = SplitMix64::new(seed);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let l = fx.model.group_size();
    let real: Vec<&Vec<u32>> = fx.ds.groups.iter().filter(|g| g.len() == l).collect();
    let base = real[pick(real.len())].clone();
    let mut swapped = base.clone();
    swapped[pick(l)] = loop {
        let u = pick(fx.model.collaborative_kg().num_users() as usize) as u32;
        if !base.contains(&u) {
            break u;
        }
    };
    swapped.sort_unstable(); // a created group keeps its members sorted
    let rosters = [base, swapped, fx.pos_roster.clone(), fx.neg_roster.clone()];
    let mut pool: Vec<u32> = (0..4).map(|_| pick(fx.ds.num_items as usize) as u32).collect();
    pool.extend([fx.pos_item, fx.neg_item, fx.nan_item]);
    (0..3 + pick(2))
        .map(|i| {
            // every roster kind appears; an item repeats within each case
            let roster = rosters[if i < rosters.len() { i } else { pick(rosters.len()) }].clone();
            let mut items: Vec<u32> = (0..2 + pick(4)).map(|_| pool[pick(pool.len())]).collect();
            items.push(items[0]);
            (roster, items)
        })
        .collect()
}

/// Check one source against the tape's `want` at every chunk cap from 1
/// to the batch size, at one and four threads: each roster becomes a
/// created group of a fresh live scorer, then the batch scores at once.
fn check<S: ChunkSource>(
    leg: &str,
    make: impl Fn() -> Scorer<S>,
    cases: &[(Vec<u32>, Vec<u32>)],
    want: &[Vec<u32>],
) -> Result<(), String> {
    let n: usize = cases.iter().map(|(_, items)| items.len()).sum();
    for cap in 1..=n {
        let live = DynamicScorer::from(make().with_batch_instances(cap));
        let requests: Vec<(u32, Vec<u32>)> = cases
            .iter()
            .map(|(members, items)| {
                let op = LifecycleOp::Create { members: members.clone() };
                (live.apply(&op).expect("roster is a valid group").group, items.clone())
            })
            .collect();
        for threads in [1, 4] {
            let got: Vec<Vec<u32>> = with_threads(threads, || live.try_score_cases(&requests))
                .into_iter()
                .map(|r| bits(&r.expect("every case scores")))
                .collect();
            if got != want {
                return Err(format!("{leg}, cap {cap}, {threads} threads: {got:?} != {want:?}"));
            }
        }
    }
    Ok(())
}

#[test]
fn distinct_node_engine_equals_tape_on_every_sharing_path() {
    let fx = fixture();
    let model = &fx.model;
    let local = || LocalFetch::new((0..2).map(|i| model.shard_state(i, 2)).collect());
    let (dup_children, overlap) = (Cell::new(false), Cell::new(false));
    Runner::new("engine-dag-vs-tape").cases(12).run(&u64_in(0..u64::MAX), |&seed| {
        let cases = batch(&fx, seed);
        let want: Vec<Vec<u32>> = cases
            .iter()
            .map(|(members, items)| bits(&model.score_members(members, items).expect("valid")))
            .collect();
        // the batch reaches the draw-level sharing paths
        let scorer = model.batch_scorer();
        let (members_cache, _) = scorer.rf_caches().expect("cache on");
        let ckg = model.collaborative_kg();
        for (members, _) in &cases {
            let draws: Vec<&[u32]> =
                members.iter().map(|&u| members_cache.entry(0, ckg.user_entity(u).0).0).collect();
            dup_children.set(
                dup_children.get()
                    | draws.iter().any(|c| c.iter().collect::<HashSet<_>>().len() < c.len()),
            );
            overlap.set(
                overlap.get()
                    | draws.iter().enumerate().any(|(i, a)| {
                        draws[i + 1..].iter().any(|b| a.iter().any(|x| b.contains(x)))
                    }),
            );
        }
        check("cache on", || model.batch_scorer_with(true), &cases, &want)?;
        check("cache off", || model.batch_scorer_with(false), &cases, &want)?;
        check("router", || Scorer::new(model, local()), &cases, &want)?;
        check("router + memo", || Scorer::new(model, DrawMemo::new(local())), &cases, &want)?;
        Ok(())
    });
    assert!(dup_children.get(), "no member drew a child twice");
    assert!(overlap.get(), "no two members shared a sampled item");
}
