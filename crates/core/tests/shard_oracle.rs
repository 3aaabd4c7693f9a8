//! The scatter-gather sharding oracle (DESIGN.md §15).
//!
//! The one [`kgag::Scorer`] promises that scoring over *any* row
//! partitioning of the model — 1 to N shards — is **bit-identical** to
//! the single-node [`kgag::BatchScorer`] path, at any thread count and
//! with the draw memo on or off — also when a gathered row is
//! non-finite, which the router hands to the engine as it arrived
//! instead of panicking. The property suite here drives random case batches over
//! random 1–4-shard partitions through [`kgag::LocalFetch`] — the
//! partitioning semantics without the network — against exactly that
//! oracle. The serve crate's `shard_e2e` suite and the root package's
//! `shard_process` suite (real `kgag shard` processes) prove the
//! *networked* layer end to end, so the TCP pool only ever adds
//! transport, never semantics.
//!
//! Failure semantics get their own tests: with one shard dead, every
//! case either scores bit-identically (its receptive field never
//! touches the dead shard) or fails with a typed [`kgag::ShardError`]
//! naming that shard — never a panic, never a corrupted score. And the
//! scorer's shared validation gets its own property: batches mixing
//! valid cases with unknown groups and items, through the in-process
//! source and through partitioned fetches, fail exactly the bad cases
//! typed while every valid case keeps its per-case bits.

use kgag::{
    DrawMemo, Kgag, KgagConfig, LocalFetch, ScoreCases, ScoreError, Scorer, ShardError,
    ShardErrorKind, ShardFetch,
};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_tensor::pool::with_threads;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u32_in, vec_of};

fn smoke_model() -> (GroupDataset, Kgag) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    (ds, model)
}

fn local_fetches(model: &Kgag, max_count: usize) -> Vec<LocalFetch> {
    (1..=max_count)
        .map(|count| LocalFetch::new((0..count).map(|i| model.shard_state(i, count)).collect()))
        .collect()
}

/// Decode one generated word vector into a scoring scenario: shard
/// count, thread count, memo toggle, and a batch of (group, items)
/// cases (duplicate items and shared groups intentionally allowed).
fn decode(
    words: &[u32],
    num_groups: u32,
    num_items: u32,
) -> (usize, usize, bool, Vec<(u32, Vec<u32>)>) {
    let count = (words[0] % 4) as usize + 1;
    let threads = if words[1] % 2 == 0 { 1 } else { 4 };
    let memo = words[2] % 2 == 0;
    let mut cases = Vec::new();
    for pair in words[3..].chunks_exact(2) {
        let group = pair[0] % num_groups;
        let start = pair[1] % num_items;
        let len = 1 + (pair[1] / 7) % 16;
        let items: Vec<u32> = (0..len).map(|i| (start + i) % num_items).collect();
        cases.push((group, items));
    }
    (count, threads, memo, cases)
}

/// The router over `fetch`: behind a [`DrawMemo`] when `memo`, over the
/// bare fetch otherwise.
fn router_over<'a>(
    model: &Kgag,
    fetch: impl ShardFetch + 'a,
    memo: bool,
) -> Box<dyn ScoreCases + 'a> {
    if memo {
        Box::new(Scorer::new(model, DrawMemo::new(fetch)))
    } else {
        Box::new(Scorer::new(model, fetch))
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// The tentpole property: router-fused scores over a random 1–4-shard
/// partition equal the unsharded batch path bit for bit, across thread
/// counts and with the draw memo on or off.
#[test]
fn sharded_scores_are_bit_identical_to_single_node() {
    let (ds, model) = smoke_model();
    let fetches = local_fetches(&model, 4);
    let (num_groups, num_items) = (ds.num_groups(), ds.num_items);
    let scorer = model.batch_scorer_with(true);
    Runner::new("sharded_scores_are_bit_identical_to_single_node").run(
        &vec_of(u32_in(0..u32::MAX), 5..13),
        |words| {
            let (count, threads, memo, cases) = decode(words, num_groups, num_items);
            let want = with_threads(1, || scorer.score_cases(&cases));
            let router = router_over(&model, &fetches[count - 1], memo);
            let got = with_threads(threads, || router.try_score_cases(&cases));
            for (ci, (w, g)) in want.iter().zip(&got).enumerate() {
                match g {
                    Ok(scores) if bits(scores) == bits(w) => {}
                    Ok(scores) => {
                        return Err(format!(
                            "count={count} threads={threads} memo={memo}: case {ci} diverged\n\
                             want {:?}\n got {:?}",
                            bits(w),
                            bits(scores)
                        ))
                    }
                    Err(e) => {
                        return Err(format!(
                            "count={count} threads={threads} memo={memo}: case {ci} errored: {e}"
                        ))
                    }
                }
            }
            Ok(())
        },
    );
}

/// A checkpoint with one non-finite entity row (an item's row of NaN
/// and ±∞) scores through the router exactly as on a single node: the
/// gathered rows reach the engine unconverted, so the non-finite values
/// propagate to the same bits instead of panicking the router.
#[test]
fn non_finite_entity_row_scores_like_single_node() {
    let (ds, mut model) = smoke_model();
    let mut store = model.store().clone();
    let entity_emb = store.id("entity_emb").expect("entity table registered");
    let poisoned = model.collaborative_kg().item_entity(0).0 as usize;
    for (c, x) in store.value_mut(entity_emb).row_mut(poisoned).iter_mut().enumerate() {
        *x = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][c % 3];
    }
    let ckpt = kgag_tensor::checkpoint::save_tagged(&store, model.config().backend.tag());
    model.load_checkpoint(&ckpt).expect("same-model checkpoint restores");
    let fetches = local_fetches(&model, 4);
    let items: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> =
        (0..ds.num_groups().min(4)).map(|g| (g, items.clone())).collect();
    let single = model.batch_scorer_with(true).score_cases(&cases);
    assert!(
        single.iter().flatten().any(|s| !s.is_finite()),
        "the poisoned row must reach at least one score"
    );
    for (count, fetch) in fetches.iter().enumerate() {
        for memo in [false, true] {
            let router = router_over(&model, fetch, memo);
            let got = router.try_score_cases(&cases);
            for (ci, (w, g)) in single.iter().zip(&got).enumerate() {
                let g = g.as_ref().expect("local fetch never fails");
                assert_eq!(
                    bits(g),
                    bits(w),
                    "{} shard(s) memo={memo} case {ci} diverged",
                    count + 1
                );
            }
        }
    }
}

/// A fetch whose `dead` shard is gone: any query touching an id that
/// shard owns fails with a typed error, everything else delegates.
struct DeadShardFetch {
    inner: LocalFetch,
    dead: usize,
    model_entities: usize,
    model_relations: usize,
    count: usize,
}

impl DeadShardFetch {
    fn guard(&self, ids: &[u32], relations: bool) -> Result<(), ShardError> {
        let rows = if relations { self.model_relations } else { self.model_entities };
        let part = kgag_kg::Partition::new(rows, self.count);
        if ids.iter().any(|&id| part.shard_of(id as usize) == self.dead) {
            Err(ShardError { shard: self.dead, kind: ShardErrorKind::Unavailable })
        } else {
            Ok(())
        }
    }
}

impl ShardFetch for DeadShardFetch {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        self.guard(entities, false)?;
        self.inner.fetch_draws(salt, level, entities)
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.guard(ids, false)?;
        self.inner.fetch_entity_rows(ids)
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.guard(ids, true)?;
        self.inner.fetch_relation_rows(ids)
    }
}

/// With one shard dead, every case either scores bit-identically to the
/// single-node path (its receptive field never needs the dead shard) or
/// carries a typed error naming exactly that shard — and the sweep as a
/// whole neither panics nor hangs.
#[test]
fn dead_shard_yields_typed_errors_on_affected_cases_only() {
    let (ds, model) = smoke_model();
    let items: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> =
        (0..ds.num_groups().min(6)).map(|g| (g, items.clone())).collect();
    let want = model.batch_scorer_with(true).score_cases(&cases);
    let ckg = model.collaborative_kg();
    for count in [2usize, 3] {
        for dead in 0..count {
            let fetch = DeadShardFetch {
                inner: LocalFetch::new((0..count).map(|i| model.shard_state(i, count)).collect()),
                dead,
                model_entities: ckg.num_entities(),
                model_relations: ckg.num_relation_slots(),
                count,
            };
            for memo in [false, true] {
                let router = router_over(&model, &fetch, memo);
                let got = router.try_score_cases(&cases);
                for (ci, (w, g)) in want.iter().zip(&got).enumerate() {
                    match g {
                        Ok(scores) => assert_eq!(
                            bits(scores),
                            bits(w),
                            "count={count} dead={dead} memo={memo}: surviving case {ci} diverged"
                        ),
                        Err(e) => assert_eq!(
                            *e,
                            ScoreError::Shard(ShardError {
                                shard: dead,
                                kind: ShardErrorKind::Unavailable
                            }),
                            "count={count} dead={dead} memo={memo}: case {ci} wrong error"
                        ),
                    }
                }
            }
        }
    }
}

/// Sanity on the trivial partition: one shard holds everything, and the
/// router equals the per-case path exactly (transitively through the
/// batched oracle).
#[test]
fn single_shard_router_matches_per_case_path() {
    let (ds, model) = smoke_model();
    let fetch = LocalFetch::new(vec![model.shard_state(0, 1)]);
    let items: Vec<u32> = (0..ds.num_items).collect();
    let router = Scorer::new(&model, DrawMemo::new(fetch));
    let got = router.try_score_cases(&[(0, items.clone())]);
    let want = model.tape_reference_scores(ds.members(0), &items);
    assert_eq!(bits(got[0].as_ref().expect("local fetch never fails")), bits(&want));
}

/// The shared validation and scoring loop, through both kinds of source: a
/// random batch mixing valid cases with unknown-group and unknown-item
/// cases, scored by the in-process source (cache on and off) and by
/// 1–3-shard local fetches (memo on and off). Every valid case equals
/// the per-case tape path bit for bit; every bad case carries its typed
/// error; nothing panics.
#[test]
fn mixed_batches_fail_only_bad_cases_through_every_source() {
    let (ds, model) = smoke_model();
    let fetches = local_fetches(&model, 3);
    let (num_groups, num_items) = (ds.num_groups(), ds.num_items);
    let in_process = [model.batch_scorer_with(true), model.batch_scorer_with(false)];
    Runner::new("mixed_batches_fail_only_bad_cases").cases(24).run(
        &vec_of((u32_in(0..4), u32_in(0..u32::MAX), u32_in(0..u32::MAX)), 1..10),
        |triples| {
            // kind 0 → unknown group, 1 → one unknown item, else valid
            let cases: Vec<(u32, Vec<u32>)> = triples
                .iter()
                .map(|&(kind, a, b)| {
                    let len = 1 + b % 6;
                    let mut items: Vec<u32> = (0..len).map(|i| (b / 7 + i) % num_items).collect();
                    let group = match kind {
                        0 => num_groups + a % 5,
                        _ => a % num_groups,
                    };
                    if kind == 1 {
                        items[(a % len) as usize] = num_items + b % 3;
                    }
                    (group, items)
                })
                .collect();
            let want: Vec<Result<Vec<u32>, ScoreError>> = cases
                .iter()
                .map(|(g, items)| {
                    if *g >= num_groups {
                        Err(ScoreError::UnknownGroup(*g))
                    } else if let Some(&v) = items.iter().find(|&&v| v >= num_items) {
                        Err(ScoreError::UnknownItem(v))
                    } else {
                        Ok(bits(&model.tape_reference_scores(ds.members(*g), items)))
                    }
                })
                .collect();
            let check = |label: &str, got: Vec<Result<Vec<f32>, ScoreError>>| {
                let got: Vec<Result<Vec<u32>, ScoreError>> =
                    got.into_iter().map(|r| r.map(|s| bits(&s))).collect();
                if got == want {
                    Ok(())
                } else {
                    Err(format!("{label}: got {got:?}\nwant {want:?}"))
                }
            };
            for (scorer, cache) in in_process.iter().zip([true, false]) {
                check(&format!("in-process cache={cache}"), scorer.try_score_cases(&cases))?;
            }
            for (count, fetch) in fetches.iter().enumerate() {
                for memo in [true, false] {
                    let router = router_over(&model, fetch, memo);
                    let label = format!("{} shard(s) memo={memo}", count + 1);
                    check(&label, router.try_score_cases(&cases))?;
                }
            }
            Ok(())
        },
    );
}
