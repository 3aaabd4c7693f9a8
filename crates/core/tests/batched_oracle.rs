//! The batched-inference oracle (the CI gate behind DESIGN.md §11).
//!
//! [`kgag::BatchScorer`] promises *bit-identical* scores to the tape
//! reference [`Kgag::tape_reference_scores`] — with the receptive-field
//! cache on or off, at any chunk size, and at any thread count. This
//! suite trains the smoke model once and then drives both paths over
//! the same cases, asserting exact equality of every score and every
//! metric. CI runs it at `KGAG_THREADS=1` and `4` as a dedicated stage;
//! the `with_threads` sweeps below additionally cover ragged band
//! splits inside a single process.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_eval::protocol::evaluate_group_ranking_detailed;
use kgag_eval::{EvalConfig, GroupEvalCase};
use kgag_tensor::pool::with_threads;

fn smoke_model() -> (GroupDataset, Kgag, Vec<GroupEvalCase>) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    assert!(!cases.is_empty(), "tiny world must produce test cases");
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    (ds, model, cases)
}

/// Exhaustive per-score equality: every (group, candidate) score from
/// the batch scorer equals the tape reference bit for bit, across the
/// cache × chunk-size matrix.
#[test]
fn batch_scores_are_bit_identical_to_per_case_path() {
    let (ds, model, _) = smoke_model();
    let items: Vec<u32> = (0..ds.num_items).collect();
    let groups: Vec<u32> = (0..ds.num_groups().min(6)).collect();
    let reference: Vec<Vec<f32>> =
        groups.iter().map(|&g| model.tape_reference_scores(ds.members(g), &items)).collect();

    for cache in [false, true] {
        for chunk in [1usize, 7, 256] {
            let scorer = model.batch_scorer_with(cache).with_batch_instances(chunk);
            assert_eq!(scorer.cached(), cache, "cache toggle must stick (use_kg model)");
            let cases: Vec<(u32, Vec<u32>)> = groups.iter().map(|&g| (g, items.clone())).collect();
            let batched = scorer.score_cases(&cases);
            for (gi, (want, got)) in reference.iter().zip(&batched).enumerate() {
                let diverged = want.iter().zip(got).position(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(
                    diverged, None,
                    "cache={cache} chunk={chunk}: group {gi} diverged at item {diverged:?}"
                );
            }
        }
    }
}

/// The single-case convenience wrapper matches too (it is the drop-in
/// replacement for interactive scoring).
#[test]
fn score_case_matches_score_group_items() {
    let (ds, model, _) = smoke_model();
    let items: Vec<u32> = (0..ds.num_items).collect();
    let scorer = model.batch_scorer_with(true);
    for g in 0..ds.num_groups().min(4) {
        let want = model.tape_reference_scores(ds.members(g), &items);
        let got = scorer.score_case(g, &items);
        assert_eq!(want, got, "group {g}: score_case diverged from the tape reference");
    }
}

/// Full-protocol equality: [`Kgag::evaluate`] and the one driver over a
/// batch scorer (cache on and off) reproduce the driver over the tape
/// reference exactly — summary *and* every per-case metric — in both
/// candidate regimes.
#[test]
fn batched_protocol_metrics_equal_sequential_metrics() {
    let (ds, model, cases) = smoke_model();
    let tape = |g: u32, items: &[u32]| model.tape_reference_scores(ds.members(g), items);
    for num_negatives in [Some(25), None] {
        let ecfg = EvalConfig { k: 5, num_negatives, seed: 0xe7a1 };
        let (ref_summary, ref_cases) =
            evaluate_group_ranking_detailed(&tape, model.num_items(), &cases, &ecfg);
        assert_eq!(
            model.evaluate(&cases, &ecfg),
            ref_summary,
            "Kgag::evaluate diverged from the tape reference (negatives={num_negatives:?})"
        );
        for cache in [false, true] {
            let scorer = model.batch_scorer_with(cache).with_batch_instances(64);
            let (bat_summary, bat_cases) =
                evaluate_group_ranking_detailed(&scorer, model.num_items(), &cases, &ecfg);
            assert_eq!(
                ref_cases, bat_cases,
                "per-case metrics diverged (cache={cache}, negatives={num_negatives:?})"
            );
            assert_eq!(
                ref_summary, bat_summary,
                "summary diverged (cache={cache}, negatives={num_negatives:?})"
            );
        }
    }
}

/// The whole batched stack is thread-count invariant: cache build +
/// chunked scoring at 4 threads equals the 1-thread run bit for bit,
/// and both equal the tape reference.
#[test]
fn batched_scoring_is_bit_identical_across_thread_counts() {
    let (ds, model, _) = smoke_model();
    let items: Vec<u32> = (0..ds.num_items).collect();
    let run = |threads: usize| {
        with_threads(threads, || {
            let scorer = model.batch_scorer_with(true).with_batch_instances(32);
            scorer.score_cases(&[(0, items.clone()), (1, items.clone())])
        })
    };
    let reference = run(1);
    let per_case = with_threads(1, || model.tape_reference_scores(ds.members(0), &items));
    assert_eq!(reference[0], per_case, "1-thread batch diverged from the tape reference");
    for threads in [2usize, 3, 4] {
        assert_eq!(run(threads), reference, "batched scores diverged at {threads} threads");
    }
}

/// The KGAG-KG ablation has no receptive fields to cache: the cache
/// toggle degrades gracefully to plain embedding lookups that still
/// match the tape reference exactly.
#[test]
fn ablation_without_kg_matches_per_case_path() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let cfg = KgagConfig { epochs: 2, use_kg: false, ..Default::default() };
    let mut model = Kgag::new(&ds, &split, cfg);
    with_threads(1, || model.fit(&split));
    let items: Vec<u32> = (0..ds.num_items).collect();
    let scorer = model.batch_scorer_with(true);
    assert!(!scorer.cached(), "no KG means nothing to cache");
    let want = model.tape_reference_scores(ds.members(0), &items);
    assert_eq!(scorer.score_case(0, &items), want, "ablation scores diverged");
}

/// Explanations decompose the *served* score: the attention pass behind
/// `explain` uses the same checkpoint-fixed salt as scoring, so its
/// reported score equals the tape reference (and hence the batched
/// path) bit for bit.
#[test]
fn explanation_score_matches_served_score() {
    let (ds, model, _) = smoke_model();
    let items: Vec<u32> = (0..ds.num_items.min(8)).collect();
    let scorer = model.batch_scorer_with(true);
    for g in 0..ds.num_groups().min(3) {
        let served = model.tape_reference_scores(ds.members(g), &items);
        let batched = scorer.score_case(g, &items);
        for (idx, &item) in items.iter().enumerate() {
            let explained = model.explain(g, item).score;
            assert_eq!(
                explained.to_bits(),
                served[idx].to_bits(),
                "group {g} item {item}: explanation score != served score"
            );
            assert_eq!(
                batched[idx].to_bits(),
                served[idx].to_bits(),
                "group {g} item {item}: batched score != served score"
            );
        }
    }
}
