//! Restaurant party: the Yelp-style sparse-group scenario.
//!
//! Yelp groups are triangles of friends with roughly *one* observed
//! group interaction each — the extreme sparsity regime the paper
//! targets. This example builds the synthetic Yelp stand-in (complete
//! with the homophilous friendship graph and simulated co-visits),
//! trains KGAG, and compares it against the static aggregators on the
//! same split.
//!
//! ```text
//! cargo run --release --example restaurant_party
//! ```

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_baselines::{AggregatedGroupScorer, BaselineConfig, MatrixFactorization, ScoreAggregator};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_eval::{evaluate_group_ranking, EvalConfig};

fn main() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let stats = ds.stats();
    println!(
        "Yelp stand-in: {} friend groups of {} over {} businesses \
         ({:.2} interactions/group — the paper's 1.00 regime)",
        stats.total_groups, stats.group_size, stats.total_items, stats.inter_per_group
    );

    let split = split_dataset(&ds, 21);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    println!("{} groups have a held-out co-visit to predict\n", cases.len());
    let ecfg = EvalConfig::default();

    // static aggregation baselines over a matrix-factorization scorer
    let mut mf = MatrixFactorization::new(&ds, BaselineConfig { epochs: 15, ..Default::default() });
    mf.fit(&split);
    for agg in ScoreAggregator::all() {
        let scorer = AggregatedGroupScorer::new(&mf, &ds.groups, agg);
        let s = evaluate_group_ranking(&scorer, ds.num_items, &cases, &ecfg);
        println!("CF+{:<4}  rec@5 {:.4}  hit@5 {:.4}", agg.label(), s.recall, s.hit);
    }

    // KGAG
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 15, ..Default::default() });
    model.fit(&split);
    let s = model.evaluate(&cases, &ecfg);
    println!("KGAG     rec@5 {:.4}  hit@5 {:.4}", s.recall, s.hit);
    println!(
        "\nnote: with one positive per group, rec@5 == hit@5 by definition — \
         exactly why the paper's Yelp columns coincide."
    );
    assert!((s.recall - s.hit).abs() < 1e-9);

    // show one group's recommendation
    if let Some(case) = cases.first() {
        let g = case.group;
        println!("\nfriend group g_{g} = {:?}", ds.members(g));
        let all: Vec<u32> = (0..ds.num_items).collect();
        let scores = model.score_group_items(g, &all);
        let top = kgag_eval::top_k_excluding(&scores, 3, split.group.train_items(g));
        for (rank, &v) in top.iter().enumerate() {
            let hit = if case.test_items.binary_search(&v).is_ok() {
                "  <- their actual co-visit"
            } else {
                ""
            };
            println!("  {}. business v_{v} (score {:.3}){hit}", rank + 1, scores[v as usize]);
        }
    }
}
