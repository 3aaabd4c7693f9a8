//! Static aggregation strategies head-to-head.
//!
//! A miniature version of the paper's Table II restricted to the three
//! predefined strategies (average satisfaction, least misery, maximum
//! pleasure) over two individual recommenders (CF and KGCN), plus the
//! popularity floor. Useful for building intuition about *why* learned
//! preference aggregation has room to win: the best static strategy
//! depends on the dataset, and none of them adapts to the group or the
//! candidate item.
//!
//! For contrast, the tail rows train the full KGAG model once per
//! propagation backend (gcn, graphsage, kgnn-ls, interaction;
//! DESIGN.md §17) — the learned-attention counterpart every static
//! strategy is being compared against.
//!
//! ```text
//! cargo run --release --example compare_aggregators
//! ```

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Backend, Kgag, KgagConfig};
use kgag_baselines::{
    AggregatedGroupScorer, BaselineConfig, Kgcn, KgcnConfig, MatrixFactorization, Popularity,
    ScoreAggregator,
};
use kgag_data::movielens::{movielens_pair, MovieLensConfig, Scale};
use kgag_data::split::split_dataset;
use kgag_eval::{evaluate_group_ranking, EvalConfig};

fn main() {
    let (_, rand_ds, simi_ds) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let ecfg = EvalConfig::default();

    println!("{:<14}{:>16}{:>16}", "", "ML-Rand hit@5", "ML-Simi hit@5");
    let mut rows: Vec<(String, [f64; 2])> = Vec::new();

    for (di, ds) in [&rand_ds, &simi_ds].into_iter().enumerate() {
        let split = split_dataset(ds, 11);
        let cases = eval_cases(ds, &split.group, EvalBucket::Test);

        let mut mf =
            MatrixFactorization::new(ds, BaselineConfig { epochs: 12, ..Default::default() });
        mf.fit(&split);
        let mut kgcn = Kgcn::new(
            ds,
            KgcnConfig {
                base: BaselineConfig { epochs: 12, ..Default::default() },
                ..Default::default()
            },
        );
        kgcn.fit(&split);
        let pop = Popularity::fit(&split.user_train);

        for agg in ScoreAggregator::all() {
            let name = format!("CF+{}", agg.label());
            let scorer = AggregatedGroupScorer::new(&mf, &ds.groups, agg);
            let s = evaluate_group_ranking(&scorer, ds.num_items, &cases, &ecfg);
            upsert(&mut rows, &name, di, s.hit);

            let name = format!("KGCN+{}", agg.label());
            let scorer = AggregatedGroupScorer::new(&kgcn, &ds.groups, agg);
            let s = evaluate_group_ranking(&scorer, ds.num_items, &cases, &ecfg);
            upsert(&mut rows, &name, di, s.hit);
        }
        let s = evaluate_group_ranking(&pop, ds.num_items, &cases, &ecfg);
        upsert(&mut rows, "Popularity", di, s.hit);

        // the learned model, once per propagation backend
        for backend in Backend::all() {
            let name = format!("KGAG/{}", backend.tag());
            let mut model =
                Kgag::new(ds, &split, KgagConfig { epochs: 3, backend, ..Default::default() });
            model.fit(&split);
            let s = model.evaluate(&cases, &ecfg);
            upsert(&mut rows, &name, di, s.hit);
        }
    }

    for (name, vals) in &rows {
        println!("{name:<14}{:>16.4}{:>16.4}", vals[0], vals[1]);
    }
    println!(
        "\ntakeaway: every strategy weighs members identically — the ceiling \
         KGAG's self-persistence + peer-influence attention is built to lift."
    );
}

fn upsert(rows: &mut Vec<(String, [f64; 2])>, name: &str, idx: usize, val: f64) {
    match rows.iter_mut().find(|(n, _)| n == name) {
        Some((_, vals)) => vals[idx] = val,
        None => {
            let mut vals = [0.0; 2];
            vals[idx] = val;
            rows.push((name.to_owned(), vals));
        }
    }
}
