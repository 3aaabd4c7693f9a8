//! Table II — overall performance comparison.
//!
//! Trains and evaluates all eight methods of the paper's Table II (plus
//! a popularity sanity floor) on the three datasets with the shared
//! protocol: CF+{LM,MP,AVG}, KGCN+{LM,MP,AVG}, MoSAN, KGAG.
//!
//! Paper shapes this run should reproduce (not absolute values):
//! KGAG best everywhere; every model better on Simi than Rand; Yelp's
//! rec@5 == hit@5 (single-positive groups); LM the strongest static
//! aggregator on the MovieLens-style sets.

use kgag_baselines::{
    AggregatedGroupScorer, BaselineConfig, Kgcn, KgcnConfig, MatrixFactorization, Mosan,
    MosanConfig, Popularity, PseudoUserGroups, ScoreAggregator,
};
use kgag_bench::{
    dataset_trio, epochs_from_env, eval_config, kgag_config_for, prepare, print_grid, run_kgag,
    scale_from_env, write_json, ResultRow,
};
use kgag_data::GroupDataset;
use kgag_eval::evaluate_group_ranking;
use std::time::Instant;

fn short_name(ds: &GroupDataset) -> &'static str {
    if ds.name.contains("Rand") {
        "ML-Rand"
    } else if ds.name.contains("Simi") {
        "ML-Simi"
    } else {
        "Yelp"
    }
}

fn main() {
    let scale = scale_from_env();
    println!("== Table II: overall comparison (scale {scale:?}) ==\n");
    let (rand, simi, yelp) = dataset_trio(scale);
    let ecfg = eval_config();
    let mut rows: Vec<ResultRow> = Vec::new();

    for ds in [&rand, &simi, &yelp] {
        let label = short_name(ds);
        let prep = prepare(ds);
        eprintln!(
            "[{label}] groups={} train={} test-cases={}",
            ds.num_groups(),
            prep.split.group.train.len(),
            prep.test_cases.len()
        );

        // --- CF (matrix factorization) + static aggregators ----------
        let t = Instant::now();
        let mut mf_cfg = BaselineConfig::default();
        if let Some(e) = epochs_from_env() {
            mf_cfg.epochs = e;
        }
        let mut mf = MatrixFactorization::new(ds, mf_cfg);
        mf.fit(&prep.split);
        for agg in ScoreAggregator::all() {
            let scorer = AggregatedGroupScorer::new(&mf, &ds.groups, agg);
            let s = evaluate_group_ranking(&scorer, ds.num_items, &prep.test_cases, &ecfg);
            rows.push(ResultRow::new(&format!("CF+{}", agg.label()), label, &s));
        }
        eprintln!("[{label}] CF done in {:?}", t.elapsed());

        // --- KGCN + static aggregators --------------------------------
        let t = Instant::now();
        let mut kgcn_cfg = KgcnConfig::default();
        if let Some(e) = epochs_from_env() {
            kgcn_cfg.base.epochs = e;
        }
        let mut kgcn = Kgcn::new(ds, kgcn_cfg);
        kgcn.fit(&prep.split);
        for agg in ScoreAggregator::all() {
            let scorer = AggregatedGroupScorer::new(&kgcn, &ds.groups, agg);
            let s = evaluate_group_ranking(&scorer, ds.num_items, &prep.test_cases, &ecfg);
            rows.push(ResultRow::new(&format!("KGCN+{}", agg.label()), label, &s));
        }
        eprintln!("[{label}] KGCN done in {:?}", t.elapsed());

        // --- MoSAN -----------------------------------------------------
        let t = Instant::now();
        let mut mosan_cfg = MosanConfig::default();
        if let Some(e) = epochs_from_env() {
            mosan_cfg.base.epochs = e;
        }
        let mut mosan = Mosan::new(ds, &prep.split, mosan_cfg);
        mosan.fit(&prep.split);
        let s = evaluate_group_ranking(&mosan, ds.num_items, &prep.test_cases, &ecfg);
        rows.push(ResultRow::new("MoSAN", label, &s));
        eprintln!("[{label}] MoSAN done in {:?}", t.elapsed());

        // --- KGAG ------------------------------------------------------
        let t = Instant::now();
        let s = run_kgag(ds, &prep, kgag_config_for(ds));
        rows.push(ResultRow::new("KGAG", label, &s));
        eprintln!("[{label}] KGAG done in {:?}", t.elapsed());

        // --- extensions: persistent-group MF and popularity floor ------
        let mut pseudo_cfg = BaselineConfig::default();
        if let Some(e) = epochs_from_env() {
            pseudo_cfg.epochs = e;
        }
        let mut pseudo = PseudoUserGroups::new(ds, pseudo_cfg);
        pseudo.fit(&prep.split);
        let s = evaluate_group_ranking(&pseudo, ds.num_items, &prep.test_cases, &ecfg);
        rows.push(ResultRow::new("GroupMF", label, &s));

        let pop = Popularity::fit(&prep.split.user_train);
        let s = evaluate_group_ranking(&pop, ds.num_items, &prep.test_cases, &ecfg);
        rows.push(ResultRow::new("Popularity", label, &s));
    }

    println!();
    print_grid(&rows);
    println!(
        "\npaper reference (rec@5/hit@5): KGAG Rand .1627/.5497, Simi .1913/.7417, \
         Yelp .7748/.7748; best baselines Rand KGCN+LM .1584/.4834, Simi CF+LM .1808/.6556"
    );
    write_json("table2", &rows);
}
