//! Paired-bootstrap significance check for the headline comparison:
//! KGAG vs the strongest static baseline (CF+AVG) on each dataset.
//!
//! Table II differences of a point or two of hit@5 over a few hundred
//! groups can be sampling noise; this binary quantifies that before
//! EXPERIMENTS.md makes any "A beats B" claim.

use kgag::Kgag;
use kgag_baselines::{AggregatedGroupScorer, BaselineConfig, MatrixFactorization, ScoreAggregator};
use kgag_bench::{
    dataset_trio, epochs_from_env, eval_config, kgag_config_for, prepare, scale_from_env,
    write_json,
};
use kgag_eval::{evaluate_group_ranking_detailed, paired_bootstrap};

fn main() {
    let scale = scale_from_env();
    println!("== Paired bootstrap: KGAG vs CF+AVG (scale {scale:?}) ==\n");
    let (rand, simi, yelp) = dataset_trio(scale);
    let ecfg = eval_config();
    let mut out = Vec::new();

    for ds in [&rand, &simi, &yelp] {
        let prep = prepare(ds);

        let mut kgag_model = Kgag::new(ds, &prep.split, kgag_config_for(ds));
        kgag_model.fit(&prep.split);
        let (s_kgag, per_kgag) =
            evaluate_group_ranking_detailed(&kgag_model, ds.num_items, &prep.test_cases, &ecfg);

        let mut mf_cfg = BaselineConfig::default();
        if let Some(e) = epochs_from_env() {
            mf_cfg.epochs = e;
        }
        let mut mf = MatrixFactorization::new(ds, mf_cfg);
        mf.fit(&prep.split);
        let scorer = AggregatedGroupScorer::new(&mf, &ds.groups, ScoreAggregator::Average);
        let (s_cf, per_cf) =
            evaluate_group_ranking_detailed(&scorer, ds.num_items, &prep.test_cases, &ecfg);

        let hits_kgag: Vec<f64> = per_kgag.iter().map(|m| m.hit).collect();
        let hits_cf: Vec<f64> = per_cf.iter().map(|m| m.hit).collect();
        let cmp = paired_bootstrap(&hits_kgag, &hits_cf, 2000, 0xb007);
        println!(
            "{:<22} KGAG hit@5 {:.4} vs CF+AVG {:.4} | P(KGAG>CF) {:.3} | diff CI95 [{:+.4}, {:+.4}]{}",
            ds.name,
            s_kgag.hit,
            s_cf.hit,
            cmp.prob_a_beats_b,
            cmp.diff_ci95.0,
            cmp.diff_ci95.1,
            if cmp.significant() { "  *significant*" } else { "  (not significant)" },
        );
        out.push((ds.name.clone(), cmp));
    }
    write_json("significance", &out);
}
