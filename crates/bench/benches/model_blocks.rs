//! End-to-end model-block benchmarks: the attention block, a full KGAG
//! training step, group scoring, and the baselines' steps for scale
//! comparison.

use kgag::attention::group_attention;
use kgag::model::ModelParams;
use kgag::{Kgag, KgagConfig};
use kgag_baselines::{BaselineConfig, MatrixFactorization};
use kgag_data::movielens::{movielens_rand, MovieLensConfig, Scale};
use kgag_data::split::{split_dataset, DatasetSplit};
use kgag_data::GroupDataset;
use kgag_tensor::{init, ParamStore, Tape};
use kgag_testkit::bench::{black_box, BenchSuite};

fn tiny() -> (GroupDataset, DatasetSplit) {
    let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 1);
    (ds, split)
}

fn bench_attention(suite: &mut BenchSuite) {
    let (ds, split) = tiny();
    let ckg = ds.collaborative_kg_from(&split.user_train);
    let config = KgagConfig::default();
    let mut store = ParamStore::new();
    let params = ModelParams::register(&mut store, &ckg, &config, 8);
    let members = init::uniform(128 * 8, config.dim, 0.5, 2);
    let items = init::uniform(128, config.dim, 0.5, 3);
    suite.bench("attention SP+PI fwd+bwd b128 L8", || {
        let mut tape = Tape::new(&store);
        let m = tape.constant(members.clone());
        let v = tape.constant(items.clone());
        let out = group_attention(&mut tape, &params, &config, m, v, 8);
        let sq = tape.mul(out.group_rep, out.group_rep);
        let loss = tape.mean_all(sq);
        black_box(tape.backward(loss));
    });
}

fn bench_training_epoch(suite: &mut BenchSuite) {
    let (ds, split) = tiny();
    suite.bench_iters("KGAG 1 epoch (tiny)", 5, || {
        let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 1, ..Default::default() });
        black_box(model.fit(&split));
    });
    suite.bench_iters("MF 1 epoch (tiny)", 5, || {
        let mut model =
            MatrixFactorization::new(&ds, BaselineConfig { epochs: 1, ..Default::default() });
        black_box(model.fit(&split));
    });
}

fn bench_scoring(suite: &mut BenchSuite) {
    let (ds, split) = tiny();
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 1, ..Default::default() });
    model.fit(&split);
    let items: Vec<u32> = (0..ds.num_items).collect();
    suite.bench_iters(&format!("score 1 group x {} items", ds.num_items), 10, || {
        black_box(model.score_group_items(0, &items));
    });
    let v = ds.group_pos.items_of(0)[0];
    suite.bench_iters("explain 1 pair", 10, || {
        black_box(model.explain(0, v));
    });
}

fn main() {
    let mut suite = BenchSuite::new("model_blocks");
    bench_attention(&mut suite);
    bench_training_epoch(&mut suite);
    bench_scoring(&mut suite);
    suite.finish();
}
