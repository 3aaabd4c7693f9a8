//! Benchmarks of the information propagation block, exercising the
//! paper's complexity analysis: cost grows as O(K^H · d²) per target, so
//! the K- and H-sweeps below should scale accordingly. Also compares the
//! GCN and GraphSage aggregators (Table IV's cost side) and the
//! receptive-field sampler.

use kgag::config::Backend;
use kgag::model::PropagationParams;
use kgag::propagation::propagate;
use kgag::KgagConfig;
use kgag_data::movielens::{movielens_rand, MovieLensConfig, Scale};
use kgag_data::split::split_dataset;
use kgag_kg::{CollaborativeKg, NeighborSampler};
use kgag_tensor::{init, ParamStore, Tape};
use kgag_testkit::bench::{black_box, BenchSuite};

fn fixture(
    dim: usize,
    layers: usize,
    aggregator: Backend,
) -> (CollaborativeKg, ParamStore, PropagationParams) {
    let ds = movielens_rand(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 1);
    let ckg = ds.collaborative_kg_from(&split.user_train);
    let mut store = ParamStore::new();
    let cfg = KgagConfig { dim, layers, backend: aggregator, ..Default::default() };
    let params = PropagationParams::register_for_graph(
        &mut store,
        ckg.num_entities(),
        ckg.num_relation_slots(),
        &cfg,
    );
    (ckg, store, params)
}

fn bench_sampler(suite: &mut BenchSuite) {
    let (ckg, _, _) = fixture(16, 2, Backend::Gcn);
    let targets: Vec<u32> = (0..256u32).map(|i| i % ckg.num_entities() as u32).collect();
    for &k in &[4usize, 8] {
        let sampler = NeighborSampler::new(k, 5);
        suite.bench(&format!("receptive_field 256 targets K={k} H=2"), || {
            black_box(sampler.receptive_field(ckg.graph(), &targets, 2, 0));
        });
    }
}

fn bench_depth_sweep(suite: &mut BenchSuite) {
    // the O(K^H) blow-up of the paper's complexity analysis
    for &h in &[1usize, 2, 3] {
        let (ckg, store, params) = fixture(16, h, Backend::Gcn);
        let sampler = NeighborSampler::new(4, 5);
        let targets: Vec<u32> = (0..128u32).collect();
        let rf = sampler.receptive_field(ckg.graph(), &targets, h, 0);
        let query = init::uniform(128, 16, 0.5, 3);
        suite.bench_iters(&format!("propagate H={h} fwd+bwd b128 d16 K4"), 10, || {
            let mut tape = Tape::new(&store);
            let q = tape.constant(query.clone());
            let out = propagate(&mut tape, &params, Backend::Gcn, &rf, q);
            let sq = tape.mul(out, out);
            let loss = tape.mean_all(sq);
            black_box(tape.backward(loss));
        });
    }
}

fn bench_aggregators(suite: &mut BenchSuite) {
    for (name, agg) in [("GCN", Backend::Gcn), ("GraphSage", Backend::GraphSage)] {
        let (ckg, store, params) = fixture(16, 2, agg);
        let sampler = NeighborSampler::new(4, 5);
        let targets: Vec<u32> = (0..128u32).collect();
        let rf = sampler.receptive_field(ckg.graph(), &targets, 2, 0);
        let query = init::uniform(128, 16, 0.5, 3);
        suite.bench_iters(&format!("aggregator {name}"), 10, || {
            let mut tape = Tape::new(&store);
            let q = tape.constant(query.clone());
            black_box(propagate(&mut tape, &params, agg, &rf, q));
        });
    }
}

fn main() {
    let mut suite = BenchSuite::new("propagation");
    bench_sampler(&mut suite);
    bench_depth_sweep(&mut suite);
    bench_aggregators(&mut suite);
    suite.finish();
}
