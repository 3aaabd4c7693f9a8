//! Micro-benchmarks of the tensor/autodiff substrate: the hot ops of
//! the propagation and attention blocks, forward and backward, and the
//! inference engine's two packed `d = 16` kernels at served shapes.

use kgag_tensor::infer::{node_update, peer_influence, Activation, FusedAggregation, Rows};
use kgag_tensor::{init, tanh, ParamStore, Tape, Tensor};
use kgag_testkit::bench::{black_box, BenchSuite};
use kgag_testkit::json::Json;

fn bench_matmul(suite: &mut BenchSuite) {
    for &n in &[32usize, 128, 512] {
        let a = init::uniform(n, 32, 1.0, 1);
        let b = init::uniform(32, 32, 1.0, 2);
        suite.bench(&format!("matmul {n}x32 * 32x32"), || {
            black_box(a.matmul(&b));
        });
    }
}

fn bench_gather_backward(suite: &mut BenchSuite) {
    let mut store = ParamStore::new();
    let emb = store.register("emb", init::uniform(10_000, 32, 0.1, 3));
    for &rows in &[256usize, 2048] {
        let idx: Vec<u32> = (0..rows as u32).map(|i| (i * 37) % 10_000).collect();
        suite.bench(&format!("gather+backward {rows} rows of 10k x 32"), || {
            let mut tape = Tape::new(&store);
            let x = tape.gather(emb, &idx);
            let s = tape.sum_all(x);
            black_box(tape.backward(s));
        });
    }
}

fn bench_grouped_ops(suite: &mut BenchSuite) {
    let store = ParamStore::new();
    let rows = 4096usize;
    let k = 4usize;
    let logits = Tensor::from_vec(rows, 1, (0..rows).map(|i| (i % 13) as f32 * 0.1).collect());
    let values = init::uniform(rows, 32, 1.0, 7);
    suite.bench("softmax_groups 4096/4", || {
        let mut tape = Tape::new(&store);
        let l = tape.constant(logits.clone());
        black_box(tape.softmax_groups(l, k));
    });
    suite.bench("group_weighted_sum 4096x32/4", || {
        let mut tape = Tape::new(&store);
        let l = tape.constant(logits.clone());
        let w = tape.softmax_groups(l, k);
        let v = tape.constant(values.clone());
        black_box(tape.group_weighted_sum(w, v, k));
    });
    let members = init::uniform(1024, 32, 1.0, 9);
    suite.bench("peer_concat 1024x32/8", || {
        let mut tape = Tape::new(&store);
        let m = tape.constant(members.clone());
        black_box(tape.peer_concat(m, 8));
    });
}

fn bench_losses(suite: &mut BenchSuite) {
    let store = ParamStore::new();
    let pos = init::uniform(512, 1, 2.0, 11);
    let neg = init::uniform(512, 1, 2.0, 12);
    suite.bench("margin_loss fwd+bwd b512", || {
        let mut tape = Tape::new(&store);
        let p = tape.constant(pos.clone());
        let n = tape.constant(neg.clone());
        let l = kgag::loss::margin_group_loss(&mut tape, p, n, 0.4);
        black_box(tape.backward(l));
    });
    suite.bench("bpr_loss fwd+bwd b512", || {
        let mut tape = Tape::new(&store);
        let p = tape.constant(pos.clone());
        let n = tape.constant(neg.clone());
        let l = kgag::loss::bpr_group_loss(&mut tape, p, n);
        black_box(tape.backward(l));
    });
}

/// The in-house tanh, 16 lanes at a time, against the platform's
/// `f32::tanh` on the same 4096 inputs in [-3, 3) — the range of the
/// last propagation layer's pre-activations — with the medians also
/// reported in ns per element.
fn bench_tanh(suite: &mut BenchSuite) {
    const N: usize = 4096;
    let xs = init::uniform(N, 1, 3.0, 13).data().to_vec();
    let mut buf = xs.clone();
    suite.bench("tanh 16-lane 4096 elements", || {
        buf.copy_from_slice(&xs);
        tanh::tanh_inplace(black_box(&mut buf));
        black_box(&buf);
    });
    suite.bench("tanh f32::tanh 4096 elements", || {
        for (b, &x) in buf.iter_mut().zip(black_box(&xs)) {
            *b = x.tanh();
        }
        black_box(&buf);
    });
    let mut per_element = Vec::new();
    for r in &suite.results()[suite.results().len() - 2..] {
        let ns = r.median_ns / N as f64;
        println!("{}: {ns:.2} ns/element", r.name);
        per_element.push((r.name.clone(), Json::Float(ns)));
    }
    suite.annotate("tanh_ns_per_element", Json::Obj(per_element));
}

/// The engine's packed kernels at `d = 16`: one propagation level's
/// node update over 4096 rows of `K = 8` children, rows read in place by
/// id as the engine reads them, under the hidden layers' ReLU and the
/// last layer's tanh; and the peer-influence tower over 512 groups of
/// `L = 8` members.
fn bench_infer(suite: &mut BenchSuite) {
    const D: usize = 16;
    const ROWS: usize = 4096;
    const K: usize = 8;
    let table = init::uniform(ROWS, D, 1.0, 14).data().to_vec();
    let own: Vec<u32> = (0..ROWS as u32).map(|i| (i * 37) % ROWS as u32).collect();
    let children: Vec<u32> = (0..(ROWS * K) as u32).map(|i| (i * 101) % ROWS as u32).collect();
    let weights = init::uniform(ROWS * K, 1, 0.25, 15).data().to_vec();
    let w = init::uniform(D, D, 0.5, 16).data().to_vec();
    let bias = init::uniform(1, D, 0.1, 17).data().to_vec();
    let mut out = Vec::new();
    for (act, name) in [(Activation::Relu, "relu"), (Activation::Tanh, "tanh")] {
        suite.bench(&format!("node_update {ROWS} rows K{K} d{D} {name}"), || {
            let own = Rows::ById { table: &table, ids: &own };
            let children = Rows::ById { table: &table, ids: &children };
            let plan = FusedAggregation::SumSelf;
            node_update(plan, own, children, &weights, K, D, &w, &bias, act, &mut out);
            black_box(&out);
        });
    }
    const GROUPS: usize = 512;
    const L: usize = 8;
    let members = init::uniform(GROUPS * L, D, 1.0, 18).data().to_vec();
    let w2 = init::uniform((L - 1) * D, D, 0.5, 19).data().to_vec();
    let v = init::uniform(D, 1, 0.5, 20).data().to_vec();
    let scale = 1.0 / (D as f32).sqrt();
    suite.bench(&format!("pi_tower {GROUPS} groups L{L} d{D}"), || {
        peer_influence(&members, L, D, &w, &w2, &bias, &v, scale, &mut out);
        black_box(&out);
    });
}

fn main() {
    let mut suite = BenchSuite::new("tensor_ops");
    bench_matmul(&mut suite);
    bench_gather_backward(&mut suite);
    bench_grouped_ops(&mut suite);
    bench_losses(&mut suite);
    bench_tanh(&mut suite);
    bench_infer(&mut suite);
    suite.finish();
}
