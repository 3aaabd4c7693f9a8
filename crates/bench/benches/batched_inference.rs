//! Batched-inference benchmark (DESIGN.md §11): the tape reference
//! ([`kgag::Kgag::tape_reference_scores`], one case at a time with
//! live-sampled fields) against the [`kgag::BatchScorer`] with its
//! receptive-field cache cold (built inside the timed region) and warm
//! (built once, reused — the steady-state serving shape), plus a
//! chunk-size sweep.
//!
//! All variants are timed at 4 threads through `with_threads`, so the
//! comparison isolates the engine (cache amortisation + cross-case
//! fusion) from pool width. The JSON artifact carries `speedup_cold`
//! and `speedup_warm` annotations (per-case median / batched median);
//! the bit-identity of the two paths is enforced by
//! `crates/core/tests/batched_oracle.rs`, so this file measures time
//! and nothing else.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_tensor::pool::with_threads;
use kgag_testkit::bench::{black_box, BenchSuite};
use kgag_testkit::json::Json;

const THREADS: usize = 4;
const CHUNK_SIZES: [usize; 3] = [64, 256, 1024];

fn main() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 2, ..Default::default() });
    with_threads(THREADS, || model.fit(&split));

    // the serving workload: every test group scoring the full catalog
    let items: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> = eval_cases(&ds, &split.group, EvalBucket::Test)
        .iter()
        .map(|c| (c.group, items.clone()))
        .collect();
    let instances = cases.len() * items.len();

    let mut suite = BenchSuite::new("batched_inference");
    suite.annotate("cases", Json::Float(cases.len() as f64));
    suite.annotate("instances", Json::Float(instances as f64));
    suite.annotate("threads", Json::Float(THREADS as f64));

    let label = format!("per_case {} cases t{THREADS}", cases.len());
    with_threads(THREADS, || {
        suite.bench(&label, || {
            for (g, its) in &cases {
                black_box(model.tape_reference_scores(ds.members(*g), its));
            }
        })
    });
    let per_case_ns = suite.results().last().unwrap().median_ns;

    // cold: the RfCache pair is rebuilt inside the timed region — the
    // one-shot cost a fresh checkpoint pays before its first batch
    let label = format!("batched cold {} cases t{THREADS}", cases.len());
    with_threads(THREADS, || {
        suite.bench(&label, || {
            let scorer = model.batch_scorer_with(true);
            black_box(scorer.score_cases(&cases));
        })
    });
    let cold_ns = suite.results().last().unwrap().median_ns;

    // warm: cache built once and reused — steady-state serving
    let warm = model.batch_scorer_with(true);
    let label = format!("batched warm {} cases t{THREADS}", cases.len());
    with_threads(THREADS, || {
        suite.bench(&label, || {
            black_box(warm.score_cases(&cases));
        })
    });
    let warm_ns = suite.results().last().unwrap().median_ns;

    // chunk-size sweep (warm): scheduling overhead vs tape size
    for chunk in CHUNK_SIZES {
        let scorer = model.batch_scorer_with(true).with_batch_instances(chunk);
        let label = format!("batched warm chunk={chunk} t{THREADS}");
        with_threads(THREADS, || {
            suite.bench(&label, || {
                black_box(scorer.score_cases(&cases));
            })
        });
    }

    // uncached batching isolates the fusion win from the cache win
    let live = model.batch_scorer_with(false);
    let label = format!("batched no-cache {} cases t{THREADS}", cases.len());
    with_threads(THREADS, || {
        suite.bench(&label, || {
            black_box(live.score_cases(&cases));
        })
    });
    let live_ns = suite.results().last().unwrap().median_ns;

    suite.annotate("speedup_cold", Json::Float(per_case_ns / cold_ns));
    suite.annotate("speedup_warm", Json::Float(per_case_ns / warm_ns));
    suite.annotate("speedup_no_cache", Json::Float(per_case_ns / live_ns));
    suite.finish();
}
