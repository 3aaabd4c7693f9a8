//! Inference-engine cost breakdown (DESIGN.md §14) at the repository
//! benchmark's `catalog` shape: the MovieLens-Rand `small` model
//! trained two epochs (L = 8, K = 8, H = 2), eight groups each ranking
//! the whole catalog through the warm [`kgag::BatchScorer`] on one
//! thread.
//!
//! At the default d = 16, one timed sweep gives the single-thread ns
//! per candidate, and one more sweep with telemetry on reads the
//! engine's passive stage counters (`infer.stage.*_ns`,
//! `infer.relation_dots`) and stamps them per candidate as annotations —
//! the numbers behind the "Inference cost breakdown" table in
//! EXPERIMENTS.md. Timed sweeps at the other widths in [`DIMS`] show
//! what the register tiles cost where the 16-wide tile does not cover a
//! row exactly once.

use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::{movielens_pair, MovieLensConfig, Scale};
use kgag_data::split::split_dataset;
use kgag_tensor::pool::with_threads;
use kgag_testkit::bench::{black_box, BenchSuite};
use kgag_testkit::json::Json;

const GROUPS: u32 = 8;
const STAGES: [&str; 4] = ["fields", "attention", "propagate", "aggregate"];
/// Embedding widths timed: the default 16 (one 16-wide tile a row),
/// 8 and 12 (the 4-wide fallback) and 32 and 64 (several 16-wide
/// tiles a row).
const DIMS: [usize; 5] = [16, 8, 12, 32, 64];

fn main() {
    let ds = movielens_pair(&MovieLensConfig::at_scale(Scale::Small)).1;
    let split = split_dataset(&ds, 0x5eed);
    let catalog: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> = (0..GROUPS).map(|g| (g, catalog.clone())).collect();
    let candidates = (cases.len() * catalog.len()) as f64;

    let mut suite = BenchSuite::new("engine_stages");
    suite.annotate("candidates", Json::Float(candidates));
    for dim in DIMS {
        let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 2, dim, ..Default::default() });
        model.fit(&split);
        let scorer = model.batch_scorer();
        let label = format!("score {GROUPS} groups x {} items d{dim} t1", catalog.len());
        with_threads(1, || {
            suite.bench(&label, || {
                black_box(scorer.score_cases(&cases));
            })
        });
        let median_ns = suite.results().last().expect("one result").median_ns;
        suite.annotate(&format!("ns_per_candidate_d{dim}"), Json::Float(median_ns / candidates));
        if dim == KgagConfig::default().dim {
            annotate_stages(&mut suite, || black_box(scorer.score_cases(&cases)), candidates);
        }
    }
    suite.finish();
}

/// Run `sweep` once on one thread with telemetry on and stamp the
/// engine's stage counters per candidate.
fn annotate_stages<R>(suite: &mut BenchSuite, sweep: impl FnOnce() -> R, candidates: f64) {
    let counters: Vec<String> = STAGES
        .iter()
        .map(|s| format!("infer.stage.{s}_ns"))
        .chain(["infer.relation_dots".to_owned()])
        .collect();
    let read = || counters.iter().map(|c| kgag_obs::counter(c).get()).collect::<Vec<u64>>();
    let sink =
        std::env::temp_dir().join(format!("kgag_engine_stages_{}.jsonl", std::process::id()));
    kgag_obs::enable_to(&sink).expect("telemetry sink");
    let before = read();
    with_threads(1, sweep);
    let after = read();
    kgag_obs::disable();
    let _ = std::fs::remove_file(&sink);
    for ((name, b), a) in counters.iter().zip(before).zip(after) {
        let per_candidate = (a - b) as f64 / candidates;
        println!("{name:<32} {per_candidate:>10.1} per candidate");
        suite.annotate(&format!("{name}_per_candidate"), Json::Float(per_candidate));
    }
}
