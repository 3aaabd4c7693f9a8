//! Thread-count determinism matrix (the CI gate behind DESIGN.md §9).
//!
//! Every parallel kernel in the workspace is built so that each chunk
//! writes a preallocated output slot with unchanged per-element
//! accumulation order — results must therefore be *bit-identical* at any
//! `KGAG_THREADS`. This suite trains the smoke model end to end at 1 and
//! 4 logical threads (via the thread-local `with_threads` override, so
//! one process covers both CI matrix legs regardless of the ambient env)
//! and asserts exact equality of the checkpoint bytes, every per-epoch
//! loss, every evaluation metric and every inference score. The same
//! comparison with the JSONL telemetry sink on vs off proves telemetry
//! passive, and the emitted stream is schema-checked (DESIGN.md §10).

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_eval::{EvalConfig, MetricSummary};
use kgag_tensor::pool::with_threads;
use kgag_testkit::json::Json;
use std::collections::{HashMap, HashSet};

struct SmokeRun {
    checkpoint: Vec<u8>,
    losses: Vec<(f32, f32)>,
    metrics: MetricSummary,
    group_scores: Vec<f32>,
    user_scores: Vec<f32>,
}

/// Train the tiny-Yelp smoke model and capture everything the CI gate
/// compares across thread counts.
fn smoke_run() -> SmokeRun {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    assert!(!cases.is_empty(), "tiny world must produce test cases");

    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 6, ..Default::default() });
    let report = model.fit(&split);
    let metrics = model.evaluate(&cases, &EvalConfig::default());
    let items: Vec<u32> = (0..ds.num_items).collect();
    SmokeRun {
        checkpoint: model.save_checkpoint(),
        losses: report.epochs.iter().map(|e| (e.group, e.user)).collect(),
        metrics,
        group_scores: model.score_group_items(0, &items),
        user_scores: model.score_user_items(0, &items),
    }
}

#[test]
fn smoke_training_is_bit_identical_across_thread_counts() {
    let single = with_threads(1, smoke_run);
    let multi = with_threads(4, smoke_run);

    assert!(single.checkpoint == multi.checkpoint, "checkpoint bytes diverged");
    assert_eq!(single.losses, multi.losses, "per-epoch losses diverged between 1 and 4 threads");
    for (name, a, b) in [
        ("hit", single.metrics.hit, multi.metrics.hit),
        ("recall", single.metrics.recall, multi.metrics.recall),
        ("precision", single.metrics.precision, multi.metrics.precision),
        ("ndcg", single.metrics.ndcg, multi.metrics.ndcg),
        ("mrr", single.metrics.mrr, multi.metrics.mrr),
    ] {
        assert!(
            a.to_bits() == b.to_bits(),
            "metric {name} diverged: {a} (1 thread) vs {b} (4 threads)"
        );
    }
    assert_eq!(single.group_scores, multi.group_scores, "group scores diverged");
    assert_eq!(single.user_scores, multi.user_scores, "user scores diverged");
}

/// Check one JSONL telemetry stream: every line parses with the testkit
/// JSON parser and carries a known `ev` kind with that kind's required
/// fields, the instrumented smoke paths all appear, and the final
/// `flush()` left counter, gauge and hist snapshots.
fn validate_stream(text: &str) {
    let mut kinds: HashMap<String, usize> = HashMap::new();
    let mut names = HashSet::new();
    for (i, line) in text.lines().enumerate() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {i}: invalid JSON: {e}"));
        let field = |key: &str| {
            v.get(key).unwrap_or_else(|| panic!("line {i}: missing required field {key:?}"))
        };
        let ev = field("ev").as_str().unwrap_or_else(|| panic!("line {i}: \"ev\" not a string"));
        let name =
            field("name").as_str().unwrap_or_else(|| panic!("line {i}: \"name\" not a string"));
        let required: &[&str] = match ev {
            "meta" => &["version", "pid"],
            "span" => &["path", "start_ns", "dur_ns", "thread"],
            "counter" | "gauge" => &["value"],
            "hist" => &["count", "sum", "min", "max", "p50", "p90", "p99"],
            "point" => &[], // free-form fields by design
            other => panic!("line {i}: unknown ev kind {other:?}"),
        };
        for key in required {
            field(key);
        }
        names.insert(format!("{ev}:{name}"));
        *kinds.entry(ev.to_owned()).or_default() += 1;
    }
    for expected in
        ["meta:session", "span:trainer.fit", "span:eval.protocol", "point:trainer.epoch"]
    {
        assert!(names.contains(expected), "stream is missing the expected event {expected}");
    }
    for kind in ["counter", "gauge", "hist"] {
        assert!(kinds.contains_key(kind), "stream has no {kind} snapshot after flush()");
    }
}

/// Telemetry must be purely passive: the exact same smoke run with the
/// JSONL sink enabled produces bit-identical checkpoint bytes, losses,
/// metrics and inference scores. Spans and metrics only read clocks —
/// they never touch an RNG, a parameter or a score.
#[test]
fn telemetry_is_passive_bit_identical_on_vs_off() {
    assert!(!kgag_obs::enabled(), "unset KGAG_TELEMETRY: the off leg needs a quiet process");
    let off = with_threads(2, smoke_run);
    let path = std::env::temp_dir()
        .join(format!("kgag-determinism-telemetry-{}.jsonl", std::process::id()));
    kgag_obs::enable_to(&path).expect("enable telemetry");
    let on = with_threads(2, smoke_run);
    kgag_obs::flush();
    kgag_obs::disable();

    assert!(off.checkpoint == on.checkpoint, "checkpoint bytes changed under telemetry");
    assert_eq!(off.losses, on.losses, "per-epoch losses changed when telemetry was enabled");
    for (name, a, b) in [
        ("hit", off.metrics.hit, on.metrics.hit),
        ("recall", off.metrics.recall, on.metrics.recall),
        ("precision", off.metrics.precision, on.metrics.precision),
        ("ndcg", off.metrics.ndcg, on.metrics.ndcg),
        ("mrr", off.metrics.mrr, on.metrics.mrr),
    ] {
        assert!(
            a.to_bits() == b.to_bits(),
            "metric {name} changed when telemetry was enabled: {a} vs {b}"
        );
    }
    assert_eq!(off.group_scores, on.group_scores, "group scores changed under telemetry");
    assert_eq!(off.user_scores, on.user_scores, "user scores changed under telemetry");

    // and the run produced a well-formed stream (spans, epoch points, ...)
    let text = std::fs::read_to_string(&path).expect("telemetry file written");
    let _ = std::fs::remove_file(&path);
    assert!(text.lines().count() > 1, "telemetry run emitted no events");
    validate_stream(&text);
}

#[test]
fn inference_is_bit_identical_across_thread_counts() {
    // cheaper companion check: a 2-epoch model's full-catalog scores at
    // 1, 2 and 3 threads (odd counts exercise ragged band splits)
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 7);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 2, ..Default::default() });
    with_threads(1, || model.fit(&split));
    let items: Vec<u32> = (0..ds.num_items).collect();
    let reference = with_threads(1, || model.score_group_items(0, &items));
    for threads in [2usize, 3, 4] {
        let scores = with_threads(threads, || model.score_group_items(0, &items));
        assert_eq!(scores, reference, "scores diverged at {threads} threads");
    }
}
