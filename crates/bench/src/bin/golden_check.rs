//! CI golden-file regression gate: train the fixed-seed smoke model and
//! compare its losses and metrics *bit-identically* against the
//! committed `results/golden_smoke.json` — and, in its `baselines`
//! section, those of MF, KGCN and MoSAN trained on the same split.
//!
//! ```text
//! golden_check [--baseline PATH] [--write-baseline]
//! ```
//!
//! * `--baseline` — committed reference file (default
//!   `results/golden_smoke.json`, resolved from the invocation
//!   directory — ci.sh runs this from the repo root);
//! * `--write-baseline` — regenerate the baseline after an
//!   *intentional* numerics change (`./ci.sh --golden-baseline`).
//!
//! Exact equality is sound here because the whole stack is
//! deterministic at any thread count, f64 `Display` is shortest
//! round-trip, and `Json::parse` reads floats back with
//! `str::parse::<f64>` — so a baseline survives serialisation bit for
//! bit and *any* numeric drift (a reordered reduction, a changed salt,
//! an off-by-one in sampling) fails the gate instead of hiding inside a
//! tolerance. The run also cross-checks the engine: its summaries must
//! equal the tape reference's, through the same protocol, exactly before
//! the baseline comparison even starts.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig, TrainReport};
use kgag_baselines::{
    AggregatedGroupScorer, BaselineConfig, Kgcn, KgcnConfig, MatrixFactorization, Mosan,
    MosanConfig, ScoreAggregator,
};
use kgag_data::movielens::Scale;
use kgag_data::split::{split_dataset, DatasetSplit};
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_eval::{evaluate_group_ranking, BatchGroupScorer, EvalConfig, GroupEvalCase};
use kgag_testkit::json::{Json, ToJson};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Split seed shared with the CLI's train path.
const SPLIT_SEED: u64 = 0x5eed;

struct Args {
    baseline: PathBuf,
    write_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { baseline: PathBuf::from("results/golden_smoke.json"), write_baseline: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--baseline" => args.baseline = it.next().ok_or("--baseline needs a path")?.into(),
            "--write-baseline" => args.write_baseline = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// The fixed-seed smoke run, captured as JSON. Every value is produced
/// deterministically, so the payload is a pure function of the code.
fn golden_run() -> Json {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, SPLIT_SEED);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 4, ..Default::default() });
    let report = model.fit(&split);
    let ecfg = EvalConfig { k: 5, num_negatives: Some(100), seed: 0xe7a1 };
    let val = eval_cases(&ds, &split.group, EvalBucket::Validation);
    let test = eval_cases(&ds, &split.group, EvalBucket::Test);
    let val_summary = model.evaluate(&val, &ecfg);
    let test_summary = model.evaluate(&test, &ecfg);
    // the engine must agree with the tape reference before we even look
    // at the baseline — a divergence here is an engine bug, not a
    // numerics change
    let tape = |g: u32, items: &[u32]| model.tape_reference_scores(ds.members(g), items);
    assert_eq!(
        evaluate_group_ranking(&tape, model.num_items(), &val, &ecfg),
        val_summary,
        "engine validation metrics diverged from the tape reference"
    );
    assert_eq!(
        evaluate_group_ranking(&tape, model.num_items(), &test, &ecfg),
        test_summary,
        "engine test metrics diverged from the tape reference"
    );
    Json::obj(vec![
        ("dataset", ds.name.to_json()),
        ("split_seed", Json::Float(SPLIT_SEED as f64)),
        ("epochs", report.epochs.to_json()),
        ("validation", val_summary.to_json()),
        ("test", test_summary.to_json()),
        ("baselines", baselines_run(&ds, &split, &test, &ecfg)),
    ])
}

/// The trained baselines on the same split, 2 epochs each: their
/// per-epoch losses and test metrics (CF+AVG and KGCN+AVG through the
/// average aggregator, MoSAN directly).
fn baselines_run(
    ds: &GroupDataset,
    split: &DatasetSplit,
    test: &[GroupEvalCase],
    ecfg: &EvalConfig,
) -> Json {
    let base = BaselineConfig { epochs: 2, ..Default::default() };
    let entry = |report: TrainReport, scorer: &dyn BatchGroupScorer| {
        let summary = evaluate_group_ranking(scorer, ds.num_items, test, ecfg);
        Json::obj(vec![("epochs", report.epochs.to_json()), ("test", summary.to_json())])
    };
    let mut mf = MatrixFactorization::new(ds, base.clone());
    let mf_report = mf.fit(split);
    let mut kgcn = Kgcn::new(ds, KgcnConfig { base: base.clone(), ..Default::default() });
    let kgcn_report = kgcn.fit(split);
    let mut mosan = Mosan::new(ds, split, MosanConfig { base, ..Default::default() });
    let mosan_report = mosan.fit(split);
    let avg = ScoreAggregator::Average;
    Json::obj(vec![
        ("mf", entry(mf_report, &AggregatedGroupScorer::new(&mf, &ds.groups, avg))),
        ("kgcn", entry(kgcn_report, &AggregatedGroupScorer::new(&kgcn, &ds.groups, avg))),
        ("mosan", entry(mosan_report, &mosan)),
    ])
}

fn write_baseline(path: &Path, payload: &Json) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("bad baseline path {}", path.display()))?;
    let written = kgag_testkit::json::write_json_file(dir, stem, payload)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("golden baseline written to {}", written.display());
    Ok(())
}

/// Walk both values and report every leaf that differs (far more useful
/// than a single "not equal" when a numerics change touches one metric).
fn diff(path: &str, want: &Json, got: &Json, out: &mut Vec<String>) {
    match (want, got) {
        (Json::Obj(w), Json::Obj(g)) => {
            for (k, wv) in w {
                match g.iter().find(|(k2, _)| k2 == k) {
                    Some((_, gv)) => diff(&format!("{path}.{k}"), wv, gv, out),
                    None => out.push(format!("{path}.{k}: missing from current run")),
                }
            }
            for (k, _) in g {
                if !w.iter().any(|(k2, _)| k2 == k) {
                    out.push(format!("{path}.{k}: not in baseline"));
                }
            }
        }
        (Json::Arr(w), Json::Arr(g)) => {
            if w.len() != g.len() {
                out.push(format!("{path}: length {} vs {}", w.len(), g.len()));
                return;
            }
            for (i, (wv, gv)) in w.iter().zip(g).enumerate() {
                diff(&format!("{path}[{i}]"), wv, gv, out);
            }
        }
        _ if want == got => {}
        _ => out.push(format!("{path}: baseline {want:?} vs current {got:?}")),
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    println!("golden_check: training the fixed-seed smoke model...");
    let payload = golden_run();
    if args.write_baseline {
        write_baseline(&args.baseline, &payload)?;
        return Ok(true);
    }
    let text = std::fs::read_to_string(&args.baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", args.baseline.display()))?;
    let baseline = Json::parse(&text).map_err(|e| format!("{}: {e}", args.baseline.display()))?;
    let mut divergences = Vec::new();
    diff("$", &baseline, &payload, &mut divergences);
    if divergences.is_empty() {
        println!(
            "golden_check: run matches {} exactly (losses, validation, test, baselines)",
            args.baseline.display()
        );
        return Ok(true);
    }
    eprintln!(
        "golden_check: {} divergence(s) from {}:",
        divergences.len(),
        args.baseline.display()
    );
    for d in &divergences {
        eprintln!("  {d}");
    }
    eprintln!(
        "\nIf this change to the numerics is intentional, refresh with \
         `./ci.sh --golden-baseline` and commit the result."
    );
    Ok(false)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("golden_check: {e}");
            ExitCode::FAILURE
        }
    }
}
