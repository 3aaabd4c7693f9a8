//! End-to-end integration: dataset → split → KGAG training → evaluation
//! → explanation, across crate boundaries.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::{movielens_pair, MovieLensConfig, Scale};
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_eval::EvalConfig;

fn tiny_cfg(epochs: usize) -> KgagConfig {
    KgagConfig { epochs, ..Default::default() }
}

#[test]
fn training_beats_untrained_on_rand() {
    let (_, ds, _) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 42);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    assert!(!cases.is_empty());
    let ecfg = EvalConfig::default();

    let mut model = Kgag::new(&ds, &split, tiny_cfg(12));
    let before = model.evaluate(&cases, &ecfg);
    let report = model.fit(&split);
    let after = model.evaluate(&cases, &ecfg);

    assert_eq!(report.epochs.len(), 12);
    assert!(
        report.epochs.last().unwrap().group < report.epochs.first().unwrap().group,
        "group loss should decrease: {report:?}"
    );
    assert!(
        after.hit >= before.hit,
        "training should not hurt hit@5: {:.4} -> {:.4}",
        before.hit,
        after.hit
    );
    assert!(after.hit > 0.0, "trained model should hit at least once");
}

/// Workspace smoke test: the whole offline stack — synthetic dataset,
/// split, KGAG training, ranking evaluation, JSON rendering — works
/// end to end with no external dependency anywhere.
#[test]
fn workspace_smoke_train_and_rank() {
    use kgag_testkit::json::ToJson;

    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    assert!(!cases.is_empty(), "tiny world must produce test cases");

    let mut model = Kgag::new(&ds, &split, tiny_cfg(6));
    let report = model.fit(&split);
    assert_eq!(report.epochs.len(), 6);
    let first = report.epochs.first().unwrap();
    let last = report.epochs.last().unwrap();
    assert!(
        last.group < first.group,
        "group loss should decrease: {:.4} -> {:.4}",
        first.group,
        last.group
    );

    let summary = model.evaluate(&cases, &EvalConfig::default());
    for (name, v) in [
        ("hit", summary.hit),
        ("recall", summary.recall),
        ("precision", summary.precision),
        ("ndcg", summary.ndcg),
        ("mrr", summary.mrr),
    ] {
        assert!((0.0..=1.0).contains(&v), "{name} = {v} outside [0, 1]");
    }

    // the report and summary serialise through the in-workspace writer
    let text = summary.to_json().to_string_pretty();
    assert!(text.contains("\"hit\""), "{text}");
    let text = report.to_json().to_string_pretty();
    assert!(text.contains("\"epochs\""), "{text}");
}

#[test]
fn every_ablation_trains_and_evaluates() {
    let (_, ds, _) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 5);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    let ecfg = EvalConfig::default();
    let base = tiny_cfg(3);
    for (name, cfg) in [
        ("full", base.clone()),
        ("-KG", base.clone().ablate_kg()),
        ("-SP", base.clone().ablate_sp()),
        ("-PI", base.clone().ablate_pi()),
        ("BPR", base.clone().with_bpr()),
        ("GraphSage", KgagConfig { backend: kgag::Backend::GraphSage, ..base.clone() }),
        ("H1", KgagConfig { layers: 1, ..base.clone() }),
        ("no-residual", KgagConfig { residual: false, ..base }),
    ] {
        let mut model = Kgag::new(&ds, &split, cfg);
        let report = model.fit(&split);
        assert!(
            report.epochs.iter().all(|e| e.group.is_finite() && e.user.is_finite()),
            "{name}: non-finite loss"
        );
        let s = model.evaluate(&cases, &ecfg);
        assert!((0.0..=1.0).contains(&s.hit), "{name}: hit out of range");
        assert!(s.recall <= s.hit + 1e-9, "{name}: rec@5 can never exceed hit@5");
    }
}

#[test]
fn explanations_are_valid_distributions() {
    let (_, ds, _) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 6);
    let mut model = Kgag::new(&ds, &split, tiny_cfg(4));
    model.fit(&split);
    for g in 0..ds.num_groups().min(10) {
        for &v in ds.group_pos.items_of(g).iter().take(2) {
            let e = model.explain(g, v);
            assert!(e.is_well_formed(), "group {g} item {v}: {e:?}");
            assert_eq!(e.members.len(), ds.group_size);
            let sum: f32 = e.alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3);
        }
    }
}

#[test]
fn scoring_is_deterministic() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 7);
    let mut model = Kgag::new(&ds, &split, tiny_cfg(2));
    model.fit(&split);
    let items: Vec<u32> = (0..ds.num_items).collect();
    let a = model.score_group_items(0, &items);
    let b = model.score_group_items(0, &items);
    assert_eq!(a, b, "same model + same inputs must give identical scores");
}

#[test]
fn group_scores_depend_on_the_group() {
    let (_, ds, _) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 8);
    let mut model = Kgag::new(&ds, &split, tiny_cfg(4));
    model.fit(&split);
    let items: Vec<u32> = (0..20).collect();
    let a = model.score_group_items(0, &items);
    let b = model.score_group_items(1, &items);
    assert_ne!(a, b, "different groups should get different scores");
}

#[test]
fn user_scores_are_probabilities_and_user_specific() {
    let (_, ds, _) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 9);
    let mut model = Kgag::new(&ds, &split, tiny_cfg(3));
    model.fit(&split);
    let items: Vec<u32> = (0..30).collect();
    let a = model.score_user_items(0, &items);
    let b = model.score_user_items(1, &items);
    assert!(a.iter().chain(&b).all(|s| (0.0..=1.0).contains(s)));
    assert_ne!(a, b);
}

#[test]
fn collaborative_kg_excludes_heldout_interact_edges() {
    // leakage check at the graph level: for a held-out (g, v), no member
    // of g may have an Interact edge to v in the model's collaborative KG
    let (_, ds, _) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 10);
    let model = Kgag::new(&ds, &split, tiny_cfg(1));
    let ckg = model.collaborative_kg();
    for &(g, v) in split.group.test.iter().take(50) {
        let item_ent = ckg.item_entity(v);
        for &m in ds.members(g) {
            let user_ent = ckg.user_entity(m);
            let linked = ckg.graph().neighbors(user_ent).any(|(n, _)| n == item_ent);
            assert!(!linked, "leak: user {m} linked to held-out item {v} of group {g}");
        }
    }
}

#[test]
fn checkpoint_round_trip_preserves_scores() {
    let (_, ds, _) = movielens_pair(&MovieLensConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 13);
    let mut model = Kgag::new(&ds, &split, tiny_cfg(3));
    model.fit(&split);
    let items: Vec<u32> = (0..ds.num_items).collect();
    let before = model.score_group_items(0, &items);
    let blob = model.save_checkpoint();

    // a fresh model scores differently until the checkpoint is loaded
    let mut fresh = Kgag::new(&ds, &split, tiny_cfg(3));
    assert_ne!(fresh.score_group_items(0, &items), before);
    let restored = fresh.load_checkpoint(&blob).expect("load");
    assert!(restored > 0);
    assert_eq!(fresh.score_group_items(0, &items), before);
}
