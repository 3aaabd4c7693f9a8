//! Property tests of the evaluation protocol's candidate assembly: no
//! candidate ever carries the wrong label, under any density — including
//! groups positive on almost the whole catalog (where sampling hits its
//! tries cap and returns short) and negative budgets near or beyond
//! catalog size.

use kgag_eval::{
    evaluate_group_ranking, evaluate_group_ranking_detailed, EvalConfig, GroupEvalCase, GroupScorer,
};
use kgag_tensor::rng::SplitMix64;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u32_in, u64_in};
use kgag_testkit::prop_assert;
use std::sync::Mutex;

/// Records every candidate list the protocol asks it to score.
struct Probe {
    seen: Mutex<Vec<(u32, Vec<u32>)>>,
}

impl GroupScorer for Probe {
    fn score(&self, group: u32, items: &[u32]) -> Vec<f32> {
        self.seen.lock().unwrap().push((group, items.to_vec()));
        // deterministic, group-and-item dependent, so ranking is exercised
        items.iter().map(|&v| ((v ^ group).wrapping_mul(2654435761) % 997) as f32).collect()
    }
}

/// Random cases at controlled density. Group 0 is adversarially dense:
/// positive on everything except `num_items / 16 + 1` items.
fn build_cases(num_items: u32, rng: &mut SplitMix64) -> Vec<GroupEvalCase> {
    let mut cases = Vec::new();
    for g in 0..4u32 {
        let mut known: Vec<u32> = if g == 0 {
            let spare = num_items / 16 + 1;
            (0..num_items).filter(|v| v % (num_items / spare.min(num_items)).max(1) != 0).collect()
        } else {
            let density = 1 + rng.next_below(4) as u32; // keep 1-in-density items
            (0..num_items).filter(|_| rng.next_below(4) as u32 >= density).collect()
        };
        if known.is_empty() {
            known.push(rng.next_below(num_items as usize) as u32);
        }
        known.sort_unstable();
        known.dedup();
        // up to 3 of the known positives are held out as test items
        let n_test = 1 + rng.next_below(3.min(known.len()));
        let mut test: Vec<u32> = (0..n_test).map(|i| known[i * known.len() / n_test]).collect();
        test.sort_unstable();
        test.dedup();
        cases.push(GroupEvalCase { group: g, test_items: test, known_positives: known });
    }
    cases
}

/// Every candidate handed to the scorer is correctly labelled: it is a
/// test positive, or it is a true negative (not in `known_positives`).
/// Test positives are always present; candidates are never duplicated.
#[test]
fn candidates_never_mislabel_a_known_positive() {
    let gen = (u32_in(5..120), u32_in(1..150), u64_in(0..10_000));
    Runner::new("candidates_never_mislabel_a_known_positive").cases(64).run(
        &gen,
        |(num_items, num_negatives, seed)| {
            let (num_items, num_negatives) = (*num_items, *num_negatives as usize);
            let mut rng = SplitMix64::new(*seed);
            let cases = build_cases(num_items, &mut rng);
            let probe = Probe { seen: Mutex::new(Vec::new()) };
            let cfg = EvalConfig { k: 5, num_negatives: Some(num_negatives), seed: *seed };
            let _ = evaluate_group_ranking(&probe, num_items, &cases, &cfg);
            let seen = probe.seen.into_inner().unwrap();
            prop_assert!(seen.len() == cases.len(), "every case scored once");
            for (case, (group, candidates)) in cases.iter().zip(&seen) {
                prop_assert!(case.group == *group, "case order preserved");
                let mut dedup = candidates.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert!(
                    dedup.len() == candidates.len(),
                    "group {group}: duplicate candidates in {candidates:?}"
                );
                for &v in candidates {
                    prop_assert!(v < num_items, "group {group}: candidate {v} out of catalog");
                    let is_test = case.test_items.binary_search(&v).is_ok();
                    let is_known = case.known_positives.binary_search(&v).is_ok();
                    prop_assert!(
                        is_test || !is_known,
                        "group {group}: non-test known positive {v} sampled as negative \
                         (num_items {num_items}, n {num_negatives})"
                    );
                }
                for &t in &case.test_items {
                    prop_assert!(
                        candidates.contains(&t),
                        "group {group}: test positive {t} missing from candidates"
                    );
                }
                // the sampler can only run short when the catalog has too
                // few true negatives to fill the budget
                let true_negatives =
                    (num_items as usize).saturating_sub(case.known_positives.len());
                if candidates.len() < case.test_items.len() + num_negatives {
                    prop_assert!(
                        true_negatives < num_negatives,
                        "group {group}: short candidate list ({} < {} + {num_negatives}) \
                         despite {true_negatives} available negatives",
                        candidates.len(),
                        case.test_items.len()
                    );
                }
            }
            Ok(())
        },
    );
}

/// The guarantee holds with a negative budget past catalog size, and
/// in both regimes every case is scored under its own group. The
/// full-catalog regime hands each case the whole catalog and never lets
/// a non-test positive into the metric window (it is excluded at
/// ranking time instead).
#[test]
fn batched_and_full_catalog_regimes_preserve_labels() {
    let gen = (u32_in(8..80), u64_in(0..5_000));
    Runner::new("batched_and_full_catalog_regimes_preserve_labels").cases(32).run(
        &gen,
        |(num_items, seed)| {
            let num_items = *num_items;
            let mut rng = SplitMix64::new(*seed);
            let cases = build_cases(num_items, &mut rng);
            // sampled regime with a budget past catalog size
            let probe = Probe { seen: Mutex::new(Vec::new()) };
            let cfg =
                EvalConfig { k: 5, num_negatives: Some(num_items as usize + 10), seed: *seed };
            let _ = evaluate_group_ranking(&probe, num_items, &cases, &cfg);
            let seen = probe.seen.into_inner().unwrap();
            prop_assert!(seen.len() == cases.len(), "sampled: every case scored once");
            for (case, (group, candidates)) in cases.iter().zip(&seen) {
                prop_assert!(case.group == *group, "sampled: case scored under group {group}");
                for &v in candidates {
                    prop_assert!(
                        case.test_items.binary_search(&v).is_ok()
                            || case.known_positives.binary_search(&v).is_err(),
                        "sampled: mislabelled candidate {v}"
                    );
                }
            }
            // full catalog: each case sees the whole catalog under its own
            // group; a scorer that puts the case's non-test positives
            // first and its test items next must still hit every test
            // item, even on adversarially dense cases
            let probe = Probe { seen: Mutex::new(Vec::new()) };
            let full = EvalConfig { k: 5, num_negatives: None, seed: *seed };
            let _ = evaluate_group_ranking(&probe, num_items, &cases, &full);
            let catalog: Vec<u32> = (0..num_items).collect();
            let seen = probe.seen.into_inner().unwrap();
            prop_assert!(seen.len() == cases.len(), "full: every case scored once");
            for (case, (group, candidates)) in cases.iter().zip(&seen) {
                prop_assert!(case.group == *group, "full: case scored under group {group}");
                prop_assert!(*candidates == catalog, "full: group {group} missed catalog items");
            }
            let adversary = |g: u32, items: &[u32]| -> Vec<f32> {
                let case = &cases[g as usize];
                items
                    .iter()
                    .map(|v| {
                        match (case.test_items.contains(v), case.known_positives.contains(v)) {
                            (true, _) => 1.0,
                            (false, true) => 2.0,
                            (false, false) => 0.0,
                        }
                    })
                    .collect()
            };
            let (_, per_case) =
                evaluate_group_ranking_detailed(&adversary, num_items, &cases, &full);
            for (case, m) in cases.iter().zip(&per_case) {
                prop_assert!(
                    m.recall == 1.0,
                    "full: group {} let a non-test positive into the top-5: {m:?}",
                    case.group
                );
            }
            Ok(())
        },
    );
}
