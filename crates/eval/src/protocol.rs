//! The shared group-ranking evaluation protocol.
//!
//! Every model in the workspace (KGAG, its ablations, and all baselines)
//! is evaluated identically: for each group with held-out positives,
//! build a candidate list, ask the model to score it, rank, and average
//! [`crate::RankingMetrics`] over groups. Centralising the protocol here
//! guarantees Table II compares models and nothing else.
//!
//! Two candidate regimes are supported:
//!
//! * **Full catalog** (`num_negatives: None`) — rank every item except
//!   the group's non-test known positives. Exact but O(groups · items)
//!   model calls.
//! * **Sampled negatives** (`num_negatives: Some(n)`) — rank the test
//!   positives among `n` sampled true negatives (the NCF/AGREE
//!   protocol). This is what the experiment binaries use; it preserves
//!   orderings at a fraction of the cost.

use crate::metrics::{ranking_metrics, MetricAccumulator, MetricSummary};
use crate::ranking::top_k;
use kgag_tensor::rng::{derive_seed, SplitMix64};

/// A model that can score a list of items for a group.
pub trait GroupScorer {
    /// Scores aligned with `items` (higher = more recommended) for the
    /// group with id `group`.
    fn score(&self, group: u32, items: &[u32]) -> Vec<f32>;
}

impl<F> GroupScorer for F
where
    F: Fn(u32, &[u32]) -> Vec<f32>,
{
    fn score(&self, group: u32, items: &[u32]) -> Vec<f32> {
        self(group, items)
    }
}

/// A model that scores many `(group, candidate list)` cases in one
/// call — the one entry point of the evaluation protocol. The result
/// aligns with `cases` (outer) and each case's items (inner). An
/// implementation may fuse cases into larger passes (the KGAG engine
/// does), but each score must be a function of its own `(group, item)`
/// alone, so fusing never changes a metric. Every per-case
/// [`GroupScorer`] — each baseline, and any `Fn(u32, &[u32]) ->
/// Vec<f32>` closure — is one through the blanket impl, which scores
/// the cases one at a time in order.
pub trait BatchGroupScorer {
    /// One score vector per case, each aligned with that case's items.
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>>;
}

impl<T: GroupScorer + ?Sized> BatchGroupScorer for T {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        cases.iter().map(|(group, items)| self.score(*group, items)).collect()
    }
}

/// One group's evaluation inputs.
#[derive(Clone, Debug)]
pub struct GroupEvalCase {
    /// Group id handed to the scorer.
    pub group: u32,
    /// Held-out positives (sorted, non-empty).
    pub test_items: Vec<u32>,
    /// All *known* positives of the group — train, validation and test —
    /// sorted. Used to exclude non-test positives from ranking and to
    /// reject false negatives during sampling.
    pub known_positives: Vec<u32>,
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Ranking cutoff `k` (the paper reports k = 5).
    pub k: usize,
    /// `Some(n)`: sampled-negative regime with `n` negatives per group;
    /// `None`: full-catalog regime.
    pub num_negatives: Option<usize>,
    /// Seed for negative sampling.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { k: 5, num_negatives: Some(100), seed: 0xe7a1 }
    }
}

/// Run the protocol over `cases` and average the metrics. Cases with no
/// test items are skipped (callers usually pre-filter).
///
/// # Panics
/// Panics when no case is evaluable or the scorer returns misaligned
/// results.
pub fn evaluate_group_ranking(
    scorer: &dyn BatchGroupScorer,
    num_items: u32,
    cases: &[GroupEvalCase],
    config: &EvalConfig,
) -> MetricSummary {
    evaluate_group_ranking_detailed(scorer, num_items, cases, config).0
}

/// Like [`evaluate_group_ranking`] but also returns the per-case
/// metrics (aligned with the evaluable cases in order), for paired
/// significance testing — see [`crate::significance`].
///
/// Three phases: every candidate list is drawn from one RNG stream in
/// case order (a skipped case draws nothing), one `score_batch` call
/// scores them all, and each case is ranked and reduced to metrics.
pub fn evaluate_group_ranking_detailed(
    scorer: &dyn BatchGroupScorer,
    num_items: u32,
    cases: &[GroupEvalCase],
    config: &EvalConfig,
) -> (MetricSummary, Vec<crate::RankingMetrics>) {
    let _span = kgag_obs::span("eval.protocol");
    let telemetry = kgag_obs::enabled();
    // phase 1: assemble every candidate list
    let mut rng = SplitMix64::new(derive_seed(config.seed, "protocol"));
    let mut evaluable: Vec<&GroupEvalCase> = Vec::with_capacity(cases.len());
    let mut requests: Vec<(u32, Vec<u32>)> = Vec::with_capacity(cases.len());
    for case in cases {
        if case.test_items.is_empty() {
            if telemetry {
                kgag_obs::counter("eval.cases_skipped").add(1);
            }
            continue;
        }
        requests.push((case.group, case_candidates(case, num_items, config, &mut rng)));
        evaluable.push(case);
    }
    // phase 2: one scoring pass over all cases
    let all_scores = scorer.score_batch(&requests);
    assert_eq!(all_scores.len(), requests.len(), "batch scorer returned wrong case count");
    // phase 3: per-case metrics
    let mut acc = MetricAccumulator::new();
    let mut per_case = Vec::with_capacity(evaluable.len());
    for ((case, (_, candidates)), scores) in evaluable.iter().zip(&requests).zip(&all_scores) {
        let m = case_metrics(case, candidates, scores, config);
        if telemetry {
            kgag_obs::counter("eval.cases").add(1);
        }
        acc.add(m);
        per_case.push(m);
    }
    (acc.finish(), per_case)
}

/// The candidate list one case is ranked over: sampled negatives plus
/// test positives, or the full catalog.
fn case_candidates(
    case: &GroupEvalCase,
    num_items: u32,
    config: &EvalConfig,
    rng: &mut SplitMix64,
) -> Vec<u32> {
    match config.num_negatives {
        Some(n) => sample_candidates(case, num_items, n, rng),
        None => (0..num_items).collect(),
    }
}

/// Rank one case's scored candidates and reduce to metrics.
fn case_metrics(
    case: &GroupEvalCase,
    candidates: &[u32],
    scores: &[f32],
    config: &EvalConfig,
) -> crate::RankingMetrics {
    assert_eq!(scores.len(), candidates.len(), "scorer returned wrong length");
    match config.num_negatives {
        Some(_) => {
            let ranked_local = top_k(scores, config.k);
            // map candidate positions back to item ids
            let ranked: Vec<u32> = ranked_local.iter().map(|&p| candidates[p as usize]).collect();
            ranking_metrics(&ranked, &case.test_items, config.k)
        }
        None => {
            // exclude known positives that are NOT test items
            let exclude: Vec<u32> = case
                .known_positives
                .iter()
                .copied()
                .filter(|v| case.test_items.binary_search(v).is_err())
                .collect();
            let ranked = crate::ranking::top_k_excluding(scores, config.k, &exclude);
            ranking_metrics(&ranked, &case.test_items, config.k)
        }
    }
}

/// Candidate list: the test positives plus `n` sampled true negatives,
/// deduplicated, in a deterministic shuffled order.
fn sample_candidates(
    case: &GroupEvalCase,
    num_items: u32,
    n: usize,
    rng: &mut SplitMix64,
) -> Vec<u32> {
    let mut out = case.test_items.clone();
    let mut tries = 0usize;
    while out.len() < case.test_items.len() + n && tries < n * 50 {
        tries += 1;
        let v = rng.next_below(num_items as usize) as u32;
        if case.known_positives.binary_search(&v).is_ok() {
            continue;
        }
        if out.contains(&v) {
            continue;
        }
        out.push(v);
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Oracle {
        liked: Vec<u32>,
    }

    impl GroupScorer for Oracle {
        fn score(&self, _group: u32, items: &[u32]) -> Vec<f32> {
            items.iter().map(|v| if self.liked.contains(v) { 1.0 } else { 0.0 }).collect()
        }
    }

    fn case(test: &[u32], known: &[u32]) -> GroupEvalCase {
        GroupEvalCase { group: 0, test_items: test.to_vec(), known_positives: known.to_vec() }
    }

    #[test]
    fn oracle_scores_perfectly_in_sampled_regime() {
        let scorer = Oracle { liked: vec![3, 4] };
        let cases = vec![case(&[3, 4], &[3, 4])];
        let cfg = EvalConfig { k: 5, num_negatives: Some(50), seed: 1 };
        let s = evaluate_group_ranking(&scorer, 200, &cases, &cfg);
        assert_eq!(s.hit, 1.0);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn anti_oracle_scores_zero() {
        // scores everything except the positives
        let scorer = |_: u32, items: &[u32]| -> Vec<f32> {
            items.iter().map(|&v| if v >= 100 { 0.0 } else { 1.0 }).collect()
        };
        let cases = vec![case(&[150], &[150])];
        let cfg = EvalConfig { k: 5, num_negatives: Some(30), seed: 2 };
        let s = evaluate_group_ranking(&scorer, 200, &cases, &cfg);
        assert_eq!(s.hit, 0.0);
    }

    #[test]
    fn full_catalog_excludes_train_positives_from_ranking() {
        // items 0..=4 are train positives with sky-high scores; test item
        // is 5. Excluding 0..=4 must let 5 into the top-5.
        let scorer = |_: u32, items: &[u32]| -> Vec<f32> {
            items
                .iter()
                .map(|&v| match v {
                    0..=4 => 100.0,
                    5 => 50.0,
                    _ => 0.0,
                })
                .collect()
        };
        let cases = vec![case(&[5], &[0, 1, 2, 3, 4, 5])];
        let cfg = EvalConfig { k: 5, num_negatives: None, seed: 3 };
        let s = evaluate_group_ranking(&scorer, 50, &cases, &cfg);
        assert_eq!(s.hit, 1.0);
        assert_eq!(s.mrr, 1.0, "item 5 should rank first once train positives are excluded");
    }

    #[test]
    fn negatives_never_include_known_positives() {
        // a scorer that fails the test if asked about a known positive
        // that is not a test item
        let known: Vec<u32> = (0..50).collect();
        let test = vec![49u32];
        let known_c = known.clone();
        let scorer = move |_: u32, items: &[u32]| -> Vec<f32> {
            for &v in items {
                if v != 49 {
                    assert!(!known_c.contains(&v), "sampled known positive {v}");
                }
            }
            vec![0.0; items.len()]
        };
        let cases = vec![GroupEvalCase { group: 0, test_items: test, known_positives: known }];
        let cfg = EvalConfig { k: 5, num_negatives: Some(40), seed: 4 };
        let _ = evaluate_group_ranking(&scorer, 500, &cases, &cfg);
    }

    #[test]
    fn deterministic_given_seed() {
        let scorer = Oracle { liked: vec![7] };
        let cases = vec![case(&[7], &[7]), case(&[7], &[7])];
        let cfg = EvalConfig { k: 3, num_negatives: Some(20), seed: 9 };
        let a = evaluate_group_ranking(&scorer, 100, &cases, &cfg);
        let b = evaluate_group_ranking(&scorer, 100, &cases, &cfg);
        assert_eq!(a, b);
    }

    /// Records every batch it is asked to score; each score depends on
    /// `(group, item)`, so a case scored under another group's id would
    /// change its metrics.
    struct Recorder {
        batches: std::sync::Mutex<Vec<Vec<(u32, Vec<u32>)>>>,
    }

    impl BatchGroupScorer for Recorder {
        fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
            self.batches.lock().unwrap().push(cases.to_vec());
            cases
                .iter()
                .map(|(g, items)| {
                    items
                        .iter()
                        .map(|&v| ((v.wrapping_mul(2654435761) ^ g) % 1000) as f32 / 1000.0)
                        .collect()
                })
                .collect()
        }
    }

    fn record(
        cases: &[GroupEvalCase],
        cfg: &EvalConfig,
    ) -> (Vec<Vec<(u32, Vec<u32>)>>, Vec<crate::RankingMetrics>) {
        let scorer = Recorder { batches: std::sync::Mutex::new(Vec::new()) };
        let (_, per_case) = evaluate_group_ranking_detailed(&scorer, 200, cases, cfg);
        (scorer.batches.into_inner().unwrap(), per_case)
    }

    #[test]
    fn empty_cases_draw_nothing_and_each_case_keeps_its_group() {
        let a = GroupEvalCase { group: 7, test_items: vec![9], known_positives: vec![2, 9] };
        let b = GroupEvalCase { group: 2, test_items: vec![150], known_positives: vec![150] };
        let empty = GroupEvalCase { group: 4, test_items: vec![], known_positives: vec![] };
        for num_negatives in [Some(25), None] {
            let cfg = EvalConfig { k: 5, num_negatives, seed: 77 };
            let (with_empty, with_metrics) = record(&[a.clone(), empty.clone(), b.clone()], &cfg);
            let (without, without_metrics) = record(&[a.clone(), b.clone()], &cfg);
            // one scoring call over the evaluable cases, in case order
            assert_eq!(with_empty.len(), 1, "one score_batch call ({num_negatives:?})");
            let groups: Vec<u32> = with_empty[0].iter().map(|(g, _)| *g).collect();
            assert_eq!(groups, [7, 2], "each case is scored under its own group");
            // a skipped case must not advance the candidate RNG
            assert_eq!(with_empty, without, "candidate lists ({num_negatives:?})");
            assert_eq!(with_metrics, without_metrics, "per-case metrics ({num_negatives:?})");
        }
    }

    #[test]
    #[should_panic(expected = "wrong case count")]
    fn protocol_rejects_misaligned_scorer() {
        struct Broken;
        impl BatchGroupScorer for Broken {
            fn score_batch(&self, _cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
                Vec::new()
            }
        }
        let cases = vec![case(&[1], &[1])];
        let cfg = EvalConfig { k: 5, num_negatives: Some(10), seed: 5 };
        evaluate_group_ranking(&Broken, 50, &cases, &cfg);
    }

    #[test]
    fn closure_scorers_work() {
        let f = |_: u32, items: &[u32]| vec![0.5; items.len()];
        let cases = vec![case(&[1], &[1])];
        let cfg = EvalConfig { k: 5, num_negatives: Some(10), seed: 5 };
        let s = evaluate_group_ranking(&f, 50, &cases, &cfg);
        assert_eq!(s.evaluated, 1);
    }
}
