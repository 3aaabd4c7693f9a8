//! Regression for the multi-worker empty-drain bug: a worker whose
//! queue was stolen by a peer during the batch-window wait must go back
//! to waiting, not drain an empty batch into the telemetry.
//!
//! This lives in its own integration-test binary because the `serve.*`
//! metrics are process-global: the assertions below read whole-process
//! counter/histogram totals, which concurrent tests in a shared binary
//! would perturb.

use kgag::{ScoreCases, ScoreError};
use kgag_serve::{serve_in_process, ServeConfig};
use std::time::Duration;

struct EchoScorer;

impl ScoreCases for EchoScorer {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        cases.iter().map(|(g, items)| Ok(items.iter().map(|&v| (g + v) as f32).collect())).collect()
    }
}

/// Many rounds of bursty submissions against 4 workers with a long
/// batch window: several workers enter the window wait together, one
/// drains everything, and pre-fix the losers each recorded a phantom
/// batch (`serve.batches` tick + 0-length `batch_requests` sample).
/// Post-fix every recorded batch carries at least one request.
#[test]
fn multi_worker_drains_never_record_empty_batches() {
    let batches = kgag_obs::counter("serve.batches");
    let batch_requests = kgag_obs::histogram("serve.batch_requests");
    let cfg = ServeConfig {
        batch_window: Duration::from_millis(2),
        max_batch: 64,
        queue_capacity: 1024,
        workers: 4,
    };
    let mut answered = 0u64;
    for _round in 0..50 {
        serve_in_process(&EchoScorer, &cfg, |handle| {
            // Burst: each submit's notify can wake a different worker,
            // and with max_batch far above the burst size they all sit
            // out the full window before racing to drain.
            let pending: Vec<_> =
                (0..8).map(|i| handle.submit(0, vec![i], None).unwrap()).collect();
            for p in pending {
                assert_eq!(p.wait().map(|s| s.len()), Ok(1));
                answered += 1;
            }
        });
    }
    assert!(answered > 0 && batches.get() > 0);
    // every batch records exactly one size sample, and the samples
    // account for every answered request exactly once
    assert_eq!(batches.get(), batch_requests.count());
    assert_eq!(batch_requests.sum(), answered);
    // the actual regression: no zero-size batch was ever recorded
    assert!(
        batch_requests.min() >= Some(1),
        "phantom empty batch recorded (min batch size {:?} over {} batches)",
        batch_requests.min(),
        batches.get()
    );
}
