//! Source (c) of the traced run: the run's recorded requests and ops
//! replayed in this process through the public layer functions, one
//! timed call at a time on one pool thread, as the server runs them.

use crate::gen::MutationStream;
use crate::stats;
use kgag::{BatchScorer, Kgag, KgagConfig};
use kgag_data::{DatasetSplit, GroupDataset};
use kgag_serve::{serve_in_process, ServeConfig};
use kgag_tensor::pool::with_threads;
use std::path::Path;
use std::time::{Duration, Instant};

/// Score replays stop after this many requests or this much time.
const SCORE_REPLAY_MAX: usize = 2000;
const SCORE_REPLAY_BUDGET: Duration = Duration::from_secs(2);
/// The batcher replay stops after this many pairs or this much time.
const PAIR_REPLAY_MAX: usize = 500;
const PAIR_REPLAY_BUDGET: Duration = Duration::from_secs(1);
/// Mutations replayed at least: enough for a p99 with ten samples
/// beyond it.
pub const APPLY_REPLAY: usize = 1500;

pub struct Replay {
    /// `Kgag::new` + `load_checkpoint`.
    pub restore_ms: f64,
    /// `Kgag::dynamic_scorer()` construction (the receptive-field cache
    /// build the server pays at startup).
    pub rf_cache_build_ms: f64,
    pub rf_cache_kib: f64,
    /// Isolated `BatchScorer::score_cases`, one recorded request a call.
    pub score_ns_per_candidate: f64,
    pub score_replayed: usize,
    /// The default micro-batcher fed recorded requests two at a time:
    /// mean requests per batch, and submit-to-both-replies time per pair.
    pub pair_fuse_requests: f64,
    pub pair_us: f64,
    /// `DynamicScorer::apply` per op, ascending, in µs.
    pub apply_us: Vec<f64>,
    /// Total `apply` time of the ops the contention window sent, in s.
    pub window_apply_s: f64,
    pub evicted_per_mutation: f64,
    /// Replayed ops whose ack differs from the generator's prediction,
    /// plus created twins that do not score bit-identically to the
    /// roster they copy.
    pub mismatches: usize,
    /// `Kgag::fit` from scratch, in s.
    pub fit_s: f64,
    /// Whether that fit reproduces the server-written checkpoint byte
    /// for byte.
    pub fit_identical: bool,
}

/// Replay through the layers. `requests` are the run's recorded score
/// requests (static groups, so `reference` scores them), `ops` the
/// run's seeded mutation stream, of which the contention window sent
/// the first `window_ops`; `sink` receives the in-process telemetry the
/// eviction count is read from.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    ds: &GroupDataset,
    split: &DatasetSplit,
    config: &KgagConfig,
    checkpoint: &[u8],
    reference: &BatchScorer<'_>,
    requests: &[(u32, Vec<u32>)],
    mut ops: MutationStream,
    window_ops: usize,
    sink: &Path,
) -> Result<Replay, String> {
    with_threads(1, || {
        let t = Instant::now();
        let mut model = Kgag::new(ds, split, config.clone());
        model.load_checkpoint(checkpoint).map_err(|e| e.to_string())?;
        let restore_ms = millis(t);

        let budget_end = Instant::now() + SCORE_REPLAY_BUDGET;
        let (mut score_ns, mut candidates, mut score_replayed) = (0.0, 0usize, 0usize);
        for (group, items) in requests.iter().take(SCORE_REPLAY_MAX) {
            if Instant::now() >= budget_end {
                break;
            }
            let case = [(*group, items.clone())];
            let t = Instant::now();
            std::hint::black_box(reference.score_cases(std::hint::black_box(&case)));
            score_ns += t.elapsed().as_nanos() as f64;
            candidates += items.len();
            score_replayed += 1;
        }

        let (pair_fuse_requests, pair_us) = replay_pairs(reference, requests)?;

        let t = Instant::now();
        let dynamic = model.dynamic_scorer();
        let rf_cache_build_ms = millis(t);
        let rf_cache_kib = dynamic.cache_bytes().unwrap_or(0) as f64 / 1024.0;
        kgag_obs::enable_to(sink).map_err(|e| format!("{}: {e}", sink.display()))?;
        let evicted = kgag_obs::counter("lifecycle.cache_evicted");
        let evicted_before = evicted.get();
        let replayed = APPLY_REPLAY.max(window_ops);
        let mut apply_us = Vec::with_capacity(replayed);
        let mut mismatches = 0;
        for _ in 0..replayed {
            let m = ops.next_op();
            let t = Instant::now();
            let ack = dynamic.apply(&m.op);
            apply_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            mismatches += usize::from(ack != Ok(m.expect));
            if let (Some((source, items)), Ok(ack)) = (&m.twin, ack) {
                let twin = dynamic.score_case(ack.group, items).map_err(|e| e.to_string())?;
                let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                mismatches += usize::from(bits(twin) != bits(reference.score_case(*source, items)));
            }
        }
        let evicted_per_mutation = (evicted.get() - evicted_before) as f64 / replayed as f64;
        // a fold from +0: an empty float `sum` is -0
        let window_apply_s = apply_us[..window_ops].iter().fold(0.0, |a, b| a + b) / 1e6;
        kgag_obs::disable();
        drop(dynamic);

        let mut fresh = Kgag::new(ds, split, config.clone());
        let t = Instant::now();
        fresh.fit(split);
        let fit_s = t.elapsed().as_secs_f64();
        let fit_identical = fresh.save_checkpoint() == checkpoint;

        Ok(Replay {
            restore_ms,
            rf_cache_build_ms,
            rf_cache_kib,
            score_ns_per_candidate: score_ns / candidates.max(1) as f64,
            score_replayed,
            pair_fuse_requests,
            pair_us,
            apply_us: stats::sorted(apply_us),
            window_apply_s,
            evicted_per_mutation,
            mismatches,
            fit_s,
            fit_identical,
        })
    })
}

/// Submit `requests` to an in-process batcher with the server's default
/// settings, two back to back from one thread, so both land in one batch
/// window (2-way fusion, which a single reading connection never
/// produces). The batch sizes are read from the batcher's own histogram,
/// which records whether or not telemetry is on.
fn replay_pairs(
    scorer: &BatchScorer<'_>,
    requests: &[(u32, Vec<u32>)],
) -> Result<(f64, f64), String> {
    let batch_requests = kgag_obs::histogram("serve.batch_requests");
    let before = (batch_requests.count(), batch_requests.sum());
    let budget_end = Instant::now() + PAIR_REPLAY_BUDGET;
    let mut pair_ns = 0.0;
    let mut pairs = 0usize;
    serve_in_process(scorer, &ServeConfig::default(), |handle| {
        for pair in requests.chunks_exact(2).take(PAIR_REPLAY_MAX) {
            if Instant::now() >= budget_end {
                break;
            }
            let t = Instant::now();
            let pending: Vec<_> = pair
                .iter()
                .map(|(group, items)| handle.submit(*group, items.clone(), None))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            for p in pending {
                p.wait().map_err(|e| e.to_string())?;
            }
            pair_ns += t.elapsed().as_nanos() as f64;
            pairs += 1;
        }
        Ok::<(), String>(())
    })?;
    let batches = (batch_requests.count() - before.0).max(1) as f64;
    let fused = (batch_requests.sum() - before.1) as f64 / batches;
    Ok((fused, pair_ns / 1e3 / pairs.max(1) as f64))
}

fn millis(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}
