//! CI serving gate (DESIGN.md §12): scores served through the
//! concurrent micro-batcher must be **bit-identical** to the offline
//! batched evaluation path, for any interleaving of concurrent clients,
//! and graceful shutdown must answer every accepted request.
//!
//! The check trains the fixed smoke model (same fixture as the batched
//! oracle suite: yelp tiny, split seed 11, fit single-threaded so the
//! parameters are thread-count invariant), builds one `BatchScorer`,
//! then drives four layers against it:
//!
//! 1. **In-process fan-out** — a fixed request slice submitted by 4
//!    concurrent client threads through `ServeHandle`, under both a
//!    fusing config (window + multi-request batches) and a degenerate
//!    one (zero window, singleton batches). Every response must equal
//!    `BatchScorer::score_cases` on the same request, bit for bit.
//! 2. **Protocol equality** — `evaluate_group_ranking_batched_detailed`
//!    run with the server in the scorer seat (each case a separate
//!    concurrent request) must reproduce the offline summary *and*
//!    every per-case metric exactly.
//! 3. **Graceful drain** — shutdown racing a submission wave: every
//!    accepted request is answered with correct scores, every refused
//!    one is an explicit rejection, nothing hangs or is dropped.
//! 4. **TCP round trip** — the same slice through 4 `ServeClient`
//!    connections against `serve_tcp`, the one server, with the model
//!    as tenant 0's entry; f32 bits must survive the wire.
//!
//! ci.sh runs this at `KGAG_THREADS=1` and `4`. Any divergence panics
//! (non-zero exit fails the gate).

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{DynamicScorer, Kgag, KgagConfig, RegistryModel};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_eval::protocol::evaluate_group_ranking_batched_detailed;
use kgag_eval::{BatchGroupScorer, EvalConfig};
use kgag_serve::{
    serve_in_process, serve_tcp, RegistryConfig, RegistryServer, ServeClient, ServeConfig,
    ServeError, ShutdownToken,
};
use kgag_tensor::pool::{self, with_threads};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;

/// Adapter that puts the running server in the protocol's scorer seat:
/// each case becomes its own request, submitted concurrently from
/// [`CLIENTS`] threads, so the evaluation exercises real cross-client
/// interleaving inside the batcher.
struct ServedScorer<'a>(&'a kgag_serve::ServeHandle);

impl BatchGroupScorer for ServedScorer<'_> {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); cases.len()];
        let chunk = cases.len().div_ceil(CLIENTS).max(1);
        std::thread::scope(|s| {
            for (slots, chunk_cases) in out.chunks_mut(chunk).zip(cases.chunks(chunk)) {
                s.spawn(move || {
                    // submit the whole chunk before waiting: maximises
                    // in-queue overlap between client threads
                    let pendings: Vec<_> = chunk_cases
                        .iter()
                        .map(|(g, items)| {
                            self.0.submit(*g, items.clone(), None).expect("queue sized for slice")
                        })
                        .collect();
                    for (slot, p) in slots.iter_mut().zip(pendings) {
                        *slot = p.wait().expect("no deadline, graceful server: must score");
                    }
                });
            }
        });
        out
    }
}

fn assert_bits_equal(label: &str, idx: usize, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: request {idx} length");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: request {idx} item {j} diverged ({g} vs {w})"
        );
    }
}

fn fusing_config() -> ServeConfig {
    ServeConfig {
        batch_window: Duration::from_micros(300),
        max_batch: 7,
        queue_capacity: 4096,
        workers: 2,
    }
}

fn degenerate_config() -> ServeConfig {
    ServeConfig { batch_window: Duration::ZERO, max_batch: 1, queue_capacity: 4096, workers: 1 }
}

fn main() {
    println!("serve_check: pool threads = {}", pool::num_threads());
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    assert!(!cases.is_empty(), "smoke world must produce test cases");
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    let model = Arc::new(model);
    let scorer = model.batch_scorer();

    // the fixed request slice: every test group over candidate lists of
    // varying length and offset, plus periodic full-catalog requests
    let all: Vec<u32> = (0..ds.num_items).collect();
    let mut requests: Vec<(u32, Vec<u32>)> = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        let len = 1 + (i * 7) % (ds.num_items as usize);
        let start = (i * 13) % ds.num_items as usize;
        let items: Vec<u32> =
            (0..len).map(|j| ((start + j) % ds.num_items as usize) as u32).collect();
        requests.push((c.group, items));
        if i % 3 == 0 {
            requests.push((c.group, all.clone()));
        }
    }
    let reference = scorer.score_cases(&requests);
    assert!(requests.len() >= CLIENTS, "drain check needs one request per client");
    println!("serve_check: {} requests over {} test groups", requests.len(), cases.len());

    // 1. in-process fan-out, fusing and degenerate batching
    for (cfg_name, cfg) in [("fusing", fusing_config()), ("degenerate", degenerate_config())] {
        let served =
            serve_in_process(&scorer, &cfg, |handle| ServedScorer(&handle).score_batch(&requests));
        for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
            assert_bits_equal(&format!("in-process/{cfg_name}"), i, got, want);
        }
        println!("serve_check: in-process {cfg_name} config bit-identical");
    }

    // 2. full evaluation protocol with the server in the scorer seat
    let ecfg = EvalConfig::default();
    let (offline_summary, offline_cases) =
        evaluate_group_ranking_batched_detailed(&scorer, ds.num_items, &cases, &ecfg);
    let (served_summary, served_cases) = serve_in_process(&scorer, &fusing_config(), |handle| {
        evaluate_group_ranking_batched_detailed(&ServedScorer(&handle), ds.num_items, &cases, &ecfg)
    });
    assert_eq!(served_cases, offline_cases, "per-case metrics diverged through the server");
    assert_eq!(served_summary, offline_summary, "metric summary diverged through the server");
    println!("serve_check: served evaluation == evaluate_batched ({offline_summary})");

    // 3. graceful drain under a shutdown race: each client lands one
    // request before the barrier releases shutdown, so acceptances are
    // guaranteed while the rest of the wave genuinely races the switch
    let barrier = std::sync::Barrier::new(CLIENTS + 1);
    let (answered, refused) = serve_in_process(&scorer, &fusing_config(), |handle| {
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for chunk_idx in 0..CLIENTS {
                let handle = handle.clone();
                let requests = &requests;
                let reference = &reference;
                let barrier = &barrier;
                joins.push(s.spawn(move || {
                    let mut accepted = Vec::new();
                    let mut refused = 0usize;
                    let mut first = true;
                    for (i, (g, items)) in requests.iter().enumerate() {
                        if i % CLIENTS != chunk_idx {
                            continue;
                        }
                        match handle.submit(*g, items.clone(), None) {
                            Ok(p) => accepted.push((i, p)),
                            Err(ServeError::Rejected) => refused += 1,
                            Err(e) => panic!("drain: unexpected submit error {e}"),
                        }
                        if first {
                            barrier.wait();
                            first = false;
                        }
                    }
                    let n_accepted = accepted.len();
                    for (i, p) in accepted {
                        let scores = p.wait().expect("accepted request must be answered");
                        assert_bits_equal("drain", i, &scores, &reference[i]);
                    }
                    (n_accepted, refused)
                }));
            }
            barrier.wait();
            handle.shutdown(); // race the rest of the wave
            let mut answered = 0usize;
            let mut refused = 0usize;
            for j in joins {
                let (a, r) = j.join().unwrap();
                answered += a;
                refused += r;
            }
            assert_eq!(answered + refused, requests.len(), "drain lost a request");
            assert!(answered >= CLIENTS, "pre-shutdown submissions must be accepted");
            assert_eq!(handle.in_flight(), 0, "drain left requests in flight");
            (answered, refused)
        })
    });
    println!("serve_check: drain answered {answered}, explicitly rejected {refused}");

    // 4. TCP round trip: bits must survive the wire
    let entry = RegistryModel::new(Arc::new(DynamicScorer::shared(model.clone(), true)), None, 0);
    let rcfg = RegistryConfig { serve: fusing_config(), ..RegistryConfig::default() };
    let no_loads = Box::new(|_: &[u8], _| Err("serve_check loads nothing".to_owned()));
    let registry = RegistryServer::bootstrap(rcfg, no_loads, entry).expect("entry installs");
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let (token, registry) = (token.clone(), &registry);
            s.spawn(move || {
                serve_tcp(registry, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
            })
        };
        let addr = addr_rx.recv().expect("server ready");
        let mut joins = Vec::new();
        for chunk_idx in 0..CLIENTS {
            let requests = &requests;
            let reference = &reference;
            joins.push(s.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("loopback connect");
                for (i, (g, items)) in requests.iter().enumerate() {
                    if i % CLIENTS != chunk_idx {
                        continue;
                    }
                    let scores =
                        client.score(*g, items).expect("transport").expect("server scores");
                    assert_bits_equal("tcp", i, &scores, &reference[i]);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        token.trigger();
        server.join().unwrap().expect("serve_tcp clean exit");
    });
    println!("serve_check: TCP round trip bit-identical across {CLIENTS} connections");
    println!("serve_check: PASS");
}
