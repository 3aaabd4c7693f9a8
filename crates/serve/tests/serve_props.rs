//! Behavioural tests of the serving stack against stub scorers: fusion
//! is value-neutral, every accepted request is answered exactly once
//! across shutdown, backpressure rejects instead of blocking, deadlines
//! drop unscored work, and the TCP layer preserves score bits.
//!
//! Most tests pin the transport and scheduling semantics with scorers
//! whose behaviour is fully controlled. The last two put the *real*
//! engine behind the server: served scores and the whole evaluation
//! protocol must reproduce offline scoring bit for bit, and a bad
//! request must fail alone in its fused batch.

mod common;

use common::{pairs, stub_entry};
use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig, ScoreCases, ScoreError};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupStore, LifecycleAck, LifecycleError};
use kgag_eval::protocol::evaluate_group_ranking_detailed;
use kgag_eval::{BatchGroupScorer, EvalConfig};
use kgag_serve::{
    serve_in_process, serve_tcp, RegistryConfig, RegistryServer, ServeClient, ServeConfig,
    ServeError, ServeHandle, ShutdownToken,
};
use kgag_tensor::pool::with_threads;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u32_in, u64_in, vec_of};
use kgag_testkit::{prop_assert, prop_assert_eq};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deterministic per-(group, item) score — the reference every test
/// compares served results against.
fn stub_score(group: u32, item: u32) -> f32 {
    let x = (group as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((item as u64).wrapping_mul(0x85eb_ca6b_c2b2_ae35));
    ((x >> 40) as f32) / 16_777_216.0 - 0.5
}

/// Pure stub scorer over a catalog of `num_items` items (an item past
/// it fails its case typed, as a real scorer does); also records the
/// size of every fused batch so tests can check `max_batch` is honoured.
struct StubScorer {
    batch_sizes: Mutex<Vec<usize>>,
    num_items: u32,
}

impl StubScorer {
    fn new() -> StubScorer {
        StubScorer::with_catalog(u32::MAX)
    }

    fn with_catalog(num_items: u32) -> StubScorer {
        StubScorer { batch_sizes: Mutex::new(Vec::new()), num_items }
    }
}

impl ScoreCases for StubScorer {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        self.batch_sizes.lock().unwrap().push(cases.len());
        cases
            .iter()
            .map(|(g, items)| match items.iter().find(|&&v| v >= self.num_items) {
                Some(&v) => Err(ScoreError::UnknownItem(v)),
                None => Ok(expected(*g, items)),
            })
            .collect()
    }
}

/// A scorer that parks inside `score_batch` until released — the lever
/// for making queue states (full, expired) deterministic.
struct GateScorer {
    started: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
    scored_cases: Mutex<Vec<(u32, Vec<u32>)>>,
}

impl GateScorer {
    fn new() -> (GateScorer, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gate = GateScorer {
            started: Mutex::new(started_tx),
            release: Mutex::new(release_rx),
            scored_cases: Mutex::new(Vec::new()),
        };
        (gate, started_rx, release_tx)
    }
}

impl ScoreCases for GateScorer {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        let _ = self.started.lock().unwrap().send(());
        self.release.lock().unwrap().recv().expect("test forgot to release the gate");
        self.scored_cases.lock().unwrap().extend(cases.iter().cloned());
        cases.iter().map(|(g, items)| Ok(expected(*g, items))).collect()
    }
}

fn expected(group: u32, items: &[u32]) -> Vec<f32> {
    items.iter().map(|&v| stub_score(group, v)).collect()
}

fn request_items(group: u32, len: u32) -> Vec<u32> {
    (0..len).map(|i| group.wrapping_mul(31).wrapping_add(i * 3)).collect()
}

/// The one TCP server with a stub as tenant 0's model over the group
/// table `groups`; the server loads no checkpoints.
fn stub_server(
    scorer: impl ScoreCases + Send + 'static,
    groups: GroupStore,
    serve: ServeConfig,
) -> RegistryServer {
    let entry = stub_entry(scorer, groups);
    let cfg = RegistryConfig { serve, ..RegistryConfig::default() };
    RegistryServer::bootstrap(cfg, Box::new(|_, _| Err("stub loads nothing".into())), entry)
        .expect("stub entry installs")
}

/// Any interleaving of concurrent clients, any window/batch/worker
/// config: every response is bit-identical to scoring the request
/// alone, and no fused batch exceeds `max_batch`.
#[test]
fn fusion_is_value_neutral_for_any_config_and_interleaving() {
    let gen = (
        u64_in(0..500),                               // batch window µs
        u32_in(1..6),                                 // max_batch
        u32_in(1..4),                                 // workers
        vec_of((u32_in(0..40), u32_in(1..8)), 1..24), // (group, n_items)*
    );
    Runner::new("fusion_is_value_neutral").cases(24).run(
        &gen,
        |(window_us, max_batch, workers, reqs)| {
            let config = ServeConfig {
                batch_window: Duration::from_micros(*window_us),
                max_batch: *max_batch as usize,
                queue_capacity: 4096,
                workers: *workers as usize,
            };
            let scorer = StubScorer::new();
            let results = serve_in_process(&scorer, &config, |handle| {
                std::thread::scope(|s| {
                    let mut joins = Vec::new();
                    // split the request list over 3 client threads
                    for chunk in reqs.chunks(reqs.len().div_ceil(3)) {
                        let handle = handle.clone();
                        joins.push(s.spawn(move || {
                            chunk
                                .iter()
                                .map(|&(g, n)| {
                                    let items = request_items(g, n);
                                    (g, items.clone(), handle.score(g, items))
                                })
                                .collect::<Vec<_>>()
                        }));
                    }
                    joins.into_iter().flat_map(|j| j.join().unwrap()).collect::<Vec<_>>()
                })
            });
            prop_assert_eq!(results.len(), reqs.len());
            for (g, items, got) in results {
                let got = got.expect("no deadline, no overflow: must score");
                let want = expected(g, &items);
                prop_assert_eq!(
                    got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
                );
            }
            for &size in scorer.batch_sizes.lock().unwrap().iter() {
                prop_assert!(size >= 1 && size <= *max_batch as usize, "fused batch of {size}");
            }
            Ok(())
        },
    );
}

/// Graceful drain: shutdown races a wave of submissions; every request
/// that was *accepted* still gets its scores (exactly one response,
/// never `Canceled`), and everything after shutdown is rejected at
/// submit time.
#[test]
fn shutdown_drains_every_accepted_request() {
    let config = ServeConfig {
        batch_window: Duration::from_micros(100),
        max_batch: 8,
        queue_capacity: 4096,
        workers: 2,
    };
    let scorer = StubScorer::new();
    serve_in_process(&scorer, &config, |handle| {
        let (accepted, rejected) = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for t in 0..4u32 {
                let handle = handle.clone();
                joins.push(s.spawn(move || {
                    let mut pendings = Vec::new();
                    let mut rejected = 0usize;
                    for i in 0..200u32 {
                        let g = t * 1000 + i;
                        let items = request_items(g, 1 + (i % 5));
                        match handle.submit(g, items.clone(), None) {
                            Ok(p) => pendings.push((g, items, p)),
                            Err(ServeError::Rejected) => rejected += 1,
                            Err(e) => panic!("unexpected submit error {e}"),
                        }
                    }
                    let mut ok = 0usize;
                    for (g, items, p) in pendings {
                        let scores = p.wait().expect("accepted request must be answered");
                        assert_eq!(scores, expected(g, &items));
                        ok += 1;
                    }
                    (ok, rejected)
                }));
            }
            // shut down while the wave is in flight
            handle.shutdown();
            let mut accepted = 0;
            let mut rejected = 0;
            for j in joins {
                let (a, r) = j.join().unwrap();
                accepted += a;
                rejected += r;
            }
            (accepted, rejected)
        });
        assert_eq!(accepted + rejected, 4 * 200, "every submit resolved one way");
        assert_eq!(handle.in_flight(), 0, "drain left requests unanswered");
        assert_eq!(handle.queue_depth(), 0);
    });
}

#[test]
fn submit_after_shutdown_is_rejected() {
    let scorer = StubScorer::new();
    serve_in_process(&scorer, &ServeConfig::default(), |handle| {
        assert!(handle.is_open());
        assert_eq!(handle.score(1, vec![2, 3]).unwrap(), expected(1, &[2, 3]));
        handle.shutdown();
        assert!(!handle.is_open());
        assert_eq!(handle.score(1, vec![2, 3]), Err(ServeError::Rejected));
        assert!(matches!(handle.submit(0, vec![1], None), Err(ServeError::Rejected)));
    });
}

/// Backpressure: with the single worker parked inside `score_batch` and
/// the queue at capacity, further submissions are rejected immediately
/// rather than queued or blocked; the parked and queued requests all
/// complete once the gate opens.
#[test]
fn full_queue_rejects_instead_of_blocking() {
    let (gate, started_rx, release_tx) = GateScorer::new();
    let config =
        ServeConfig { batch_window: Duration::ZERO, max_batch: 1, queue_capacity: 2, workers: 1 };
    serve_in_process(&gate, &config, |handle| {
        let a = handle.submit(1, vec![10], None).expect("first request accepted");
        // the worker is now parked scoring `a`; the queue is empty
        started_rx.recv().unwrap();
        let b = handle.submit(2, vec![20], None).expect("queue slot 1");
        let c = handle.submit(3, vec![30], None).expect("queue slot 2");
        assert_eq!(handle.queue_depth(), 2);
        assert!(matches!(handle.submit(4, vec![40], None), Err(ServeError::Rejected)));
        // open the gate for a, b and c (max_batch 1 → one call each)
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        assert_eq!(a.wait().unwrap(), expected(1, &[10]));
        assert_eq!(b.wait().unwrap(), expected(2, &[20]));
        assert_eq!(c.wait().unwrap(), expected(3, &[30]));
    });
}

/// A request whose deadline expires while queued behind slow work is
/// answered `DeadlineMissed` and never reaches the scorer.
#[test]
fn expired_requests_are_dropped_unscored() {
    let (gate, started_rx, release_tx) = GateScorer::new();
    let config =
        ServeConfig { batch_window: Duration::ZERO, max_batch: 8, queue_capacity: 64, workers: 1 };
    serve_in_process(&gate, &config, |handle| {
        let slow = handle.submit(1, vec![10], None).unwrap();
        started_rx.recv().unwrap(); // worker parked on `slow`
        let doomed = handle.submit(2, vec![20], Some(Instant::now())).unwrap();
        let fine = handle.submit(3, vec![30], None).unwrap();
        std::thread::sleep(Duration::from_millis(2)); // let the deadline lapse
        release_tx.send(()).unwrap(); // finish `slow`
        release_tx.send(()).unwrap(); // score the drained batch {doomed?, fine}
        assert_eq!(slow.wait().unwrap(), expected(1, &[10]));
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineMissed));
        assert_eq!(fine.wait().unwrap(), expected(3, &[30]));
        let scored = gate.scored_cases.lock().unwrap();
        assert!(
            !scored.iter().any(|(g, _)| *g == 2),
            "expired request leaked into the scorer: {scored:?}"
        );
    });
}

/// A hostile wire deadline — `deadline_us` large enough that
/// `Instant::now() + Duration::from_micros(...)` would overflow and
/// panic the connection thread — must saturate to "no deadline" and
/// score normally. Regression for the unchecked `Instant + Duration`
/// on the untrusted `deadline_us` field.
#[test]
fn overflowing_wire_deadline_saturates_and_scores() {
    let config = ServeConfig {
        batch_window: Duration::from_micros(200),
        max_batch: 16,
        queue_capacity: 1024,
        workers: 1,
    };
    let registry = stub_server(StubScorer::new(), pairs(6), config);
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let (token, registry) = (token.clone(), &registry);
            s.spawn(move || {
                serve_tcp(registry, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
            })
        };
        let addr = addr_rx.recv().expect("server ready");
        let mut client = ServeClient::connect(addr).unwrap();
        // bound the test if a regression kills the connection thread
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let items = request_items(5, 4);
        for deadline_us in [u64::MAX, u64::MAX / 2, 1 << 62] {
            let got = client
                .score_with_deadline_us(5, &items, deadline_us)
                .expect("connection must survive a hostile deadline")
                .expect("an effectively-infinite deadline must score");
            assert_eq!(got, expected(5, &items), "deadline_us = {deadline_us}");
        }
        // a sane deadline on the same connection still works
        let got = client.score_with_deadline_us(5, &items, 5_000_000).unwrap().unwrap();
        assert_eq!(got, expected(5, &items));
        token.trigger();
        server.join().unwrap().expect("serve_tcp exits cleanly");
    });
}

/// End-to-end over TCP: concurrent connections, bit-exact scores, a
/// deliberately malformed frame answered `Invalid`, graceful stop.
#[test]
fn tcp_round_trip_with_concurrent_clients() {
    let config = ServeConfig {
        batch_window: Duration::from_micros(200),
        max_batch: 16,
        queue_capacity: 1024,
        workers: 1,
    };
    // clients score groups t * 100 + i for t < 4, i < 25
    let registry = stub_server(StubScorer::new(), pairs(325), config);
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let (token, registry) = (token.clone(), &registry);
            s.spawn(move || {
                serve_tcp(registry, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
            })
        };
        let addr = addr_rx.recv().expect("server ready");
        let mut joins = Vec::new();
        for t in 0..4u32 {
            joins.push(s.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for i in 0..25u32 {
                    let g = t * 100 + i;
                    let items = request_items(g, 1 + (i % 6));
                    let got = client.score(g, &items).unwrap().unwrap();
                    let want = expected(g, &items);
                    assert_eq!(
                        got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        "group {g}"
                    );
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // a syntactically valid frame with a truncated payload gets an
        // Invalid response instead of killing the connection
        {
            use std::io::Write;
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            let mut bogus_payload = vec![kgag_serve::wire::OP_SCORE];
            bogus_payload.extend_from_slice(&7u64.to_le_bytes()); // op + id, nothing else
            let mut frame = (bogus_payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&bogus_payload);
            raw.write_all(&frame).unwrap();
            let payload = kgag_serve::wire::read_frame(&mut raw).unwrap();
            let resp = kgag_serve::wire::decode_response(&payload).unwrap();
            assert_eq!(resp.id, 7);
            assert_eq!(resp.into_result(), Err(ServeError::Invalid));
        }
        token.trigger();
        server.join().unwrap().expect("serve_tcp exits cleanly");
    });
}

/// End-to-end lifecycle dispatch over TCP: acks carry the mutated
/// membership, every rejection is the matching typed error, and score
/// requests are bounds-checked against the *live* group table.
#[test]
fn tcp_dynamic_lifecycle_round_trip() {
    let groups = GroupStore::new(vec![vec![0, 1], vec![2, 3]], 10);
    let config = ServeConfig {
        batch_window: Duration::from_micros(200),
        max_batch: 16,
        queue_capacity: 1024,
        workers: 1,
    };
    let registry = stub_server(StubScorer::with_catalog(50), groups, config);
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let (token, registry) = (token.clone(), &registry);
            s.spawn(move || {
                serve_tcp(registry, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
            })
        };
        let addr = addr_rx.recv().expect("server ready");
        let mut client = ServeClient::connect(addr).unwrap();

        // a group created over the wire becomes a valid score target
        assert_eq!(
            client.create_group(&[4, 5, 6]).unwrap(),
            Ok(LifecycleAck { group: 2, members: 3 })
        );
        let items = vec![5, 17, 29, 41, 49]; // in range for num_items = 50
        assert_eq!(client.score(2, &items).unwrap().unwrap(), expected(2, &items));

        // join/leave acks report the membership after the mutation
        assert_eq!(client.join_group(2, 7).unwrap(), Ok(LifecycleAck { group: 2, members: 4 }));
        assert_eq!(client.leave_group(2, 7).unwrap(), Ok(LifecycleAck { group: 2, members: 3 }));

        // every rejection is the matching typed error, connection intact
        for (got, want) in [
            (client.create_group(&[4]).unwrap(), LifecycleError::TooFewMembers),
            (client.create_group(&[4, 4]).unwrap(), LifecycleError::DuplicateMember),
            (client.create_group(&[4, 99]).unwrap(), LifecycleError::UnknownUser),
            (client.join_group(99, 0).unwrap(), LifecycleError::UnknownGroup),
            (client.join_group(2, 4).unwrap(), LifecycleError::AlreadyMember),
            (client.leave_group(2, 9).unwrap(), LifecycleError::NotAMember),
        ] {
            assert_eq!(got, Err(ServeError::Lifecycle(want)));
        }

        // score pre-validation against the live bounds
        assert_eq!(
            client.score(99, &[0]).unwrap(),
            Err(ServeError::Lifecycle(LifecycleError::UnknownGroup))
        );
        assert_eq!(client.score(0, &[50]).unwrap(), Err(ServeError::Invalid));
        assert_eq!(client.score(0, &[49]).unwrap().unwrap(), expected(0, &[49]));

        token.trigger();
        server.join().unwrap().expect("serve_tcp exits cleanly");
    });
}

/// One bad request must not cancel the batch it fused into. Three
/// requests land in one wide batch window — one valid, one naming an
/// unknown group, one naming an unknown item — against the real
/// single-node and lifecycle scorers: the valid one is answered
/// bit-identically to offline `score_case`, each bad one gets a typed
/// `Invalid`, and the scorer never panics.
#[test]
fn a_bad_request_fails_alone_in_its_fused_batch() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let model = Kgag::new(&ds, &split, KgagConfig::default());
    let good = (1u32, vec![0u32, 3, 5]);
    let want: Vec<u32> =
        model.batch_scorer().score_case(good.0, &good.1).iter().map(|s| s.to_bits()).collect();
    let requests = [good.clone(), (ds.num_groups() + 3, vec![0]), (0, vec![2, ds.num_items + 1])];
    let config = ServeConfig {
        batch_window: Duration::from_millis(300),
        max_batch: 3,
        queue_capacity: 16,
        workers: 1,
    };
    let panics = kgag_obs::counter("serve.scorer_panics");
    let panics_before = panics.get();
    let check = |handle: kgag_serve::ServeHandle| {
        let pending: Vec<_> = requests
            .iter()
            .map(|(g, items)| handle.submit(*g, items.clone(), None).expect("accepted"))
            .collect();
        let got: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
        let scores = got[0].as_ref().expect("the valid request must be answered");
        assert_eq!(scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), want);
        assert_eq!(got[1], Err(ServeError::Invalid), "unknown group");
        assert_eq!(got[2], Err(ServeError::Invalid), "unknown item");
    };
    serve_in_process(&model.batch_scorer(), &config, check);
    serve_in_process(&model.dynamic_scorer(), &config, check);
    assert_eq!(panics.get(), panics_before, "no request may reach a scorer panic");
}

/// Puts a running server in the evaluation protocol's scorer seat: the
/// cases are split over 4 client threads, each submitting its whole
/// share before waiting, so requests from different clients interleave
/// and fuse inside the batcher.
struct ServedScorer<'a>(&'a ServeHandle);

impl BatchGroupScorer for ServedScorer<'_> {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        let share = cases.len().div_ceil(4).max(1);
        std::thread::scope(|s| {
            let joins: Vec<_> = cases
                .chunks(share)
                .map(|part| {
                    s.spawn(move || {
                        let pending: Vec<_> = part
                            .iter()
                            .map(|(g, items)| {
                                self.0
                                    .submit(*g, items.clone(), None)
                                    .expect("queue fits the slice")
                            })
                            .collect();
                        pending
                            .into_iter()
                            .map(|p| p.wait().expect("must score"))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
        })
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// The trained smoke model behind the batcher, under a fusing and a
/// degenerate (zero window, singleton batches) config: a fixed request
/// slice — every test group over varying candidate windows, plus
/// full-catalog requests — scores bit-identically to the offline
/// `BatchScorer`, and the evaluation protocol with the server in the
/// scorer seat reproduces the offline summary and every per-case
/// metric.
#[test]
fn served_evaluation_is_bit_identical_to_offline_on_the_real_engine() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    assert!(!cases.is_empty(), "smoke world must produce test cases");
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    let scorer = model.batch_scorer();

    let v = ds.num_items as usize;
    let mut requests: Vec<(u32, Vec<u32>)> = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        let (len, start) = (1 + (i * 7) % v, (i * 13) % v);
        requests.push((c.group, (0..len).map(|j| ((start + j) % v) as u32).collect()));
        if i % 3 == 0 {
            requests.push((c.group, (0..ds.num_items).collect()));
        }
    }
    let reference = scorer.score_cases(&requests);
    let ecfg = EvalConfig::default();
    let offline = evaluate_group_ranking_detailed(&scorer, ds.num_items, &cases, &ecfg);

    let fusing = ServeConfig {
        batch_window: Duration::from_micros(300),
        max_batch: 7,
        queue_capacity: 4096,
        workers: 2,
    };
    let degenerate = ServeConfig {
        batch_window: Duration::ZERO,
        max_batch: 1,
        queue_capacity: 4096,
        workers: 1,
    };
    for (name, config) in [("fusing", fusing), ("degenerate", degenerate)] {
        let (scores, served) = serve_in_process(&scorer, &config, |handle| {
            let seat = ServedScorer(&handle);
            let scores = seat.score_batch(&requests);
            (scores, evaluate_group_ranking_detailed(&seat, ds.num_items, &cases, &ecfg))
        });
        assert_eq!(scores.len(), reference.len(), "{name}: response count");
        for (i, (got, want)) in scores.iter().zip(&reference).enumerate() {
            assert_eq!(bits(got), bits(want), "{name}: request {i} diverged");
        }
        assert_eq!(served.1, offline.1, "{name}: per-case metrics diverged through the server");
        assert_eq!(served.0, offline.0, "{name}: metric summary diverged through the server");
    }
}
