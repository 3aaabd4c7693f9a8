//! The batch window closes exactly when no submitter could still add a
//! request to it (DESIGN.md §12), and no sooner: a lone submitter is
//! scored at once even under a window far longer than the test, and a
//! thread that submits a pair before waiting still gets one batch of
//! two. The cases with an idle connection live in `window_fusion.rs`.
//! Every scorer here is a stub whose scores are fully determined.

mod common;

use common::{pairs, stub_entry};
use kgag::{ScoreCases, ScoreError};
use kgag_serve::{
    serve_in_process, serve_tcp, RegistryConfig, RegistryServer, ServeClient, ServeConfig,
    ShutdownToken,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

fn stub_score(group: u32, item: u32) -> f32 {
    (group as f32).mul_add(0.5, item as f32 * 0.25) - 3.0
}

fn expected(group: u32, items: &[u32]) -> Vec<f32> {
    items.iter().map(|&v| stub_score(group, v)).collect()
}

fn request_items(group: u32, len: u32) -> Vec<u32> {
    (0..len).map(|i| group.wrapping_mul(31).wrapping_add(i * 3)).collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Scores by [`stub_score`] and records the size of every fused batch.
#[derive(Default)]
struct StubScorer {
    batch_sizes: Mutex<Vec<usize>>,
}

impl ScoreCases for StubScorer {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        self.batch_sizes.lock().unwrap().push(cases.len());
        cases.iter().map(|(g, items)| Ok(expected(*g, items))).collect()
    }
}

/// `in_flight` counts a request in before any worker can answer it, so
/// it never wraps below zero and the depth gauge never dips negative,
/// however fast the answer comes: a worker that is already awake can
/// drain a request the moment its submitter releases the queue lock.
#[test]
fn in_flight_never_wraps_below_zero() {
    const CLIENTS: usize = 4;
    let scorer = StubScorer::default();
    let config =
        ServeConfig { batch_window: Duration::ZERO, max_batch: 2, queue_capacity: 64, workers: 2 };
    let depth = kgag_obs::gauge("serve.queue_depth");
    serve_in_process(&scorer, &config, |handle| {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    let n = handle.in_flight();
                    assert!(n <= CLIENTS, "in_flight wrapped: {n}");
                    assert!(depth.get() >= 0.0, "queue depth gauge went negative");
                }
            });
            let clients: Vec<_> = (0..CLIENTS as u32)
                .map(|c| {
                    let handle = handle.clone();
                    s.spawn(move || {
                        for i in 0..2000u32 {
                            let g = c * 10_000 + i;
                            let items = request_items(g, 2);
                            assert_eq!(handle.score(g, items.clone()), Ok(expected(g, &items)));
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            watcher.join().unwrap();
        });
        assert_eq!(handle.in_flight(), 0);
    });
}

/// A window far longer than any test: only the submitter rule can close
/// it in time.
fn long_window(window: Duration) -> ServeConfig {
    ServeConfig { batch_window: window, max_batch: 64, queue_capacity: 64, workers: 1 }
}

/// A lone in-process submitter is scored at once: nobody else could
/// join its batch, so the 30 s window is not waited out.
#[test]
fn a_lone_in_process_submitter_is_not_held() {
    let (tx, rx) = mpsc::channel();
    // joined only on success, so a regression fails after 5 s, not 30
    let server = std::thread::spawn(move || {
        let scorer = StubScorer::default();
        let got = serve_in_process(&scorer, &long_window(Duration::from_secs(30)), |handle| {
            handle.score(4, request_items(4, 3))
        });
        let _ = tx.send(got);
    });
    let got =
        rx.recv_timeout(Duration::from_secs(5)).expect("a lone request waited out the window");
    assert_eq!(got, Ok(expected(4, &request_items(4, 3))));
    server.join().unwrap();
}

/// One thread submits two requests, then waits: its wait ends the
/// window, and the two requests are one batch.
#[test]
fn a_waiting_submitter_closes_the_window_on_its_pair() {
    let scorer = StubScorer::default();
    let t = Instant::now();
    serve_in_process(&scorer, &long_window(Duration::from_secs(2)), |handle| {
        let items = [request_items(1, 3), request_items(2, 4)];
        let pending: Vec<_> = items
            .iter()
            .zip(1..)
            .map(|(it, g)| handle.submit(g, it.clone(), None).unwrap())
            .collect();
        for ((p, it), g) in pending.into_iter().zip(&items).zip(1..) {
            assert_eq!(p.wait(), Ok(expected(g, it)));
        }
    });
    assert!(t.elapsed() < Duration::from_secs(1), "the pair waited {:?}", t.elapsed());
    assert_eq!(*scorer.batch_sizes.lock().unwrap(), vec![2]);
}

/// A stub server on a loopback port, on a detached thread: a test that
/// fails while a request sits in a long window fails at once instead of
/// waiting for the drain. Trigger the token and join to stop it.
fn spawn_stub_tcp(
    serve: ServeConfig,
) -> (std::net::SocketAddr, ShutdownToken, std::thread::JoinHandle<()>) {
    let entry = stub_entry(StubScorer::default(), pairs(20));
    let cfg = RegistryConfig { serve, ..RegistryConfig::default() };
    let registry =
        RegistryServer::bootstrap(cfg, Box::new(|_, _| Err("stub loads nothing".into())), entry)
            .expect("stub entry installs");
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    let server = {
        let token = token.clone();
        std::thread::spawn(move || {
            serve_tcp(&registry, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
                .expect("serve_tcp exits cleanly")
        })
    };
    (addr_rx.recv().expect("server ready"), token, server)
}

/// A lone TCP client is scored at once: its connection is the only
/// submitter, and it is blocked on each reply, so the 30 s window never
/// has anyone to wait for.
#[test]
fn a_lone_tcp_client_is_not_held() {
    let (addr, token, server) = spawn_stub_tcp(long_window(Duration::from_secs(30)));
    let mut client = ServeClient::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    for g in 0..20u32 {
        let items = request_items(g, 1 + g % 5);
        let got = client.score(g, &items).expect("answered within 5 s").unwrap();
        assert_eq!(bits(&got), bits(&expected(g, &items)), "group {g}");
    }
    drop(client);
    token.trigger();
    server.join().unwrap();
}
