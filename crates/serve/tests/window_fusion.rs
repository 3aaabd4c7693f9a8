//! The batch window stays open for a request that can still come: a
//! connected, idle client is a submitter, so another client's request
//! waits for it. The idle client's request then closes the window at
//! once, and so does its disconnect.
//!
//! These cases live in their own integration-test binary because they
//! read the process-global `serve.batch_requests` histogram and
//! `serve.queue_depth` gauge, which concurrent tests in a shared binary
//! would perturb; a lock keeps the two cases here apart too.

mod common;

use common::{pairs, stub_entry};
use kgag::{ScoreCases, ScoreError};
use kgag_data::LifecycleAck;
use kgag_serve::{
    serve_tcp, RegistryConfig, RegistryServer, ServeClient, ServeConfig, ShutdownToken,
};
use std::net::SocketAddr;
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

struct EchoScorer;

impl ScoreCases for EchoScorer {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        cases.iter().map(|(g, items)| Ok(echo(*g, items))).collect()
    }
}

fn echo(group: u32, items: &[u32]) -> Vec<f32> {
    items.iter().map(|&v| (group * 1000 + v) as f32).collect()
}

/// An echo server with a 2 s batch window on a loopback port. Trigger
/// the token and join to stop it.
fn spawn_echo_tcp() -> (SocketAddr, ShutdownToken, JoinHandle<()>) {
    let serve = ServeConfig {
        batch_window: Duration::from_secs(2),
        max_batch: 64,
        queue_capacity: 64,
        workers: 1,
    };
    let entry = stub_entry(EchoScorer, pairs(3));
    let cfg = RegistryConfig { serve, ..RegistryConfig::default() };
    let registry =
        RegistryServer::bootstrap(cfg, Box::new(|_, _| Err("loads nothing".into())), entry)
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

/// Connect an idle client B; a round trip that bypasses the batcher
/// proves the server counts it.
fn connect_idle(addr: SocketAddr) -> ServeClient {
    let mut b = ServeClient::connect(addr).unwrap();
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(b.join_group(0, 9).unwrap(), Ok(LifecycleAck { group: 0, members: 3 }));
    b
}

/// Client A scores on its own thread; returns once A's request sits
/// queued in the window, with A's scores and how long A waited.
fn ask_and_queue(addr: SocketAddr) -> JoinHandle<(Vec<f32>, Duration)> {
    let depth = kgag_obs::gauge("serve.queue_depth");
    let a = std::thread::spawn(move || {
        let mut a = ServeClient::connect(addr).unwrap();
        a.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let t = Instant::now();
        let got = a.score(1, &[4, 5]).unwrap().expect("A is scored");
        (got, t.elapsed())
    });
    let give_up = Instant::now() + Duration::from_secs(10);
    while depth.get() < 1.0 {
        assert!(Instant::now() < give_up, "A's request never waited in the window");
        std::thread::yield_now();
    }
    a
}

#[test]
fn an_idle_client_fuses_with_the_request_it_held_the_window_for() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (addr, token, server) = spawn_echo_tcp();
    let mut b = connect_idle(addr);
    let batch_requests = kgag_obs::histogram("serve.batch_requests");
    let before = (batch_requests.count(), batch_requests.sum());

    let a = ask_and_queue(addr);
    // B sends about 100 ms after A's request entered the window
    std::thread::sleep(Duration::from_millis(100));
    let t = Instant::now();
    assert_eq!(b.score(2, &[6]).unwrap(), Ok(echo(2, &[6])));
    let b_waited = t.elapsed();
    assert_eq!(a.join().unwrap().0, echo(1, &[4, 5]));

    let delta = (batch_requests.count() - before.0, batch_requests.sum() - before.1);
    assert_eq!(delta, (1, 2), "A and B must be answered in one batch");
    assert!(
        b_waited < Duration::from_secs(1),
        "B's request did not close the window: {b_waited:?}"
    );
    drop(b);
    token.trigger();
    server.join().unwrap();
}

/// B disconnects instead of sending: nobody is left who could join A's
/// batch, so A is answered well before the 2 s cap.
#[test]
fn a_disconnect_closes_the_window_it_held_open() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (addr, token, server) = spawn_echo_tcp();
    let b = connect_idle(addr);
    let a = ask_and_queue(addr);
    let t = Instant::now();
    drop(b);
    let (got, _) = a.join().unwrap();
    let answered_after = t.elapsed();
    assert_eq!(got, echo(1, &[4, 5]));
    assert!(
        answered_after < Duration::from_secs(1),
        "the disconnect did not close the window: answered {answered_after:?} after it"
    );
    token.trigger();
    server.join().unwrap();
}
