//! CI registry gate (DESIGN.md §16): the multi-tenant model registry
//! must swap checkpoints under live traffic without ever serving a
//! wrong bit, and its admission control must shed deterministically.
//!
//! The check trains the fixed smoke model (yelp tiny, split seed 11,
//! fit single-threaded) and snapshots **two** checkpoints from it: `a`
//! (trained) and `b` (the untrained initialisation — same shapes,
//! different parameters). It then drives three phases against a real
//! `serve_tcp` server through the wire protocol:
//!
//! 1. **Shadow-proven swap** — LOAD both checkpoints by path, bind a
//!    tenant to `a`, fan a fixed request slice out over 4 concurrent
//!    TCP clients and require every response bit-identical to `a`'s
//!    offline `score_cases`. Stage `b` as shadow with a clean quota of
//!    the full slice; promotion must be refused until live traffic has
//!    proven the candidate (every admitted request is mirrored through
//!    `b`'s own batcher and compared bit-for-bit against `b`'s offline
//!    scores — the `serve_check` chunking-invariance oracle applied to
//!    production traffic). After the quota is met, PROMOTE swaps, and
//!    the same fan-out must now be bit-identical to `b`.
//! 2. **Atomic oscillation** — a mutator thread storms ROLLBACK (the
//!    self-inverse a↔b swap) while the 4 clients keep scoring: every
//!    single response must equal `a`'s or `b`'s offline bits exactly —
//!    a response matching neither would mean a torn swap.
//! 3. **Deterministic quota** — a second registry with a burst-5,
//!    no-refill governor: per tenant, exactly 5 requests are admitted
//!    and 3 shed as `Quota`, and the `registry.tenant*.{accepted,
//!    quota_rejected}` obs counters must agree exactly.
//!
//! ci.sh runs this at `KGAG_THREADS=1` and `4`. Any divergence panics
//! (non-zero exit fails the gate).

use kgag::{checkpoint_hash, Kgag, KgagConfig, RegistryModel, ScoreCases};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_serve::{
    serve_tcp, ModelFactory, RegistryConfig, RegistryServer, ServeClient, ServeConfig, ServeError,
    ShutdownToken,
};
use kgag_tensor::pool::{self, with_threads};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;

fn fusing_config() -> RegistryConfig {
    RegistryConfig {
        serve: ServeConfig {
            batch_window: Duration::from_micros(300),
            max_batch: 7,
            queue_capacity: 4096,
            workers: 2,
        },
        quota_rate: 0.0,
        quota_burst: None,
        shadow_sample: 1,
    }
}

fn entry_from(ds: &GroupDataset, bytes: &[u8]) -> RegistryModel {
    let split = split_dataset(ds, 11);
    let mut model = Kgag::new(ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    model.load_checkpoint(bytes).expect("smoke checkpoint must restore");
    RegistryModel::try_new(model, checkpoint_hash(bytes), true)
        .expect("a trained fixture checkpoint is finite")
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

/// Fan the request slice out over [`CLIENTS`] TCP connections; every
/// response must be bit-identical to `want`.
fn fan_out(
    addr: std::net::SocketAddr,
    tenant: u32,
    label: &str,
    requests: &[(u32, Vec<u32>)],
    want: &[Vec<f32>],
) {
    std::thread::scope(|s| {
        for chunk_idx in 0..CLIENTS {
            s.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("loopback connect");
                for (i, (g, items)) in requests.iter().enumerate() {
                    if i % CLIENTS != chunk_idx {
                        continue;
                    }
                    let scores = client
                        .score_tenant(tenant, *g, items)
                        .expect("transport")
                        .expect("admitted request must score");
                    assert_bits_equal(label, i, &scores, &want[i]);
                }
            });
        }
    });
}

fn main() {
    println!("registry_check: pool threads = {}", pool::num_threads());
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    let ckpt_b = model.save_checkpoint(); // untrained initialisation
    with_threads(1, || model.fit(&split));
    let ckpt_a = model.save_checkpoint(); // trained smoke model
    let hash_a = checkpoint_hash(&ckpt_a);
    let hash_b = checkpoint_hash(&ckpt_b);
    assert_ne!(hash_a, hash_b, "fixture checkpoints must be distinguishable");

    // the fixed request slice: varying lengths and offsets across groups
    let mut requests: Vec<(u32, Vec<u32>)> = Vec::new();
    for i in 0..24u32 {
        let len = 1 + (i * 7) % ds.num_items;
        let start = (i * 13) % ds.num_items;
        let items: Vec<u32> = (0..len).map(|j| (start + j) % ds.num_items).collect();
        requests.push((i % ds.num_groups(), items));
    }
    let reference_a: Vec<Vec<f32>> = entry_from(&ds, &ckpt_a)
        .try_score_cases(&requests)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("oracle a");
    let reference_b: Vec<Vec<f32>> = entry_from(&ds, &ckpt_b)
        .try_score_cases(&requests)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("oracle b");
    println!("registry_check: {} requests over {} groups", requests.len(), ds.num_groups());

    let dir = std::env::temp_dir().join(format!("kgag_registry_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path_a = dir.join("ckpt_a.bin");
    let path_b = dir.join("ckpt_b.bin");
    std::fs::write(&path_a, &ckpt_a).expect("write ckpt a");
    std::fs::write(&path_b, &ckpt_b).expect("write ckpt b");

    let factory = |ds: &GroupDataset| -> ModelFactory {
        let ds = ds.clone();
        Box::new(move |bytes, hash| {
            let entry = entry_from(&ds, bytes);
            assert_eq!(entry.hash(), hash, "factory/transport hash mismatch");
            Ok(entry)
        })
    };

    // 1. shadow-proven swap through the wire
    let server = Arc::new(RegistryServer::new(fusing_config(), factory(&ds)));
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server_thread = {
        let server = Arc::clone(&server);
        let token = token.clone();
        std::thread::spawn(move || {
            serve_tcp(&server, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
                .expect("registry bind")
        })
    };
    let addr = addr_rx.recv().expect("registry ready");

    let mut admin = ServeClient::connect(addr).expect("admin connect");
    assert_eq!(
        admin.load_model(path_a.to_str().unwrap()).expect("transport"),
        Ok(hash_a),
        "LOAD must ack the content hash"
    );
    assert_eq!(admin.load_model(path_b.to_str().unwrap()).expect("transport"), Ok(hash_b));
    assert_eq!(admin.bind_tenant(0, hash_a).expect("transport"), Ok(hash_a));
    fan_out(addr, 0, "active=a", &requests, &reference_a);
    println!("registry_check: active arm bit-identical to checkpoint a over {CLIENTS} clients");

    let quota = requests.len() as u64;
    assert_eq!(admin.stage_shadow(0, hash_b, quota).expect("transport"), Ok(hash_b));
    assert_eq!(
        admin.promote(0).expect("transport"),
        Err(ServeError::Registry(kgag::RegistryError::ShadowNotClean)),
        "an unproven shadow must not promote"
    );
    // live traffic proves the candidate: every admitted request is
    // mirrored through b's batcher and compared against b's offline bits
    fan_out(addr, 0, "shadowing", &requests, &reference_a);
    let status = server.registry().shadow_status(0).expect("shadow staged");
    assert_eq!(status.mismatches, 0, "identical engines can never diverge: {status:?}");
    assert!(
        status.ready(),
        "{} mirrored requests must meet the {quota}-clean quota: {status:?}",
        requests.len()
    );
    assert_eq!(admin.promote(0).expect("transport"), Ok(hash_b), "proven shadow must promote");
    fan_out(addr, 0, "active=b", &requests, &reference_b);
    println!(
        "registry_check: shadow proved {} clean, promote swapped to b bit-identically",
        status.clean
    );

    // 2. rollback oscillation under concurrent clients: no torn response
    std::thread::scope(|s| {
        let mutator = s.spawn(move || {
            let mut admin = ServeClient::connect(addr).expect("mutator connect");
            for _ in 0..40 {
                admin.rollback(0).expect("transport").expect("oscillation");
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let mut counts = Vec::new();
        for chunk_idx in 0..CLIENTS {
            let (requests, reference_a, reference_b) = (&requests, &reference_a, &reference_b);
            counts.push(s.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("loopback connect");
                let (mut saw_a, mut saw_b) = (0usize, 0usize);
                for round in 0..3 {
                    for (i, (g, items)) in requests.iter().enumerate() {
                        if i % CLIENTS != chunk_idx {
                            continue;
                        }
                        let scores = client
                            .score_tenant(0, *g, items)
                            .expect("transport")
                            .expect("oscillating tenant must keep scoring");
                        let bits: Vec<u32> = scores.iter().map(|v| v.to_bits()).collect();
                        let a: Vec<u32> = reference_a[i].iter().map(|v| v.to_bits()).collect();
                        let b: Vec<u32> = reference_b[i].iter().map(|v| v.to_bits()).collect();
                        if bits == a {
                            saw_a += 1;
                        } else if bits == b {
                            saw_b += 1;
                        } else {
                            panic!(
                                "oscillation round {round} request {i}: response matches \
                                 neither checkpoint — torn swap"
                            );
                        }
                    }
                }
                (saw_a, saw_b)
            }));
        }
        mutator.join().unwrap();
        let (mut total_a, mut total_b) = (0, 0);
        for c in counts {
            let (a, b) = c.join().unwrap();
            total_a += a;
            total_b += b;
        }
        println!(
            "registry_check: oscillation served {total_a} responses from a, {total_b} from b, \
             zero torn"
        );
    });
    token.trigger();
    server_thread.join().unwrap();

    // 3. deterministic quota shedding, counters exact
    let qcfg = RegistryConfig { quota_burst: Some(5), shadow_sample: 0, ..fusing_config() };
    let qserver = Arc::new(RegistryServer::new(qcfg, factory(&ds)));
    let qhash = qserver.install(entry_from(&ds, &ckpt_a)).expect("install");
    for tenant in [91u32, 92] {
        qserver.registry().bind(tenant, qhash).expect("bind");
    }
    let qtoken = ShutdownToken::new();
    let (qaddr_tx, qaddr_rx) = std::sync::mpsc::channel();
    let qserver_thread = {
        let qserver = Arc::clone(&qserver);
        let qtoken = qtoken.clone();
        std::thread::spawn(move || {
            serve_tcp(&qserver, "127.0.0.1:0", &qtoken, |a| qaddr_tx.send(a).unwrap())
                .expect("registry bind")
        })
    };
    let qaddr = qaddr_rx.recv().expect("registry ready");
    let mut client = ServeClient::connect(qaddr).expect("loopback connect");
    for tenant in [91u32, 92] {
        let (mut ok, mut shed) = (0u64, 0u64);
        for _ in 0..8 {
            match client.score_tenant(tenant, requests[0].0, &requests[0].1).expect("transport") {
                Ok(_) => ok += 1,
                Err(ServeError::Quota) => shed += 1,
                Err(e) => panic!("quota check: unexpected error {e}"),
            }
        }
        assert_eq!((ok, shed), (5, 3), "tenant {tenant}: burst-5 no-refill governor");
        let accepted = kgag_obs::counter(&format!("registry.tenant{tenant}.accepted")).get();
        let rejected = kgag_obs::counter(&format!("registry.tenant{tenant}.quota_rejected")).get();
        assert_eq!(
            (accepted, rejected),
            (ok, shed),
            "tenant {tenant}: obs counters must match observed admissions"
        );
        println!("registry_check: tenant {tenant} admitted {ok}, shed {shed}, counters exact");
    }
    qtoken.trigger();
    qserver_thread.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "registry_check: loads={} promotions={} rollbacks={} shadow_clean={} shadow_mismatch={}",
        kgag_obs::counter("registry.loads").get(),
        kgag_obs::counter("registry.promotions").get(),
        kgag_obs::counter("registry.rollbacks").get(),
        kgag_obs::counter("registry.shadow_clean").get(),
        kgag_obs::counter("registry.shadow_mismatch").get(),
    );
    assert_eq!(
        kgag_obs::counter("registry.shadow_mismatch").get(),
        0,
        "no genuine divergence exists in this gate"
    );
    println!("registry_check: PASS");
}
