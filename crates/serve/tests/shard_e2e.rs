//! End-to-end loopback proof of the sharded scatter-gather path
//! (DESIGN.md §15): real `serve_shard` TCP servers, a [`ShardPool`]
//! with its per-peer workers, and a [`ShardedScorer`] — checked for bit
//! identity against the offline single-node oracle, and for typed
//! per-request failure (never a panic or a hang) when a shard dies
//! mid-deployment.
//!
//! The core-side property suite (`crates/core/tests/shard_oracle.rs`)
//! already sweeps partition counts, thread counts and memo modes via
//! `LocalFetch`; this file pins down what only the network can break:
//! handshakes, framing, the peer pool's failure semantics, and the
//! per-case errors the batcher maps onto the wire, and what a router
//! serves as tenant 0's model: create/join/leave on its own group
//! table, while LOAD still builds in-process entries.

use kgag::{checkpoint_hash, Kgag, KgagConfig, RegistryModel, ScoreCases, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupDataset, GroupLifecycle, LifecycleOp};
use kgag_serve::{
    serve_shard, serve_tcp, LifecycleResult, RegistryConfig, RegistryServer, ServeClient,
    ServeError, ServeResult, ShardConfig, ShardPool, ShutdownToken,
};
use kgag_tensor::pool::with_threads;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

static FIXTURE: OnceLock<(GroupDataset, Kgag)> = OnceLock::new();

/// The CI smoke fixture: tiny Yelp-shaped dataset, three deterministic
/// epochs on one thread. Shared across tests — training dominates the
/// runtime.
fn fixture() -> &'static (GroupDataset, Kgag) {
    FIXTURE.get_or_init(|| {
        let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 11);
        let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
        with_threads(1, || model.fit(&split));
        (ds, model)
    })
}

struct ShardProc {
    addr: SocketAddr,
    token: ShutdownToken,
    handle: Option<JoinHandle<()>>,
}

impl ShardProc {
    fn spawn(model: &Kgag, index: usize, count: usize) -> ShardProc {
        let state = model.shard_state(index, count);
        let token = ShutdownToken::new();
        let server_token = token.clone();
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve_shard(&state, "127.0.0.1:0", &server_token, |a| {
                let _ = tx.send(a);
            })
            .expect("shard bind");
        });
        let addr = rx.recv().expect("shard ready");
        ShardProc { addr, token, handle: Some(handle) }
    }

    fn kill(&mut self) {
        self.token.trigger();
        if let Some(h) = self.handle.take() {
            h.join().expect("shard server exits cleanly");
        }
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn spawn_deployment(model: &Kgag, count: usize) -> (Vec<ShardProc>, ShardPool) {
    let shards: Vec<ShardProc> = (0..count).map(|i| ShardProc::spawn(model, i, count)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let pool = ShardPool::connect(&addrs, &ShardConfig::default()).expect("pool connects");
    (shards, pool)
}

fn cases(ds: &GroupDataset) -> Vec<(u32, Vec<u32>)> {
    let g = ds.num_groups();
    let v = ds.num_items;
    (0..6u32)
        .map(|i| {
            let items: Vec<u32> = (0..5).map(|j| (i * 3 + j) % v).collect();
            (i % g, items)
        })
        .collect()
}

/// The router's per-case results as the wire reports them.
fn served(scorer: &impl ScoreCases, cases: &[(u32, Vec<u32>)]) -> Vec<ServeResult> {
    scorer.try_score_cases(cases).into_iter().map(|r| r.map_err(ServeError::from)).collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn tcp_sharded_scores_are_bit_identical_to_single_node() {
    let (ds, model) = fixture();
    let cases = cases(ds);
    let want: Vec<Vec<u32>> = with_threads(1, || model.batch_scorer_with(true).score_cases(&cases))
        .iter()
        .map(|r| bits(r))
        .collect();
    // memo off sends every neighbour draw over the wire: same bits
    for (count, memo) in [(2usize, true), (2, false), (3, true), (3, false)] {
        let (_shards, pool) = spawn_deployment(model, count);
        let got = if memo {
            served(&pool.into_scorer(model).expect("model card matches"), &cases)
        } else {
            served(&Scorer::new(model, pool), &cases)
        };
        assert_eq!(got.len(), cases.len());
        for (ci, result) in got.iter().enumerate() {
            let scores = result.as_ref().unwrap_or_else(|e| {
                panic!("case {ci} failed over {count} healthy shards, memo {memo}: {e}")
            });
            assert_eq!(
                bits(scores),
                want[ci],
                "case {ci} diverged over {count} shards, memo {memo}"
            );
        }
    }
}

#[test]
fn out_of_range_requests_get_typed_invalid_not_a_panic() {
    let (ds, model) = fixture();
    let (_shards, pool) = spawn_deployment(model, 2);
    let scorer = pool.into_scorer(model).expect("model card matches");
    let good = (0, vec![0u32, 1]);
    let bad_group = (ds.num_groups() + 7, vec![0u32]);
    let bad_item = (0, vec![ds.num_items + 1]);
    let got = served(&scorer, &[good, bad_group, bad_item]);
    assert!(got[0].is_ok(), "valid case must still be answered");
    assert_eq!(got[1], Err(ServeError::Invalid));
    assert_eq!(got[2], Err(ServeError::Invalid));
}

#[test]
fn killing_a_shard_yields_typed_errors_on_affected_requests_only() {
    let (ds, model) = fixture();
    let cases = cases(ds);
    let want: Vec<Vec<u32>> = with_threads(1, || model.batch_scorer_with(true).score_cases(&cases))
        .iter()
        .map(|r| bits(r))
        .collect();
    let (mut shards, pool) = spawn_deployment(model, 2);
    let scorer = Scorer::new(model, pool);

    // healthy warm-up: every case answers
    for r in served(&scorer, &cases) {
        r.expect("healthy deployment answers everything");
    }

    shards[1].kill();

    let got = served(&scorer, &cases);
    let mut failed = 0;
    for (ci, result) in got.into_iter().enumerate() {
        match result {
            Ok(scores) => assert_eq!(
                bits(&scores),
                want[ci],
                "a case untouched by the dead shard must stay bit-identical"
            ),
            Err(ServeError::Shard(_)) => failed += 1,
            Err(other) => panic!("case {ci}: expected a shard error, got {other}"),
        }
    }
    assert!(failed > 0, "half the rows are gone; something must have needed them");
    assert!(scorer.source().is_dead(1), "the pool must have marked the dead peer");

    // the deployment keeps answering (or typed-failing) — no hang, no panic
    let again = served(&scorer, &cases[..2]);
    assert_eq!(again.len(), 2);
    for r in again {
        if let Err(e) = r {
            assert!(matches!(e, ServeError::Shard(_)), "only typed shard errors: {e}");
        }
    }
}

/// Send one lifecycle op through the front door.
fn send(client: &mut ServeClient, op: &LifecycleOp) -> LifecycleResult {
    match *op {
        LifecycleOp::Create { ref members } => client.create_group(members),
        LifecycleOp::Join { group, user } => client.join_group(group, user),
        LifecycleOp::Leave { group, user } => client.leave_group(group, user),
    }
    .expect("transport")
}

/// A router is tenant 0's model on the one server: it scores opcode 0
/// bit-identically to single-node, applies create/join/leave to its
/// own group table with the acks and bits of an in-process live scorer
/// given the same ops, and a LOAD + BIND on the same server builds an
/// in-process entry with a table of its own — never a second router.
#[test]
fn router_server_mutates_its_groups_and_loads_in_process_entries() {
    let (ds, model) = fixture();
    let cases = cases(ds);
    let want: Vec<Vec<u32>> = with_threads(1, || model.batch_scorer_with(true).score_cases(&cases))
        .iter()
        .map(|r| bits(r))
        .collect();
    // a second checkpoint over the same dataset: the untrained init
    let split = split_dataset(ds, 11);
    let untrained = Kgag::new(ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    let want_loaded: Vec<Vec<u32>> =
        with_threads(1, || untrained.batch_scorer_with(true).score_cases(&cases))
            .iter()
            .map(|r| bits(r))
            .collect();
    let dir = std::env::temp_dir().join(format!("kgag_shard_e2e_router_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("untrained.bin");
    std::fs::write(&path, untrained.save_checkpoint()).unwrap();

    let (_shards, pool) = spawn_deployment(model, 2);
    let router = pool.into_scorer(model).expect("model card matches");
    let entry = RegistryModel::new(Arc::new(router), checkpoint_hash(&model.save_checkpoint()));
    let factory = Box::new(move |bytes: &[u8], hash| {
        let split = split_dataset(ds, 11);
        let mut m = Kgag::new(ds, &split, KgagConfig { epochs: 3, ..Default::default() });
        m.load_checkpoint(bytes).map_err(|e| e.to_string())?;
        RegistryModel::try_new(m, hash).map_err(|e| e.to_string())
    });
    let server = RegistryServer::bootstrap(RegistryConfig::default(), factory, entry).unwrap();
    let reference = model.dynamic_scorer();
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let handle = {
            let (server, token) = (&server, token.clone());
            s.spawn(move || serve_tcp(server, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap()))
        };
        let mut client = ServeClient::connect(addr_rx.recv().unwrap()).unwrap();
        for (ci, (g, items)) in cases.iter().enumerate() {
            let got = client.score(*g, items).unwrap().expect("router scores opcode 0");
            assert_eq!(bits(&got), want[ci], "case {ci}: router diverged from single-node");
        }

        // create, join and leave, valid and refused, ack for ack
        let created = ds.num_groups();
        for op in [
            LifecycleOp::Create { members: vec![1, 2, 3] },
            LifecycleOp::Join { group: created, user: 5 },
            LifecycleOp::Join { group: created, user: 5 },
            LifecycleOp::Leave { group: created, user: 2 },
            LifecycleOp::Leave { group: created + 1, user: 2 },
        ] {
            let want = reference.apply(&op).map_err(ServeError::Lifecycle);
            assert_eq!(send(&mut client, &op), want, "router ack for {op:?}");
        }
        for (g, items) in [(created, &cases[0].1), (0, &cases[1].1)] {
            let got = client.score(g, items).unwrap().expect("live group scores");
            let want = reference.score_case(g, items).expect("reference scores");
            assert_eq!(bits(&got), bits(&want), "group {g}: router diverged after mutations");
        }
        assert_eq!(
            client.score(created + 1, &[0]).unwrap(),
            Err(ServeError::Lifecycle(kgag_data::LifecycleError::UnknownGroup))
        );

        let hash = client.load_model(path.to_str().unwrap()).unwrap().expect("LOAD on a router");
        assert_eq!(client.bind_tenant(1, hash).unwrap(), Ok(hash));
        let entry = server.registry().entry(hash).expect("resident");
        assert_eq!(entry.group_count(), created, "the loaded entry has its own group table");
        for (ci, (g, items)) in cases.iter().enumerate() {
            let got = client.score_tenant(1, *g, items).unwrap().expect("loaded entry scores");
            assert_eq!(bits(&got), want_loaded[ci], "case {ci}: loaded entry diverged");
        }
        // lifecycle opcodes still address the router, tenant 0
        let op = LifecycleOp::Create { members: vec![4, 5, 6] };
        assert_eq!(send(&mut client, &op), reference.apply(&op).map_err(ServeError::Lifecycle));
        assert_eq!(entry.group_count(), created, "tenant 1's table is untouched");
        token.trigger();
        handle.join().unwrap().expect("serve_tcp exits cleanly");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
