//! Sharded serving across real OS processes (DESIGN.md §15): two
//! `kgag shard` peers started from the built binary, a router in this
//! process, and the TCP front door in front of it. Scores through the
//! router are bit-identical to single-node scoring, create/join/leave
//! through the router match an in-process live scorer ack for ack and
//! bit for bit, and a peer SIGKILLed mid-stream turns every request
//! that needed it into a typed `ServeError::Shard` — never a panic, a
//! hang or a wrong score. The in-process twins of these checks, over
//! more shard counts and both draw-memo modes, live in
//! `crates/serve/tests/shard_e2e.rs`.
//!
//! The peers and the router load one checkpoint over the CLI's split
//! seed `0x5eed`, exactly as `kgag serve --shards` and its peers do.

use kgag::{Kgag, KgagConfig, RegistryModel};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::LifecycleOp;
use kgag_serve::{
    serve_tcp, RegistryConfig, RegistryServer, ServeClient, ServeError, ShardConfig, ShardPool,
    ShutdownToken,
};
use kgag_tensor::pool::with_threads;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

const KGAG: &str = env!("CARGO_BIN_EXE_kgag");

/// One `kgag shard` peer process, killed on drop.
struct ShardProc {
    child: Child,
    addr: SocketAddr,
}

impl ShardProc {
    fn spawn(index: usize, count: usize, checkpoint: &Path) -> ShardProc {
        let (index, count) = (index.to_string(), count.to_string());
        let mut child = Command::new(KGAG)
            .args(["shard", "--index", &index, "--count", &count])
            .args(["--dataset", "yelp", "--scale", "tiny", "--checkpoint"])
            .arg(checkpoint)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn kgag shard");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("peer stdout");
        let addr = line
            .trim()
            .split_once(" serving on ")
            .unwrap_or_else(|| panic!("peer {index} said {line:?}, expected `... serving on ADDR`"))
            .1
            .parse()
            .expect("peer address");
        ShardProc { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill(); // SIGKILL on Unix
        let _ = self.child.wait();
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn assert_bits_equal(label: &str, idx: usize, got: &[f32], want: &[f32]) {
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{label}: request {idx} diverged");
}

#[test]
fn sigkilled_shard_process_fails_requests_typed_through_the_front_door() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 0x5eed);
    let mut trained = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || trained.fit(&split));
    let bytes = trained.save_checkpoint();
    let dir = std::env::temp_dir().join(format!("kgag_shard_process_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("smoke.kgcp");
    std::fs::write(&checkpoint, &bytes).unwrap();
    // the router restores the checkpoint the way the CLI does
    let mut model = Kgag::new(&ds, &split, KgagConfig::default());
    model.load_checkpoint(&bytes).expect("checkpoint restores");

    // every group over varying candidate windows
    let v = ds.num_items as usize;
    let requests: Vec<(u32, Vec<u32>)> = (0..ds.num_groups())
        .map(|g| {
            let (len, start) = (1 + (g as usize * 7) % 16, (g as usize * 13) % v);
            (g, (0..len).map(|j| ((start + j) % v) as u32).collect())
        })
        .collect();
    let reference = with_threads(1, || model.batch_scorer_with(true).score_cases(&requests));

    let mut shards: Vec<ShardProc> = (0..2).map(|i| ShardProc::spawn(i, 2, &checkpoint)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let pool = ShardPool::connect(&addrs, &ShardConfig::default()).expect("pool connects");
    let router = pool.into_scorer(&model).expect("model card matches");
    let entry = RegistryModel::new(std::sync::Arc::new(router), 0);
    let no_loads = Box::new(|_: &[u8], _| Err("this server loads nothing".to_owned()));
    let server = RegistryServer::bootstrap(RegistryConfig::default(), no_loads, entry).unwrap();
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let handle = {
            let (server, token) = (&server, token.clone());
            s.spawn(move || serve_tcp(server, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap()))
        };
        let mut client = ServeClient::connect(addr_rx.recv().unwrap()).unwrap();

        // healthy pass: bits survive both wires
        for (i, (g, items)) in requests.iter().enumerate() {
            let scores = client.score(*g, items).unwrap().expect("healthy deployment scores");
            assert_bits_equal("healthy", i, &scores, &reference[i]);
        }

        // the router owns the rosters, the peers only tables: a group
        // created, joined and left through the front door answers the
        // acks and bits of an in-process live scorer given the same ops
        let live = model.dynamic_scorer();
        let created = ds.num_groups();
        for op in [
            LifecycleOp::Create { members: vec![1, 2, 3] },
            LifecycleOp::Join { group: created, user: 4 },
            LifecycleOp::Join { group: created, user: 4 },
            LifecycleOp::Leave { group: created, user: 1 },
            LifecycleOp::Leave { group: created + 1, user: 2 },
        ] {
            let got = match op {
                LifecycleOp::Create { ref members } => client.create_group(members),
                LifecycleOp::Join { group, user } => client.join_group(group, user),
                LifecycleOp::Leave { group, user } => client.leave_group(group, user),
            };
            let want = live.apply(&op).map_err(ServeError::Lifecycle);
            assert_eq!(got.expect("transport"), want, "router ack for {op:?}");
        }
        let items: Vec<u32> = (0..ds.num_items.min(12)).collect();
        let scores = client.score(created, &items).unwrap().expect("the created group scores");
        let want = live.score_case(created, &items).expect("in-process twin scores");
        assert_bits_equal("created", 0, &scores, &want);

        // SIGKILL peer 1 while the request stream is in flight, so the
        // death is discovered inside request scoring
        let (kill_tx, kill_rx) = std::sync::mpsc::channel::<()>();
        let killer = s.spawn({
            let peer = &mut shards[1];
            move || {
                kill_rx.recv().expect("stream started");
                peer.kill();
            }
        });
        let mut shard_errors = 0usize;
        for round in 0..3 {
            for (i, (g, items)) in requests.iter().enumerate() {
                if round == 0 && i == 1 {
                    kill_tx.send(()).expect("killer alive");
                }
                match client.score(*g, items).expect("transport must survive a shard death") {
                    Ok(scores) => assert_bits_equal("post-kill", i, &scores, &reference[i]),
                    Err(ServeError::Shard(_)) => shard_errors += 1,
                    Err(other) => panic!("post-kill request {i}: unexpected error {other}"),
                }
            }
        }
        killer.join().expect("killer thread");
        assert!(shard_errors > 0, "peer 1 held half the rows; some requests must have needed it");

        token.trigger();
        handle.join().unwrap().expect("serve_tcp exits cleanly");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_command_rejects_bad_index_arguments() {
    for (args, message) in [
        (&["--index", "2", "--count", "2"][..], "error: --index 2 out of --count 2"),
        (&["--count", "2"][..], "error: --index is required"),
    ] {
        let out = Command::new(KGAG).arg("shard").args(args).output().expect("run kgag shard");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "kgag shard {args:?} must fail");
        assert!(stderr.contains(message), "kgag shard {args:?} said {stderr:?}");
    }
}
