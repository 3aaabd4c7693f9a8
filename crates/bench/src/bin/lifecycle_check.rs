//! CI lifecycle gate (DESIGN.md §13): group mutations applied to a
//! *live* TCP server must be visible to the very next score request,
//! concurrently-mutating clients must never corrupt each other's
//! groups, and every served score must be **bit-identical** to the
//! roster-level reference path `Kgag::score_members` — the path the
//! `lifecycle_oracle` property suite proves equal to rebuilding the
//! dataset and caches from scratch with the final membership.
//!
//! The check trains the fixed smoke model (yelp tiny, split seed 11,
//! fit single-threaded so parameters are thread-count invariant),
//! wraps it in a [`DynamicScorer`](kgag::DynamicScorer), serves it via
//! `serve_tcp` as tenant 0's entry with the scorer as its group
//! lifecycle, and drives four layers:
//!
//! 1. **Concurrent mutate/score** — 4 clients, each creating its own
//!    group from a disjoint user slice, then join → score → leave →
//!    score, checking every response against `score_members` on the
//!    membership its own mirror predicts. Disjoint rosters make the
//!    per-client mirror exact even under arbitrary interleaving.
//! 2. **Bound groups stay bit-identical** — every client also scores a
//!    pre-trained group mid-mutation; bits must match the offline
//!    batch scorer reference captured before the server started.
//! 3. **Typed rejections over the wire** — malformed mutations and
//!    out-of-range score targets come back as the matching
//!    `ServeError`, never a closed connection.
//! 4. **Final-state audit** — after shutdown, the live store's group
//!    count, membership and version must equal what the interleaved
//!    op history implies, and scoring every group in-process must
//!    reproduce `score_members` on the audited rosters.
//!
//! ci.sh runs this at `KGAG_THREADS=1` and `4`. Any divergence panics
//! (non-zero exit fails the gate).

use kgag::{DynamicScorer, Kgag, KgagConfig, RegistryModel, ScoreCases};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_serve::{
    serve_tcp, RegistryConfig, RegistryServer, ServeClient, ServeConfig, ServeError, ShutdownToken,
};
use kgag_tensor::pool::{self, with_threads};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: u32 = 4;

fn assert_bits_equal(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: score length");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: item {j} diverged ({g} vs {w})");
    }
}

fn main() {
    println!("lifecycle_check: pool threads = {}", pool::num_threads());
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    // each client owns users 4c..4c+4: 3 founders and one joiner
    assert!(ds.num_users >= 4 * CLIENTS, "smoke world too small for disjoint rosters");
    let static_groups = ds.num_groups();

    let model = Arc::new(model);
    let scorer = Arc::new(DynamicScorer::shared(model.clone(), true));
    match scorer.cache_bytes() {
        Some(b) => println!("lifecycle_check: rf cache resident ({b} bytes)"),
        None => println!("lifecycle_check: rf cache disabled"),
    }

    // per-client fixed item lists (varying length so cold-start and
    // bound paths both see multi-item requests)
    let items_for = |c: u32| -> Vec<u32> {
        (0..3 + c as usize)
            .map(|j| ((c as usize * 11 + j * 5) % ds.num_items as usize) as u32)
            .collect()
    };
    // offline reference for the bound groups, captured before serving
    let bound_reference: Vec<Vec<f32>> = (0..static_groups)
        .map(|g| {
            model
                .score_members(&ds.groups[g as usize], &items_for(g % CLIENTS))
                .expect("bound roster scores offline")
        })
        .collect();

    let config = ServeConfig {
        batch_window: Duration::from_micros(300),
        max_batch: 7,
        queue_capacity: 4096,
        workers: 2,
    };
    let entry = RegistryModel::new(scorer.clone(), Some(scorer.clone()), 0);
    let rcfg = RegistryConfig { serve: config, ..RegistryConfig::default() };
    let no_loads = Box::new(|_: &[u8], _| Err("lifecycle_check loads nothing".to_owned()));
    let registry = RegistryServer::bootstrap(rcfg, no_loads, entry).expect("entry installs");
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let mut created: Vec<(u32, Vec<u32>)> = std::thread::scope(|s| {
        let server = {
            let (token, registry) = (token.clone(), &registry);
            s.spawn(move || {
                serve_tcp(registry, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
            })
        };
        let addr = addr_rx.recv().expect("server ready");

        // 1+2: concurrent clients mutating disjoint groups while
        // re-scoring a pre-trained group between every mutation
        let mut joins = Vec::new();
        for c in 0..CLIENTS {
            let (model, bound_reference, items, items_for) =
                (&model, &bound_reference, items_for(c), &items_for);
            joins.push(s.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("loopback connect");
                let founders = vec![4 * c, 4 * c + 1, 4 * c + 2];
                let joiner = 4 * c + 3;
                let check = |client: &mut ServeClient, gid: u32, roster: &[u32], stage: &str| {
                    let got = client.score(gid, &items).expect("transport").expect("scores");
                    let want = model.score_members(roster, &items).expect("roster reference");
                    assert_bits_equal(&format!("client {c}/{stage}"), &got, &want);
                };
                let ack = client.create_group(&founders).expect("transport").expect("create ack");
                assert_eq!(ack.members, 3, "client {c}: create ack membership");
                let gid = ack.group;
                assert!(gid >= static_groups, "client {c}: created id collides with bound groups");
                check(&mut client, gid, &founders, "created");

                let ack = client.join_group(gid, joiner).expect("transport").expect("join ack");
                assert_eq!(ack, kgag_data::LifecycleAck { group: gid, members: 4 });
                let mut roster = founders.clone();
                roster.push(joiner);
                check(&mut client, gid, &roster, "after-join");

                // a pre-trained group must keep its offline bits while
                // unrelated mutations land from every client
                let bound = c % static_groups;
                let bitems = items_for(bound % CLIENTS);
                let got = client.score(bound, &bitems).expect("transport").expect("scores");
                assert_bits_equal(
                    &format!("client {c}/bound"),
                    &got,
                    &bound_reference[bound as usize],
                );

                let ack =
                    client.leave_group(gid, founders[1]).expect("transport").expect("leave ack");
                assert_eq!(ack, kgag_data::LifecycleAck { group: gid, members: 3 });
                let roster = vec![founders[0], founders[2], joiner];
                check(&mut client, gid, &roster, "after-leave");
                (gid, roster)
            }));
        }
        let created: Vec<(u32, Vec<u32>)> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        println!("lifecycle_check: {CLIENTS} clients mutated and scored concurrently");

        // 3: typed rejections leave the connection usable
        let mut client = ServeClient::connect(addr).expect("loopback connect");
        let rejections = [
            (
                client.create_group(&[0]).unwrap(),
                ServeError::Lifecycle(kgag_data::LifecycleError::TooFewMembers),
            ),
            (
                client.create_group(&[0, 0]).unwrap(),
                ServeError::Lifecycle(kgag_data::LifecycleError::DuplicateMember),
            ),
            (
                client.create_group(&[0, ds.num_users]).unwrap(),
                ServeError::Lifecycle(kgag_data::LifecycleError::UnknownUser),
            ),
            (
                client.join_group(u32::MAX, 0).unwrap(),
                ServeError::Lifecycle(kgag_data::LifecycleError::UnknownGroup),
            ),
        ];
        for (i, (got, want)) in rejections.iter().enumerate() {
            assert_eq!(got.as_ref().err(), Some(want), "rejection {i}");
        }
        assert_eq!(
            client.score(u32::MAX, &[0]).unwrap(),
            Err(ServeError::Lifecycle(kgag_data::LifecycleError::UnknownGroup)),
            "score pre-validation: unknown group"
        );
        assert_eq!(
            client.score(0, &[ds.num_items]).unwrap(),
            Err(ServeError::Invalid),
            "score pre-validation: out-of-range item"
        );
        let got = client.score(0, &items_for(0)).expect("transport").expect("scores");
        assert_bits_equal("post-rejection bound", &got, &bound_reference[0]);
        println!("lifecycle_check: typed rejections answered, connection intact");

        token.trigger();
        server.join().unwrap().expect("serve_tcp clean exit");
        created
    });

    // 4: final-state audit against the interleaved history
    assert_eq!(scorer.num_groups(), static_groups + CLIENTS, "final group count");
    assert_eq!(scorer.version(), 3 * CLIENTS as u64, "one version bump per applied mutation");
    created.sort_by_key(|(gid, _)| *gid);
    for (gid, roster) in &created {
        let mut want = roster.clone();
        want.sort_unstable();
        assert_eq!(scorer.members_of(*gid), Ok(want), "audited roster for group {gid}");
    }
    let final_cases: Vec<(u32, Vec<u32>)> =
        (0..scorer.num_groups()).map(|g| (g, items_for(g % CLIENTS))).collect();
    let served: Vec<Vec<f32>> = scorer
        .try_score_cases(&final_cases)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("all audited groups score");
    for (g, scores) in served.iter().enumerate() {
        let roster = scorer.members_of(g as u32).expect("audited group");
        let want = model.score_members(&roster, &final_cases[g].1).expect("roster reference");
        assert_bits_equal(&format!("audit group {g}"), scores, &want);
    }
    println!(
        "lifecycle_check: final state audited ({} groups, version {})",
        scorer.num_groups(),
        scorer.version()
    );
    println!("lifecycle_check: PASS");
}
