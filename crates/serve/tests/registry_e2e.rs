//! End-to-end tests of the multi-tenant registry server: the full
//! LOAD → BIND → SHADOW → PROMOTE → ROLLBACK → RETIRE journey over TCP
//! with bit-identity against each checkpoint's offline oracle, the
//! quota governor's deterministic shedding, the shadow circuit breaker
//! tripped by an injected serve-path corruption, the un-tenanted
//! opcodes addressing tenant 0's live group table, concurrent group
//! lifecycle clients on a real `DynamicScorer`, and a promote/rollback
//! stress proving no response is ever torn between versions.

use kgag::{
    checkpoint_hash, DynamicScorer, Kgag, KgagConfig, RegistryError, RegistryModel, ScoreCases,
};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupDataset, GroupLifecycle, LifecycleAck, LifecycleError, LifecycleOp};
use kgag_serve::{
    serve_tcp, ModelFactory, RegistryConfig, RegistryServer, ServeClient, ServeConfig, ServeError,
    ShutdownToken,
};
use kgag_tensor::pool::with_threads;
use kgag_testkit::{FaultAction, FaultPlan};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Two distinguishable checkpoints over the same dataset: `a` is the CI
/// smoke fixture (three deterministic epochs, one thread), `b` is the
/// untrained initialisation — different parameters, identical shapes,
/// so either can serve any request the other can.
struct Fixture {
    ds: GroupDataset,
    ckpt_a: Vec<u8>,
    ckpt_b: Vec<u8>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 11);
        let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
        let ckpt_b = model.save_checkpoint();
        with_threads(1, || model.fit(&split));
        let ckpt_a = model.save_checkpoint();
        assert_ne!(checkpoint_hash(&ckpt_a), checkpoint_hash(&ckpt_b));
        Fixture { ds, ckpt_a, ckpt_b }
    })
}

/// Restore a model from checkpoint bytes over the fixture's split.
fn model_from(bytes: &[u8]) -> Kgag {
    let fx = fixture();
    let split = split_dataset(&fx.ds, 11);
    let mut model = Kgag::new(&fx.ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    model.load_checkpoint(bytes).expect("fixture checkpoint must restore");
    model
}

/// Rebuild a registry entry from checkpoint bytes — what the CLI's
/// model factory does, shared here between direct installs and the
/// wire-LOAD factory.
fn entry_from(bytes: &[u8]) -> RegistryModel {
    RegistryModel::try_new(model_from(bytes), checkpoint_hash(bytes)).unwrap()
}

fn factory() -> ModelFactory {
    Box::new(|bytes, hash| {
        let entry = entry_from(bytes);
        assert_eq!(entry.hash(), hash, "factory hash disagrees with transport hash");
        Ok(entry)
    })
}

fn fast_config() -> RegistryConfig {
    RegistryConfig {
        serve: ServeConfig {
            batch_window: Duration::from_micros(100),
            max_batch: 16,
            queue_capacity: 1024,
            workers: 1,
        },
        ..RegistryConfig::default()
    }
}

fn cases() -> Vec<(u32, Vec<u32>)> {
    let fx = fixture();
    let g = fx.ds.num_groups();
    let v = fx.ds.num_items;
    (0..6u32)
        .map(|i| {
            let items: Vec<u32> = (0..5).map(|j| (i * 7 + j * 3) % v).collect();
            (i % g, items)
        })
        .collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Offline oracle: the checkpoint's own `try_score_cases`, single-threaded.
/// The serve path must reproduce these bits exactly, whatever fusion and
/// thread count the batcher used.
fn offline_bits(ckpt: &[u8], cases: &[(u32, Vec<u32>)]) -> Vec<Vec<u32>> {
    let entry = entry_from(ckpt);
    with_threads(1, || entry.try_score_cases(cases))
        .iter()
        .map(|r| bits(r.as_ref().unwrap()))
        .collect()
}

/// Fan `cases` out over 4 concurrent TCP connections to `tenant`; every
/// response must be bit-identical to `want`.
fn fan_out(
    addr: SocketAddr,
    tenant: u32,
    label: &str,
    cases: &[(u32, Vec<u32>)],
    want: &[Vec<u32>],
) {
    std::thread::scope(|s| {
        for c in 0..4 {
            s.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for (ci, (g, items)) in cases.iter().enumerate().skip(c).step_by(4) {
                    let got = client.score_tenant(tenant, *g, items).unwrap().expect(label);
                    assert_eq!(bits(&got), want[ci], "{label}: case {ci} diverged");
                }
            });
        }
    });
}

/// A per-process scratch dir, so concurrent test processes never share
/// checkpoint files; each test removes its own at the end.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A registry server on a loopback port, joined down on drop — the
/// registry twin of `shard_e2e`'s `ShardProc`.
struct RegProc {
    addr: SocketAddr,
    token: ShutdownToken,
    handle: Option<JoinHandle<()>>,
}

impl RegProc {
    fn spawn(server: &Arc<RegistryServer>) -> RegProc {
        let server = Arc::clone(server);
        let token = ShutdownToken::new();
        let server_token = token.clone();
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve_tcp(&server, "127.0.0.1:0", &server_token, |a| {
                let _ = tx.send(a);
            })
            .expect("registry bind");
        });
        let addr = rx.recv().expect("registry ready");
        RegProc { addr, token, handle: Some(handle) }
    }
}

impl Drop for RegProc {
    fn drop(&mut self) {
        self.token.trigger();
        if let Some(h) = self.handle.take() {
            h.join().expect("registry server exits cleanly");
        }
    }
}

#[test]
fn full_registry_journey_over_tcp_is_bit_identical_to_offline() {
    let fx = fixture();
    let cases = cases();
    let want_a = offline_bits(&fx.ckpt_a, &cases);
    let want_b = offline_bits(&fx.ckpt_b, &cases);

    let dir = scratch_dir("kgag_registry_e2e");
    let path_a = dir.join("ckpt_a.bin");
    let path_b = dir.join("ckpt_b.bin");
    std::fs::write(&path_a, &fx.ckpt_a).unwrap();
    std::fs::write(&path_b, &fx.ckpt_b).unwrap();

    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();

    // LOAD both checkpoints by server-local path; acks carry the hashes
    let hash_a = client.load_model(path_a.to_str().unwrap()).unwrap().expect("load a");
    let hash_b = client.load_model(path_b.to_str().unwrap()).unwrap().expect("load b");
    assert_eq!(hash_a, checkpoint_hash(&fx.ckpt_a));
    assert_eq!(hash_b, checkpoint_hash(&fx.ckpt_b));
    // duplicate load and unreadable path are typed
    assert_eq!(
        client.load_model(path_a.to_str().unwrap()).unwrap(),
        Err(ServeError::Registry(RegistryError::DuplicateModel))
    );
    assert_eq!(client.load_model("/nonexistent/ckpt.bin").unwrap(), Err(ServeError::LoadFailed));

    // BIND tenant 1 to a; scoring an unbound tenant is typed
    assert_eq!(
        client.score_tenant(2, 0, &cases[0].1).unwrap(),
        Err(ServeError::Registry(RegistryError::UnknownTenant))
    );
    assert_eq!(client.bind_tenant(1, hash_a).unwrap(), Ok(hash_a));
    assert_eq!(
        client.bind_tenant(1, hash_b).unwrap(),
        Err(ServeError::Registry(RegistryError::TenantBound))
    );

    // served scores are bit-identical to a's offline oracle
    fan_out(proc.addr, 1, "active=a", &cases, &want_a);
    // bounds are typed, not panics
    let bad_group = fx.ds.num_groups() + 50;
    assert_eq!(client.score_tenant(1, bad_group, &[0]).unwrap(), Err(ServeError::Invalid));
    assert_eq!(
        client.score_tenant(1, 0, &[fx.ds.num_items + 1]).unwrap(),
        Err(ServeError::Invalid)
    );

    // SHADOW b with a quota of the whole slice: premature promotion is
    // typed, live traffic from 4 connections proves the candidate (each
    // mirrored request checked against b's own bits), then promotion
    // swaps atomically
    let quota = cases.len() as u64;
    assert_eq!(client.stage_shadow(1, hash_b, quota).unwrap(), Ok(hash_b));
    assert_eq!(
        client.promote(1).unwrap(),
        Err(ServeError::Registry(RegistryError::ShadowNotClean))
    );
    fan_out(proc.addr, 1, "shadowing", &cases, &want_a);
    let status = server.registry().shadow_status(1).expect("shadow staged");
    assert!(status.ready(), "{quota} mirrored requests must meet the quota: {status:?}");
    assert_eq!(status.mismatches, 0, "identical engines can never diverge");
    assert_eq!(client.promote(1).unwrap(), Ok(hash_b));

    // the new active is b, bit-identical to b's offline oracle
    fan_out(proc.addr, 1, "active=b", &cases, &want_b);

    // ROLLBACK returns to a (and is its own inverse)
    assert_eq!(client.rollback(1).unwrap(), Ok(hash_a));
    let got = client.score_tenant(1, cases[0].0, &cases[0].1).unwrap().unwrap();
    assert_eq!(bits(&got), want_a[0]);
    assert_eq!(client.rollback(1).unwrap(), Ok(hash_b));

    // RETIRE is refused while referenced (a is tenant 1's previous)
    assert_eq!(
        client.retire(hash_a).unwrap(),
        Err(ServeError::Registry(RegistryError::ModelInUse))
    );
    assert_eq!(
        client.retire(0xdead).unwrap(),
        Err(ServeError::Registry(RegistryError::UnknownModel))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retire_drops_an_unreferenced_entry_and_its_batcher() {
    let fx = fixture();
    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash = server.install(entry_from(&fx.ckpt_b)).unwrap();
    assert_eq!(server.registry().num_models(), 1);
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();
    assert_eq!(client.retire(hash).unwrap(), Ok(hash));
    assert_eq!(server.registry().num_models(), 0);
    assert_eq!(
        client.retire(hash).unwrap(),
        Err(ServeError::Registry(RegistryError::UnknownModel))
    );
}

/// Every server answers every opcode: the un-tenanted score and
/// lifecycle opcodes address tenant 0, whose active entry keeps its own
/// live group table — so a PROMOTE switches tenant 0 to the
/// candidate's table, and a ROLLBACK back to the one it mutated.
#[test]
fn untenanted_opcodes_address_tenant_zero_and_its_group_table() {
    let fx = fixture();
    let cases = cases();
    let want_a = offline_bits(&fx.ckpt_a, &cases);
    let want_b = offline_bits(&fx.ckpt_b, &cases);
    let dir = scratch_dir("kgag_registry_e2e_tenant0");
    let path_b = dir.join("ckpt_b.bin");
    std::fs::write(&path_b, &fx.ckpt_b).unwrap();

    let server = Arc::new(
        RegistryServer::bootstrap(fast_config(), factory(), entry_from(&fx.ckpt_a)).unwrap(),
    );
    let hash_a = checkpoint_hash(&fx.ckpt_a);
    assert_eq!(server.registry().active_of(0), Ok(hash_a));
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();

    // opcode 0 and opcode 4 for tenant 0 are the same bits
    for (ci, (g, items)) in cases.iter().enumerate() {
        let v2 = client.score(*g, items).unwrap().expect("opcode 0 scores tenant 0");
        let v3 = client.score_tenant(0, *g, items).unwrap().expect("opcode 4 scores tenant 0");
        assert_eq!(bits(&v2), want_a[ci], "case {ci}: opcode 0 diverged from checkpoint a");
        assert_eq!(bits(&v3), want_a[ci], "case {ci}: opcode 4 diverged from checkpoint a");
    }

    // a group created over opcode 1 scores through opcode 4 for tenant 0,
    // bit-identical to the same mutation on an offline entry
    let members = vec![1u32, 2, 3];
    let ack = client.create_group(&members).unwrap().expect("tenant 0 has a lifecycle");
    assert_eq!(ack.group, fx.ds.num_groups(), "created ids follow the bound groups");
    let reference = entry_from(&fx.ckpt_a);
    let op = LifecycleOp::Create { members: members.clone() };
    reference.apply_op(&op).unwrap();
    let created = (ack.group, cases[0].1.clone());
    let want_created = bits(
        with_threads(1, || reference.try_score_cases(std::slice::from_ref(&created)))[0]
            .as_ref()
            .unwrap(),
    );
    let v3 = client.score_tenant(0, created.0, &created.1).unwrap().expect("created group");
    let v2 = client.score(created.0, &created.1).unwrap().expect("created group");
    assert_eq!(bits(&v3), want_created);
    assert_eq!(bits(&v2), want_created);

    // an unknown group: opcode 0 answers in lifecycle terms, opcode 4 as
    // a bad id
    let unknown = ack.group + 1;
    assert_eq!(
        client.score(unknown, &[0]).unwrap(),
        Err(ServeError::Lifecycle(LifecycleError::UnknownGroup))
    );
    assert_eq!(client.score_tenant(0, unknown, &[0]).unwrap(), Err(ServeError::Invalid));

    // after a PROMOTE tenant 0 reads the candidate's own group table:
    // the group created before the promotion is unknown there
    let hash_b = client.load_model(path_b.to_str().unwrap()).unwrap().expect("load b");
    assert_eq!(client.stage_shadow(0, hash_b, 0).unwrap(), Ok(hash_b));
    assert_eq!(client.promote(0).unwrap(), Ok(hash_b));
    assert_eq!(
        client.score(created.0, &created.1).unwrap(),
        Err(ServeError::Lifecycle(LifecycleError::UnknownGroup))
    );
    assert_eq!(client.score_tenant(0, created.0, &created.1).unwrap(), Err(ServeError::Invalid));
    assert_eq!(
        client.join_group(created.0, 4).unwrap(),
        Err(ServeError::Lifecycle(LifecycleError::UnknownGroup))
    );
    let got = client.score(cases[0].0, &cases[0].1).unwrap().unwrap();
    assert_eq!(bits(&got), want_b[0], "opcode 0 follows the promotion");

    // ROLLBACK returns tenant 0 to a's table, where the group still lives
    assert_eq!(client.rollback(0).unwrap(), Ok(hash_a));
    let got = client.score(created.0, &created.1).unwrap().expect("a's table kept the group");
    assert_eq!(bits(&got), want_created);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group lifecycle under concurrent clients: tenant 0 is a real
/// `DynamicScorer`, and 4 clients each create → join → leave a group on
/// a disjoint roster, so each client's own mirror predicts its group
/// exactly under any interleaving. Every score equals
/// `Kgag::score_members` on that roster, a bound group keeps its
/// offline bits while mutations land, and the final table is what the
/// op history implies.
#[test]
fn concurrent_lifecycle_clients_score_like_the_roster_reference() {
    const CLIENTS: u32 = 4;
    let fx = fixture();
    let ds = &fx.ds;
    // each client owns users 4c..4c+4: 3 founders and one joiner
    assert!(ds.num_users >= 4 * CLIENTS, "smoke world too small for disjoint rosters");
    let static_groups = ds.num_groups();
    let model = Arc::new(model_from(&fx.ckpt_a));
    let scorer = Arc::new(DynamicScorer::shared(model.clone()));
    let entry = RegistryModel::new(scorer.clone(), 0);
    let server = Arc::new(RegistryServer::bootstrap(fast_config(), factory(), entry).unwrap());
    let items_for =
        |c: u32| -> Vec<u32> { (0..3 + c).map(|j| (c * 11 + j * 5) % ds.num_items).collect() };
    let reference = |roster: &[u32], items: &[u32]| {
        bits(&model.score_members(roster, items).expect("roster reference"))
    };

    let proc = RegProc::spawn(&server);
    let addr = proc.addr;
    let mut created: Vec<(u32, Vec<u32>)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (items_for, reference) = (&items_for, &reference);
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    let items = items_for(c);
                    let check =
                        |client: &mut ServeClient, gid: u32, roster: &[u32], stage: &str| {
                            let got = client.score(gid, &items).unwrap().expect("lifecycle scores");
                            assert_eq!(bits(&got), reference(roster, &items), "client {c}/{stage}");
                        };
                    let founders = [4 * c, 4 * c + 1, 4 * c + 2];
                    let joiner = 4 * c + 3;
                    let ack = client.create_group(&founders).unwrap().expect("create ack");
                    assert_eq!(ack.members, 3, "client {c}: create ack membership");
                    let gid = ack.group;
                    assert!(gid >= static_groups, "client {c}: created id collides");
                    check(&mut client, gid, &founders, "created");

                    let ack = client.join_group(gid, joiner).unwrap().expect("join ack");
                    assert_eq!(ack, LifecycleAck { group: gid, members: 4 });
                    check(
                        &mut client,
                        gid,
                        &[founders[0], founders[1], founders[2], joiner],
                        "after-join",
                    );

                    // a bound group keeps its offline bits while unrelated
                    // mutations land from every client
                    let bound = c % static_groups;
                    let bitems = items_for(bound % CLIENTS);
                    let got = client.score(bound, &bitems).unwrap().expect("bound scores");
                    let want = reference(&fx.ds.groups[bound as usize], &bitems);
                    assert_eq!(bits(&got), want, "client {c}/bound");

                    let ack = client.leave_group(gid, founders[1]).unwrap().expect("leave ack");
                    assert_eq!(ack, LifecycleAck { group: gid, members: 3 });
                    let roster = vec![founders[0], founders[2], joiner];
                    check(&mut client, gid, &roster, "after-leave");
                    (gid, roster)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    drop(proc);

    // final-state audit against the interleaved history
    let groups = scorer.groups().clone();
    assert_eq!(groups.num_groups(), static_groups + CLIENTS, "final group count");
    assert_eq!(groups.version(), 3 * CLIENTS as u64, "one version bump per applied mutation");
    created.sort_by_key(|(gid, _)| *gid);
    for (gid, roster) in &created {
        let mut want = roster.clone();
        want.sort_unstable();
        assert_eq!(groups.members(*gid), Ok(&want[..]), "audited roster for group {gid}");
    }
    let final_cases: Vec<(u32, Vec<u32>)> =
        (0..groups.num_groups()).map(|g| (g, items_for(g % CLIENTS))).collect();
    for (g, result) in scorer.try_score_cases(&final_cases).into_iter().enumerate() {
        let roster = groups.members(g as u32).expect("audited group");
        let got = result.expect("every audited group scores");
        assert_eq!(bits(&got), reference(roster, &final_cases[g].1), "audit group {g}");
    }
}

/// Quota governor with no refill: the first `burst` requests per tenant
/// are admitted, every later one is `Quota`, and the per-tenant obs
/// counters agree exactly. Tenant ids are unique to this test because
/// the counters are process-global.
#[test]
fn quota_sheds_deterministically_and_counters_match() {
    let fx = fixture();
    let cfg =
        RegistryConfig { quota_rate: 0.0, quota_burst: Some(5), shadow_sample: 0, ..fast_config() };
    let server = Arc::new(RegistryServer::new(cfg, factory()));
    let hash = server.install(entry_from(&fx.ckpt_b)).unwrap();
    server.registry().bind(42, hash).unwrap();
    server.registry().bind(43, hash).unwrap();
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();

    let case = &cases()[0];
    for tenant in [42u32, 43] {
        let mut ok = 0;
        let mut shed = 0;
        for _ in 0..8 {
            match client.score_tenant(tenant, case.0, &case.1).unwrap() {
                Ok(_) => ok += 1,
                Err(ServeError::Quota) => shed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!((ok, shed), (5, 3), "tenant {tenant}: burst=5, no refill, 8 requests");
        let accepted = kgag_obs::counter(&format!("registry.tenant{tenant}.accepted")).get();
        let rejected = kgag_obs::counter(&format!("registry.tenant{tenant}.quota_rejected")).get();
        assert_eq!((accepted, rejected), (5, 3), "tenant {tenant} counters disagree");
    }
}

/// The tenant-tagged score path has the same untrusted `deadline_us`
/// field as v2: an overflowing value must saturate to "no deadline"
/// and score bit-identically, never panic the connection thread.
#[test]
fn tenant_scoring_survives_overflowing_deadline() {
    let fx = fixture();
    let cases = cases();
    let want = offline_bits(&fx.ckpt_a, &cases);
    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash = server.install(entry_from(&fx.ckpt_a)).unwrap();
    server.registry().bind(77, hash).unwrap();
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();
    // bound the test if a regression kills the connection thread
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let (g, items) = &cases[0];
    for deadline_us in [u64::MAX, 1 << 62] {
        let got = client
            .score_tenant_with_deadline_us(77, *g, items, deadline_us)
            .expect("connection must survive a hostile deadline")
            .expect("an effectively-infinite deadline must score");
        assert_eq!(bits(&got), want[0], "deadline_us = {deadline_us}");
    }
}

/// The shadow circuit breaker trips on a genuinely divergent serve
/// path: the candidate's batcher corrupts one score (injected fault),
/// the mirror comparison records the mismatch, and the candidate is
/// quarantined registry-wide — while the active arm never misses a
/// beat.
#[test]
fn shadow_divergence_quarantines_the_candidate() {
    let fx = fixture();
    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash_a = server.install(entry_from(&fx.ckpt_a)).unwrap();
    let hash_b = server
        .install_faulted(entry_from(&fx.ckpt_b), FaultPlan::nth(0, FaultAction::Corrupt))
        .unwrap();
    server.registry().bind(7, hash_a).unwrap();
    server.registry().stage_shadow(7, hash_b, 100).unwrap();

    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();
    let case = &cases()[0];
    let want_a = offline_bits(&fx.ckpt_a, std::slice::from_ref(case));

    // the first mirrored request draws the corruption: mismatch
    let got = client.score_tenant(7, case.0, &case.1).unwrap().expect("active arm unaffected");
    assert_eq!(bits(&got), want_a[0], "active response must stay bit-identical to a");

    assert!(server.registry().is_quarantined(hash_b), "one mismatch must quarantine");
    assert_eq!(server.registry().shadow_status(7), None, "the stage must dissolve");
    assert_eq!(
        server.registry().stage_shadow(7, hash_b, 1),
        Err(RegistryError::Quarantined),
        "quarantined candidates cannot be restaged"
    );
    assert_eq!(
        client.promote(7).unwrap(),
        Err(ServeError::Registry(RegistryError::ShadowNotClean))
    );
    assert!(kgag_obs::counter("registry.shadow_mismatch").get() >= 1);

    // the active arm keeps serving, still bit-identical
    let got = client.score_tenant(7, case.0, &case.1).unwrap().unwrap();
    assert_eq!(bits(&got), want_a[0]);
}

/// Promote/rollback storm under concurrent clients: every response must
/// be bit-identical to ONE checkpoint's offline scores for that case —
/// never a row mixed across versions — and a second tenant, pinned to a
/// single version throughout, must never see the other one.
#[test]
fn promote_rollback_storm_never_tears_a_response() {
    let fx = fixture();
    let cases = cases();
    let want_a = offline_bits(&fx.ckpt_a, &cases);
    let want_b = offline_bits(&fx.ckpt_b, &cases);

    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash_a = server.install(entry_from(&fx.ckpt_a)).unwrap();
    let hash_b = server.install(entry_from(&fx.ckpt_b)).unwrap();
    // tenant 0 oscillates between a and b; tenant 1 is pinned to a
    server.registry().bind(0, hash_a).unwrap();
    server.registry().bind(1, hash_a).unwrap();
    server.registry().stage_shadow(0, hash_b, 0).unwrap();
    server.registry().promote(0).unwrap(); // active b, previous a

    let proc = RegProc::spawn(&server);
    let addr = proc.addr;
    std::thread::scope(|s| {
        let mutator = s.spawn(move || {
            let mut admin = ServeClient::connect(addr).unwrap();
            for _ in 0..60 {
                admin.rollback(0).unwrap().expect("wire ROLLBACK storm");
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        let mut clients = Vec::new();
        for t in 0..4u32 {
            let (cases, want_a, want_b) = (&cases, &want_a, &want_b);
            clients.push(s.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let tenant = t % 2;
                for i in 0..40usize {
                    let ci = (i + t as usize) % cases.len();
                    let (g, items) = &cases[ci];
                    let got =
                        client.score_tenant(tenant, *g, items).unwrap().expect("storm scores");
                    let got = bits(&got);
                    if tenant == 1 {
                        assert_eq!(got, want_a[ci], "pinned tenant saw the other version");
                    } else {
                        assert!(
                            got == want_a[ci] || got == want_b[ci],
                            "case {ci}: response matches neither checkpoint — torn mix"
                        );
                    }
                }
            }));
        }
        mutator.join().unwrap();
        for c in clients {
            c.join().unwrap();
        }
    });
}
