//! The dynamic-group lifecycle oracle (DESIGN.md §13).
//!
//! The [`kgag::DynamicScorer`] promises **mutate ≡ rebuild**: after any
//! interleaved sequence of create/join/leave mutations, every score it
//! serves is bit-identical to tearing everything down and rebuilding —
//! a fresh dataset carrying the *final* membership, a fresh model over
//! the original split with the trained checkpoint loaded, fresh
//! receptive-field caches — and scoring through the static engine. The
//! property suite here drives random op sequences against exactly that
//! oracle, plus a second reference (the tape reference
//! [`Kgag::tape_reference_scores`], which samples fields live), so the live
//! scorer is checked against two independently-computed answers.
//!
//! CI runs the suite at `KGAG_THREADS=1` and `4`; the headline property
//! sweeps the in-process scorer with the cache on and off and the
//! router over a 2-shard [`LocalFetch`] with the draw memo off and on,
//! and the explicit matrix test below additionally sweeps threads ×
//! cache inside one process. A gated fetch proves a mutation never
//! waits on a chunk in flight.
//!
//! Cold-start scoring gets its own unit tests: a never-trained group's
//! attention-aggregated score is recomputed by hand from raw embedding
//! rows, and every malformed input yields a typed error, never a panic.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{
    ChunkSource, DrawMemo, DynamicScorer, Kgag, KgagConfig, LocalFetch, ScoreCases, ScoreError,
    Scorer, ShardError, ShardFetch,
};
use kgag_data::movielens::Scale;
use kgag_data::split::{split_dataset, DatasetSplit};
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupDataset, GroupStore, Interactions, LifecycleError, LifecycleOp};
use kgag_tensor::pool::with_threads;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u32_in, vec_of};
use kgag_testkit::prop_assert_eq;
use std::sync::{mpsc, Mutex};
use std::time::Duration;

fn smoke_model() -> (GroupDataset, DatasetSplit, Kgag, Vec<u8>) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    assert!(!cases.is_empty(), "tiny world must produce test cases");
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    let ckpt = model.save_checkpoint();
    (ds, split, model, ckpt)
}

/// Map one generated `(kind, a, b)` triple to a concrete op against the
/// current mirror state. Most draws are valid mutations; the remainder
/// exercise the typed-rejection paths, which must also agree between
/// the live scorer and the mirror.
fn interpret(mirror: &GroupStore, num_users: u32, kind: u32, a: u32, b: u32) -> LifecycleOp {
    let ng = mirror.num_groups();
    match kind {
        0 | 1 => {
            let size = 2 + (b % 3);
            let start = a % num_users;
            let members: Vec<u32> = (0..size).map(|i| (start + i) % num_users).collect();
            LifecycleOp::Create { members }
        }
        2 | 3 => LifecycleOp::Join { group: a % ng, user: b % num_users },
        4 => {
            // leave a current member — usually valid (rejected only when
            // the group is already at the floor)
            let g = a % ng;
            let members = mirror.members(g).expect("mirror group exists");
            LifecycleOp::Leave { group: g, user: members[b as usize % members.len()] }
        }
        _ => LifecycleOp::Leave { group: a % ng, user: b % num_users },
    }
}

/// The rebuild side of the oracle: the original dataset with the final
/// membership table swapped in. Created groups get a placeholder
/// positive so the dataset still validates — `group_pos` never enters
/// the scoring path.
fn rebuilt_dataset(ds: &GroupDataset, final_groups: &[Vec<u32>]) -> GroupDataset {
    let mut ds2 = ds.clone();
    ds2.groups = final_groups.to_vec();
    let mut gp = Interactions::new(final_groups.len() as u32, ds.num_items);
    for (g, v) in ds.group_pos.pairs() {
        gp.insert(g, v);
    }
    for g in ds.num_groups()..final_groups.len() as u32 {
        gp.insert(g, 0);
    }
    ds2.group_pos = gp;
    ds2
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Which live scorer a case drives.
#[derive(Clone, Copy, Debug)]
enum Leg {
    /// In process, receptive-field cache on or off.
    InProcess { cache: bool },
    /// The router over a 2-shard [`LocalFetch`], draw memo on or off.
    Router { memo: bool },
}

fn local_fetch(model: &Kgag) -> LocalFetch {
    LocalFetch::new((0..2).map(|i| model.shard_state(i, 2)).collect())
}

/// Drive one op sequence through the `leg`'s live scorer, then check
/// its scores for *every* live group against both references.
fn run_case(
    ds: &GroupDataset,
    split: &DatasetSplit,
    model: &Kgag,
    ckpt: &[u8],
    ops: &[(u32, u32, u32)],
    leg: Leg,
) -> Result<(), String> {
    match leg {
        Leg::InProcess { cache } => {
            check_live(ds, split, model, ckpt, ops, cache, &model.dynamic_scorer_with(cache))
        }
        Leg::Router { memo: false } => {
            let live = DynamicScorer::from(Scorer::new(model, local_fetch(model)));
            check_live(ds, split, model, ckpt, ops, true, &live)
        }
        Leg::Router { memo: true } => {
            let live = DynamicScorer::from(Scorer::new(model, DrawMemo::new(local_fetch(model))));
            check_live(ds, split, model, ckpt, ops, true, &live)
        }
    }
}

/// The oracle over one live scorer; the rebuild scores with the cache
/// `cache`. Returns the typed failure on divergence.
fn check_live<S: ChunkSource>(
    ds: &GroupDataset,
    split: &DatasetSplit,
    model: &Kgag,
    ckpt: &[u8],
    ops: &[(u32, u32, u32)],
    cache: bool,
    live: &DynamicScorer<S>,
) -> Result<(), String> {
    let mut mirror = model.group_store();
    for &(kind, a, b) in ops {
        let op = interpret(&mirror, ds.num_users, kind, a, b);
        let want = mirror.apply(&op).map(|applied| applied.ack);
        let got = live.apply(&op);
        prop_assert_eq!(got, want, "live ack diverged from mirror for {:?}", op);
    }
    prop_assert_eq!(live.groups().version(), mirror.version(), "mutation counters diverged");

    let items: Vec<u32> = (0..ds.num_items.min(8)).collect();
    let cases: Vec<(u32, Vec<u32>)> =
        (0..mirror.num_groups()).map(|g| (g, items.clone())).collect();
    let served: Vec<Vec<f32>> = live
        .try_score_cases(&cases)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("live scoring failed: {e}"))?;

    // reference 1: the per-case cold-start path over the final
    // membership — live sampling, no caches, no batching
    for (g, got) in served.iter().enumerate() {
        let members = mirror.members(g as u32).expect("scored group exists");
        let want = model.tape_reference_scores(members, &items);
        prop_assert_eq!(
            bits(got),
            bits(&want),
            "group {} (members {:?}): live scorer != per-case cold-start path",
            g,
            members
        );
    }

    // reference 2: full rebuild — fresh dataset with the final
    // membership, fresh model on the original split, checkpoint
    // reloaded, fresh caches, static batched engine
    let ds2 = rebuilt_dataset(ds, mirror.groups());
    let mut rebuilt = Kgag::new(&ds2, split, model.config().clone());
    rebuilt.load_checkpoint(ckpt).expect("checkpoint shapes are membership-independent");
    let oracle = rebuilt.batch_scorer_with(cache).score_cases(&cases);
    for (g, (got, want)) in served.iter().zip(&oracle).enumerate() {
        prop_assert_eq!(
            bits(got),
            bits(want),
            "group {}: mutate-then-score != rebuild-from-scratch (cache={})",
            g,
            cache
        );
    }
    Ok(())
}

/// The headline property: ≥64 random interleavings of create/join/leave
/// (valid and rejected), scored after the fact, must match both the
/// per-case path and the full rebuild bit for bit — in process with the
/// receptive-field cache on and off, and through the router with the
/// draw memo off and on, each leg over the same op sequences at the
/// full case count. Runs under whatever `KGAG_THREADS` the environment
/// sets; the CI test stage runs it at 1 and 4.
#[test]
fn mutate_then_score_equals_rebuild_from_final_membership() {
    let (ds, split, model, ckpt) = smoke_model();
    let gen = vec_of((u32_in(0..6), u32_in(0..10_000), u32_in(0..10_000)), 1..9);
    for leg in [
        Leg::InProcess { cache: true },
        Leg::InProcess { cache: false },
        Leg::Router { memo: false },
        Leg::Router { memo: true },
    ] {
        Runner::new("lifecycle-oracle")
            .run(&gen, |ops| run_case(&ds, &split, &model, &ckpt, ops, leg));
    }
}

/// The same oracle swept explicitly over threads × cache inside one
/// process: the serving pool width and the cache toggle must both be
/// invisible in the bits.
#[test]
fn lifecycle_oracle_is_thread_and_cache_invariant() {
    let (ds, split, model, ckpt) = smoke_model();
    let gen = vec_of((u32_in(0..6), u32_in(0..10_000), u32_in(0..10_000)), 1..7);
    for threads in [1usize, 4] {
        for cache in [false, true] {
            with_threads(threads, || {
                Runner::new("lifecycle-matrix").cases(6).run(&gen, |ops| {
                    run_case(&ds, &split, &model, &ckpt, ops, Leg::InProcess { cache })
                })
            });
        }
    }
}

/// A [`LocalFetch`] whose first `fetch_draws` parks until released:
/// it holds one chunk of one score in flight for as long as a test
/// needs.
struct GatedFetch {
    inner: LocalFetch,
    parked: Mutex<Option<mpsc::Sender<()>>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl ShardFetch for GatedFetch {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        let parked = self.parked.lock().unwrap().take();
        if let Some(parked) = parked {
            parked.send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        self.inner.fetch_draws(salt, level, entities)
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.inner.fetch_entity_rows(ids)
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.inner.fetch_relation_rows(ids)
    }
}

/// A mutation never waits on an in-flight chunk: while a score sits
/// parked inside the router's draw fetch, a join on the very group it
/// scores returns. The parked score then finishes with the membership
/// it resolved, and the next score sees the join.
#[test]
fn a_mutation_never_waits_on_an_in_flight_chunk() {
    let (ds, _split, model, _ckpt) = smoke_model();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let fetch = GatedFetch {
        inner: local_fetch(&model),
        parked: Mutex::new(Some(parked_tx)),
        release: Mutex::new(release_rx),
    };
    let live = DynamicScorer::from(Scorer::new(&model, fetch));
    let before = ds.members(0).to_vec();
    let joiner = (0..ds.num_users).find(|u| !before.contains(u)).expect("a non-member");
    let items: Vec<u32> = (0..ds.num_items.min(8)).collect();
    let live = &live;
    std::thread::scope(|s| {
        let parked = s.spawn(|| live.score_case(0, &items));
        parked_rx.recv_timeout(Duration::from_secs(60)).expect("the score reaches the fetch");
        let (done_tx, done_rx) = mpsc::channel();
        s.spawn(move || done_tx.send(live.apply(&LifecycleOp::Join { group: 0, user: joiner })));
        let ack = done_rx.recv_timeout(Duration::from_secs(10));
        // release the gate before asserting, so a failure cannot hang
        release_tx.send(()).unwrap();
        let ack = ack.expect("the join waited on the parked chunk").expect("valid join");
        assert_eq!(ack.members as usize, before.len() + 1);
        let got = parked.join().unwrap().expect("the parked score finishes");
        let want = model.tape_reference_scores(&before, &items);
        assert_eq!(bits(&got), bits(&want), "the parked score must keep the roster it resolved");
    });
    let after = live.groups().members(0).expect("group 0 lives").to_vec();
    let got = live.score_case(0, &items).expect("group 0 scores");
    let want = model.tape_reference_scores(&after, &items);
    assert_eq!(bits(&got), bits(&want), "the next score sees the join");
}

/// A group created at the nominal size scores through the *full*
/// attention path, bit-identical to a bound group with the same
/// members: the static and dynamic engines are one engine.
#[test]
fn created_nominal_size_group_scores_like_a_bound_group() {
    let (ds, _split, model, _ckpt) = smoke_model();
    let live = model.dynamic_scorer_with(true);
    let members = ds.members(0).to_vec();
    // bound group 0's membership, re-created as a brand-new group id
    let ack = live.apply(&LifecycleOp::Create { members: members.clone() }).expect("valid create");
    assert_eq!(ack.members as usize, members.len());
    let items: Vec<u32> = (0..ds.num_items.min(8)).collect();
    let served = live
        .try_score_cases(&[(0, items.clone()), (ack.group, items.clone())])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("both groups live");
    // bound group 0 keeps its original member order; the created twin is
    // sorted. Yelp's formation emits sorted members, so the orders — and
    // hence the bits — coincide.
    assert_eq!(
        bits(&served[0]),
        bits(&served[1]),
        "created twin of group 0 diverged from the bound group"
    );
    assert_eq!(bits(&served[0]), bits(&model.tape_reference_scores(ds.members(0), &items)));
}

// ---------------------------------------------------------------------
// Cold-start unit tests
// ---------------------------------------------------------------------

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Hand-computed reference for an ad-hoc (never-trained) group under
/// the analytically tractable configuration: no KG propagation (member
/// and item representations are raw embedding rows) and SP-only
/// attention. The model must reproduce
/// `σ( (Σ_i softmax(u_i·v/√d)_i · u_i) · v )` to float tolerance.
#[test]
fn cold_start_scores_match_hand_computed_attention() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let config = KgagConfig { epochs: 1, use_kg: false, ..Default::default() }.ablate_pi();
    let mut model = Kgag::new(&ds, &split, config);
    with_threads(1, || model.fit(&split));

    // an off-nominal roster (nominal + 1 members) that never existed at
    // training time
    let mut members: Vec<u32> =
        (0..ds.group_size as u32 + 1).map(|i| (i * 2) % ds.num_users).collect();
    members.sort_unstable();
    members.dedup();
    assert!(members.len() >= 2);
    let items: Vec<u32> = (0..ds.num_items.min(6)).collect();
    let got = model.score_members(&members, &items).expect("valid roster");

    let ckg = model.collaborative_kg();
    let member_rows: Vec<Vec<f32>> =
        members.iter().map(|&u| model.entity_embedding(ckg.user_entity(u).0)).collect();
    let d = member_rows[0].len() as f32;
    for (idx, &v) in items.iter().enumerate() {
        let v_row = model.entity_embedding(ckg.item_entity(v).0);
        let dot = |a: &[f32]| a.iter().zip(&v_row).map(|(x, y)| x * y).sum::<f32>();
        let raw: Vec<f32> = member_rows.iter().map(|u| dot(u) / d.sqrt()).collect();
        let max = raw.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = raw.iter().map(|r| (r - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        let mut group_rep = vec![0.0f32; v_row.len()];
        for (alpha, u) in exps.iter().zip(&member_rows) {
            for (g, x) in group_rep.iter_mut().zip(u) {
                *g += (alpha / z) * x;
            }
        }
        let want = sigmoid(dot(&group_rep));
        assert!(
            (got[idx] - want).abs() <= 1e-5 * want.abs().max(1.0),
            "item {v}: model {} != hand-computed {want}",
            got[idx]
        );
    }
}

/// Every malformed cold-start input is a typed error — empty and
/// singleton rosters, out-of-universe users and items — and the
/// dynamic scorer returns (never panics on) unknown groups.
#[test]
fn cold_start_rejects_bad_inputs_with_typed_errors() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    // untrained weights score deterministically; errors don't need a fit
    let model = Kgag::new(&ds, &split, KgagConfig::default());
    let items = [0u32];

    assert_eq!(model.score_members(&[], &items), Err(ScoreError::EmptyGroup));
    assert_eq!(model.score_members(&[0], &items), Err(ScoreError::SingleMember));
    assert_eq!(
        model.score_members(&[0, ds.num_users], &items),
        Err(ScoreError::UnknownUser(ds.num_users))
    );
    assert_eq!(
        model.score_members(&[0, 1], &[ds.num_items]),
        Err(ScoreError::UnknownItem(ds.num_items))
    );

    let live = model.dynamic_scorer_with(false);
    assert_eq!(
        live.try_score_cases(&[(ds.num_groups() + 7, vec![0])]),
        vec![Err(ScoreError::UnknownGroup(ds.num_groups() + 7))]
    );
    assert_eq!(
        live.try_score_cases(&[(0, vec![ds.num_items])]),
        vec![Err(ScoreError::UnknownItem(ds.num_items))]
    );
    assert_eq!(live.groups().members(ds.num_groups()), Err(LifecycleError::UnknownGroup));
    // the typed errors format without panicking
    for e in [
        ScoreError::EmptyGroup,
        ScoreError::SingleMember,
        ScoreError::UnknownUser(3),
        ScoreError::UnknownItem(4),
        ScoreError::UnknownGroup(5),
    ] {
        assert!(!e.to_string().is_empty());
    }
}
