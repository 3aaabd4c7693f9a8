//! The engine workspace's isolation (DESIGN.md §14): every pool worker
//! reuses one set of engine buffers chunk after chunk, and no value of
//! one chunk may reach the next.
//!
//! One worker thread interleaves requests to two registry models whose
//! relation tables differ and to a 2-shard [`LocalFetch`] router, whose
//! every chunk carries its own compact, remapped relation table. The
//! second model is poisoned as in `dag_oracle.rs`: its `Interact` row is
//! scaled so that some query rows' logits are +∞ or −∞, which sends the
//! first iteration down its key-by-key path. Every score must equal, bit
//! for bit, the score a fresh thread — a fresh workspace — gives the same
//! request alone. A workspace that kept any attention, walk or level
//! state across chunks would fail here.

use kgag::{
    checkpoint_hash, Kgag, KgagConfig, LocalFetch, RegistryModel, ScoreCases, ScoreError, Scorer,
};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupLifecycle, LifecycleOp};
use kgag_tensor::pool::with_threads;
use kgag_tensor::rng::SplitMix64;
use kgag_tensor::tensor::dot;

type Scores = Vec<Result<Vec<f32>, ScoreError>>;

/// Bit patterns, every NaN as one canonical NaN.
fn bits(scores: &Scores) -> Vec<Vec<u32>> {
    scores
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("every case scores");
            r.iter().map(|s| if s.is_nan() { f32::NAN.to_bits() } else { s.to_bits() }).collect()
        })
        .collect()
}

/// `model` with `Interact` scaled and the rows of `pos`/`neg` (entity
/// ids) aligned with it, so those rows' `Interact` logits are +∞ and −∞
/// while every parameter stays finite.
fn poison(model: &mut Kgag, pos: &[u32], neg: &[u32]) {
    let ckg = model.collaborative_kg();
    let r = ckg.interact_relation().0 as usize;
    let scale = 1.0 / (model.config().dim as f32).sqrt();
    let mut store = model.store().clone();
    let find = |name: &str| store.iter().find(|(_, n, _)| *n == name).map(|(id, _, _)| id);
    let (ent_id, rel_id) = (find("entity_emb").unwrap(), find("relation_emb").unwrap());
    let u: Vec<f32> = store.value(rel_id).row(r).to_vec();
    let big = 1e36 / u.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    store.value_mut(rel_id).row_mut(r).iter_mut().zip(&u).for_each(|(x, &c)| *x = c * big);
    let scaled: Vec<f32> = store.value(rel_id).row(r).to_vec();
    let t = f32::MAX / (big * dot(&u, &u)) * 4.0;
    let aligned = |sign: f32| u.iter().map(|&c| sign * t * c).collect::<Vec<f32>>();
    assert_eq!(dot(&aligned(1.0), &scaled) * scale, f32::INFINITY);
    assert_eq!(dot(&aligned(-1.0), &scaled) * scale, f32::NEG_INFINITY);
    let entity = store.value_mut(ent_id);
    for (ids, sign) in [(pos, 1.0), (neg, -1.0)] {
        for &e in ids {
            entity.row_mut(e as usize).copy_from_slice(&aligned(sign));
        }
    }
    let ckpt = kgag_tensor::checkpoint::save_tagged(&store, model.config().backend.tag());
    model.load_checkpoint(&ckpt).expect("same-model checkpoint restores");
}

#[test]
fn interleaved_models_and_a_router_score_as_a_fresh_workspace_does() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let train = |seed: u64| {
        let config = KgagConfig { epochs: 1, seed, ..Default::default() };
        let mut model = Kgag::new(&ds, &split, config);
        with_threads(1, || model.fit(&split));
        model
    };
    let (plain, mut poisoned) = (train(5), train(6));
    let l = plain.group_size();
    let router =
        Scorer::new(&plain, LocalFetch::new((0..2).map(|i| plain.shard_state(i, 2)).collect()));
    // the fewest-connected items and users of the poisoned model carry
    // the aligned rows
    let ckg = poisoned.collaborative_kg();
    let degree = |e: u32| ckg.graph().neighbor_slices(e).0.len();
    let mut items: Vec<u32> = (0..ds.num_items).collect();
    items.sort_by_key(|&v| (degree(ckg.item_entity(v).0), v));
    let mut users: Vec<u32> = (0..ckg.num_users()).collect();
    users.sort_by_key(|&u| (degree(ckg.user_entity(u).0), u));
    let (pos_item, neg_item) = (items[0], items[1]);
    let (mut pos_roster, mut neg_roster) = (users[..l].to_vec(), users[l..2 * l].to_vec());
    pos_roster.sort_unstable();
    neg_roster.sort_unstable();
    let pos: Vec<u32> = pos_roster
        .iter()
        .map(|&u| ckg.user_entity(u).0)
        .chain([ckg.item_entity(pos_item).0])
        .collect();
    let neg: Vec<u32> = neg_roster
        .iter()
        .map(|&u| ckg.user_entity(u).0)
        .chain([ckg.item_entity(neg_item).0])
        .collect();
    poison(&mut poisoned, &pos, &neg);
    let entry = |model: Kgag| {
        let hash = checkpoint_hash(&model.save_checkpoint());
        RegistryModel::try_new(model, hash).expect("finite parameters")
    };
    let (plain, poisoned) = (entry(plain), entry(poisoned));
    let created: Vec<u32> = [pos_roster, neg_roster]
        .into_iter()
        .map(|members| {
            poisoned.apply_op(&LifecycleOp::Create { members }).expect("a valid group").group
        })
        .collect();
    let scorers: [&(dyn ScoreCases + Sync); 3] = [&plain, &poisoned, &router];

    // requests of 1–3 cases, 3–40 items each, to a scorer drawn at
    // random; the poisoned model's include its aligned rosters and items
    let mut rng = SplitMix64::new(0x150_1a7e);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let requests: Vec<(usize, Vec<(u32, Vec<u32>)>)> = (0..48)
        .map(|_| {
            let s = pick(scorers.len());
            let cases = (0..1 + pick(3))
                .map(|_| {
                    let mut items: Vec<u32> =
                        (0..3 + pick(38)).map(|_| pick(ds.num_items as usize) as u32).collect();
                    let group = if s == 1 && pick(2) == 0 {
                        items.extend([pos_item, neg_item]);
                        created[pick(created.len())]
                    } else {
                        pick(ds.num_groups() as usize) as u32
                    };
                    (group, items)
                })
                .collect();
            (s, cases)
        })
        .collect();
    assert!(requests.iter().any(|(s, _)| *s == 1), "the poisoned model is asked");
    let want: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        requests
            .iter()
            .map(|(s, cases)| {
                let fresh = || bits(&with_threads(1, || scorers[*s].try_score_cases(cases)));
                scope.spawn(fresh).join().expect("a fresh thread scores")
            })
            .collect()
    });
    with_threads(1, || {
        for (round, ((s, cases), want)) in requests.iter().zip(&want).enumerate() {
            let got = bits(&scorers[*s].try_score_cases(cases));
            assert_eq!(&got, want, "request {round} to scorer {s} differs from a fresh workspace");
        }
    });
}
