//! Engine-vs-tape oracle (DESIGN.md §14).
//!
//! Every scoring path runs through the one inference engine
//! (`kgag::infer`); the tape forward stays as the training path and as
//! the reference here. [`Kgag::tape_reference_scores`] runs the tape
//! forward with live-sampled receptive fields, so comparing it with the
//! engine-backed [`kgag::BatchScorer`] / [`kgag::DynamicScorer`] pins
//! the engine to the tape bit for bit — for every backend, across the
//! cache × chunk × thread matrix, at embedding widths that take
//! different register tiles, under every training config the paper
//! binaries sweep (the KGAG-KG, -SP and -PI ablations, 1 and 3 layers,
//! each eval sampler width, `d` = 48 and 64, each propagation weight),
//! with the residual combine off, and on rosters off the trained group
//! size.

use kgag::{Backend, DynamicScorer, Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupDataset, LifecycleOp};
use kgag_tensor::pool::with_threads;
use kgag_tensor::rng::SplitMix64;

/// A briefly trained model with every zero-initialised weight redrawn.
/// `att_v` starts at zero and two epochs barely move it (nor the
/// biases), which would leave the PI term too small for a rounding-order
/// slip in the attention tower to reach a score; redrawn in [-1, 1],
/// every op of the forward carries weight.
fn trained(config: KgagConfig) -> (GroupDataset, Kgag) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, config);
    with_threads(1, || model.fit(&split));
    let mut store = model.store().clone();
    let redraw: Vec<_> = store
        .iter()
        .filter(|(_, name, _)| *name == "att_v" || name.ends_with("_b"))
        .map(|(id, _, _)| id)
        .collect();
    let mut rng = SplitMix64::new(0x10ad);
    for id in redraw {
        for x in store.value_mut(id).data_mut() {
            *x = 2.0 * rng.next_f32() - 1.0;
        }
    }
    let ckpt = kgag_tensor::checkpoint::save_tagged(&store, model.config().backend.tag());
    model.load_checkpoint(&ckpt).expect("same-model checkpoint restores");
    (ds, model)
}

fn cases(ds: &GroupDataset, groups: u32) -> Vec<(u32, Vec<u32>)> {
    let items: Vec<u32> = (0..ds.num_items).collect();
    (0..ds.num_groups().min(groups)).map(|g| (g, items.clone())).collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Tape scores for `cases`, one case at a time through the tape
/// reference.
fn tape(model: &Kgag, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<u32>> {
    let groups = model.group_store();
    cases
        .iter()
        .map(|(g, items)| {
            let members = groups.members(*g).expect("bound group");
            bits(&model.tape_reference_scores(members, items))
        })
        .collect()
}

/// Assert the engine reproduces the tape for `cases` under every cache
/// × chunk × thread setting.
fn assert_engine_equals_tape(label: &str, model: &Kgag, cases: &[(u32, Vec<u32>)]) {
    let want = tape(model, cases);
    for cache in [false, true] {
        for chunk in [1usize, 7, 256] {
            for threads in [1usize, 4] {
                let got = with_threads(threads, || {
                    model.batch_scorer_with(cache).with_batch_instances(chunk).score_cases(cases)
                });
                for (ci, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        &bits(g),
                        w,
                        "{label}: cache={cache} chunk={chunk} threads={threads}: case {ci} \
                         diverged from the tape"
                    );
                }
            }
        }
    }
}

/// All four backends — interaction-pattern's member-mixing pass
/// included — score bit-identically on the engine and the tape.
#[test]
fn engine_equals_tape_for_every_backend() {
    for backend in Backend::all() {
        let (ds, model) = trained(KgagConfig { epochs: 2, backend, ..Default::default() });
        assert_engine_equals_tape(backend.tag(), &model, &cases(&ds, 4));
    }
}

/// Widths off the default `d = 16` tile rows differently: `d = 12`
/// takes the 4-wide fallback (three tiles a row), `d = 32` two 16-wide
/// tiles — under both fused plans (GCN's sum-self, GraphSage's split
/// concat).
#[test]
fn engine_equals_tape_across_dims() {
    for dim in [12, 32] {
        for backend in [Backend::Gcn, Backend::GraphSage] {
            let (ds, model) = trained(KgagConfig { epochs: 2, dim, backend, ..Default::default() });
            let label = format!("{}-d{dim}", backend.tag());
            assert_engine_equals_tape(&label, &model, &cases(&ds, 4));
        }
    }
}

/// The KGAG-KG ablation (zero-order rows, no propagation), the
/// paper-verbatim Eq. 8 without the residual combine, and every other
/// config the paper binaries train: the -SP and -PI ablations (Table
/// III), 1 and 3 layers (Figure 4; one layer takes its own branch in the
/// engine), the eval sampler at the training `K` and at 16 (the
/// ablation design), `d` = 48 and 64 (Figure 5) and both ends of the
/// propagation weight.
#[test]
fn engine_equals_tape_without_kg_and_without_residual() {
    let base = KgagConfig { epochs: 2, ..Default::default() };
    for (label, config) in [
        ("no-kg", KgagConfig { epochs: 2, use_kg: false, ..Default::default() }),
        ("no-sp", base.clone().ablate_sp()),
        ("no-pi", base.clone().ablate_pi()),
        ("layers-1", KgagConfig { layers: 1, ..base.clone() }),
        ("layers-3", KgagConfig { layers: 3, ..base.clone() }),
        ("eval-k-train", KgagConfig { eval_neighbor_k: None, ..base.clone() }),
        ("eval-k-16", KgagConfig { eval_neighbor_k: Some(16), ..base.clone() }),
        ("d48", KgagConfig { dim: 48, ..base.clone() }),
        ("d64", KgagConfig { dim: 64, ..base.clone() }),
        ("weight-1", KgagConfig { propagation_weight: 1.0, ..base.clone() }),
        ("weight-0.25", KgagConfig { propagation_weight: 0.25, ..base.clone() }),
        ("no-residual", KgagConfig { epochs: 2, residual: false, ..Default::default() }),
        (
            "graphsage-no-residual",
            KgagConfig {
                epochs: 2,
                backend: Backend::GraphSage,
                residual: false,
                ..Default::default()
            },
        ),
    ] {
        let (ds, model) = trained(config);
        assert_engine_equals_tape(label, &model, &cases(&ds, 4));
    }
}

/// Rosters off the trained group size drop the size-coupled PI tower
/// on both paths: the engine-backed dynamic scorer equals the tape's
/// cold-start path on created groups one member smaller and larger
/// than nominal, for the default and the interaction-pattern backends.
#[test]
fn engine_equals_tape_on_off_nominal_rosters() {
    for backend in [Backend::Gcn, Backend::InteractionPattern] {
        let (ds, model) = trained(KgagConfig { epochs: 2, backend, ..Default::default() });
        let nominal = model.group_size() as u32;
        let items: Vec<u32> = (0..ds.num_items).collect();
        for size in [nominal - 1, nominal + 1] {
            for start in [0u32, 5] {
                let members: Vec<u32> = (start..start + size).collect();
                let want = bits(&model.tape_reference_scores(&members, &items));
                for cache in [false, true] {
                    let scorer =
                        DynamicScorer::from(model.batch_scorer_with(cache).with_batch_instances(7));
                    let ack = scorer
                        .apply(&LifecycleOp::Create { members: members.clone() })
                        .expect("create applies");
                    let got = with_threads(4, || scorer.score_case(ack.group, &items))
                        .expect("created group scores");
                    assert_eq!(
                        bits(&got),
                        want,
                        "{}: size {size} roster from {start} cache={cache} diverged",
                        backend.tag()
                    );
                }
            }
        }
    }
}
