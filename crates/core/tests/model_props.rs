//! Property-based tests of the KGAG model blocks: attention produces
//! distributions for any inputs, losses respect their defining
//! inequalities, and propagation is shape-stable across random graphs.

use kgag::attention::group_attention;
use kgag::config::{Backend, KgagConfig};
use kgag::loss::{bpr_group_loss, margin_group_loss};
use kgag::model::{ModelParams, PropagationParams};
use kgag::propagation::propagate;
use kgag_kg::triple::{EntityId, TripleStore};
use kgag_kg::{CollaborativeKg, NeighborSampler};
use kgag_tensor::{init, ParamStore, Tape, Tensor};
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{boolean, f32_in, u32_in, u64_in, usize_in, vec_of};
use kgag_testkit::{prop_assert, prop_assert_eq};

fn random_ckg(n_items: u32, n_attrs: u32, n_users: u32, edges: &[(u32, u32)]) -> CollaborativeKg {
    let mut s = TripleStore::with_capacity(n_items + n_attrs, 2);
    for v in 0..n_items {
        s.add_raw(v, 0, n_items + (v % n_attrs));
    }
    let items: Vec<EntityId> = (0..n_items).map(EntityId).collect();
    let inter: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u % n_users, v % n_items)).collect();
    CollaborativeKg::build(&s, &items, n_users, &inter)
}

/// For arbitrary member/item representations, the attention output
/// is a valid distribution and the group representation stays inside
/// the members' coordinate-wise hull.
#[test]
fn attention_always_yields_distribution() {
    let gen =
        (u64_in(0..1000), usize_in(1..4), usize_in(2..6), usize_in(2..8), boolean(), boolean());
    Runner::new("attention_always_yields_distribution").cases(64).run(
        &gen,
        |&(seed, batch, group, d, use_sp, use_pi)| {
            let ckg = random_ckg(4, 2, 3, &[(0, 0), (1, 1)]);
            let config = KgagConfig { dim: d, use_sp, use_pi, ..Default::default() };
            let mut store = ParamStore::new();
            let params = ModelParams::register(&mut store, &ckg, &config, group);
            let mut tape = Tape::new(&store);
            let members = tape.constant(init::uniform(batch * group, d, 2.0, seed));
            let item = tape.constant(init::uniform(batch, d, 2.0, seed ^ 1));
            let out = group_attention(&mut tape, &params, &config, members, item, group);
            let alpha = tape.value(out.alpha);
            for blk in alpha.data().chunks(group) {
                let sum: f32 = blk.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4, "block sums to {sum}");
                prop_assert!(blk.iter().all(|&a| (0.0..=1.0).contains(&a)));
            }
            // hull check per coordinate
            let g_rep = tape.value(out.group_rep);
            let m_val = tape.value(members);
            for b in 0..batch {
                for c in 0..d {
                    let col: Vec<f32> = (0..group).map(|j| m_val.get(b * group + j, c)).collect();
                    let lo = col.iter().cloned().fold(f32::INFINITY, f32::min);
                    let hi = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let x = g_rep.get(b, c);
                    prop_assert!(
                        x >= lo - 1e-4 && x <= hi + 1e-4,
                        "coordinate {x} outside [{lo}, {hi}]"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Margin loss is zero iff the margin inequality holds for every
/// pair; it is non-negative and monotone in the margin.
#[test]
fn margin_loss_matches_its_definition() {
    let gen =
        (vec_of(f32_in(-5.0..5.0), 1..20), vec_of(f32_in(-3.0..3.0), 1..20), f32_in(0.05..0.9));
    Runner::new("margin_loss_matches_its_definition").cases(64).run(
        &gen,
        |(pos_raw, neg_offset, margin)| {
            let margin = *margin;
            let n = pos_raw.len().min(neg_offset.len());
            let pos = &pos_raw[..n];
            let neg: Vec<f32> = pos.iter().zip(&neg_offset[..n]).map(|(p, o)| p + o).collect();
            let store = ParamStore::new();
            let mut tape = Tape::new(&store);
            let p = tape.constant(Tensor::col_vector(pos));
            let q = tape.constant(Tensor::col_vector(&neg));
            let loss = margin_group_loss(&mut tape, p, q, margin);
            let v = tape.value(loss).item();
            prop_assert!(v >= 0.0);
            // manual reference
            let reference: f32 = pos
                .iter()
                .zip(&neg)
                .map(|(&a, &b)| {
                    let s =
                        kgag_tensor::tensor::sigmoid(b) - kgag_tensor::tensor::sigmoid(a) + margin;
                    s.max(0.0)
                })
                .sum::<f32>()
                / n as f32;
            prop_assert!((v - reference).abs() < 1e-4, "loss {v} vs reference {reference}");
            // zero iff inequality satisfied everywhere
            let satisfied = pos.iter().zip(&neg).all(|(&a, &b)| {
                kgag_tensor::tensor::sigmoid(a) - kgag_tensor::tensor::sigmoid(b) >= margin
            });
            prop_assert_eq!(v < 1e-7, satisfied);
            Ok(())
        },
    );
}

/// BPR loss is positive, finite, and decreasing in the separation.
#[test]
fn bpr_loss_is_monotone_in_separation() {
    let gen = (f32_in(-3.0..3.0), f32_in(0.0..1.0), f32_in(0.1..2.0));
    Runner::new("bpr_loss_is_monotone_in_separation").cases(64).run(
        &gen,
        |&(base, sep_small, extra)| {
            let store = ParamStore::new();
            let mut tape = Tape::new(&store);
            let neg = tape.constant(Tensor::col_vector(&[base]));
            let pos_small = tape.constant(Tensor::col_vector(&[base + sep_small]));
            let pos_large = tape.constant(Tensor::col_vector(&[base + sep_small + extra]));
            let l_small = bpr_group_loss(&mut tape, pos_small, neg);
            let l_large = bpr_group_loss(&mut tape, pos_large, neg);
            let (a, b) = (tape.value(l_small).item(), tape.value(l_large).item());
            prop_assert!(a.is_finite() && b.is_finite());
            prop_assert!(a > 0.0 && b > 0.0);
            prop_assert!(b < a, "more separation must mean less loss: {b} !< {a}");
            Ok(())
        },
    );
}

/// Propagation over random collaborative KGs is shape-stable and
/// finite for both aggregators and any depth/K.
#[test]
fn propagation_is_shape_stable() {
    let gen = (
        u64_in(0..500),
        vec_of((u32_in(0..6), u32_in(0..8)), 1..20),
        usize_in(1..3),
        usize_in(1..5),
        boolean(),
    );
    Runner::new("propagation_is_shape_stable").cases(64).run(
        &gen,
        |(seed, edges, layers, k, sage)| {
            let (seed, layers, k, sage) = (*seed, *layers, *k, *sage);
            let ckg = random_ckg(8, 3, 6, edges);
            let aggregator = if sage { Backend::GraphSage } else { Backend::Gcn };
            let config = KgagConfig {
                dim: 4,
                layers,
                neighbor_k: k,
                backend: aggregator,
                ..Default::default()
            };
            let mut store = ParamStore::new();
            let params = PropagationParams::register_for_graph(
                &mut store,
                ckg.num_entities(),
                ckg.num_relation_slots(),
                &config,
            );
            let sampler = NeighborSampler::new(k, seed);
            let targets = [0u32, 3, ckg.user_entity(0).0];
            let rf = sampler.receptive_field(ckg.graph(), &targets, layers, seed);
            let mut tape = Tape::new(&store);
            let q = tape.constant(init::uniform(3, 4, 1.0, seed ^ 9));
            let out = propagate(&mut tape, &params, aggregator, &rf, q);
            prop_assert_eq!(tape.value(out).rows(), 3);
            prop_assert_eq!(tape.value(out).cols(), 4);
            prop_assert!(!tape.value(out).has_non_finite());
            // gradients flow and are finite
            let sq = tape.mul(out, out);
            let loss = tape.mean_all(sq);
            let grads = tape.backward(loss);
            for (_, g) in grads.iter() {
                prop_assert!(!g.has_non_finite());
            }
            Ok(())
        },
    );
}
