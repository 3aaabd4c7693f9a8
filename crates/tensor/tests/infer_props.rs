//! Property suites for the fused inference kernels
//! (`kgag_tensor::infer`, DESIGN.md §14).
//!
//! Every kernel must equal the tape op sequence it fuses **bit for
//! bit** on random inputs — no tolerance — at output widths that take
//! the 16-wide register tile, the 4-wide one and its one-wide tail, and
//! with every row operand both dense and read in place by id.
//! Inputs are mostly uniform draws with a sprinkling of the values
//! where a reordered sum, a dropped zero-skip, a folded constant or a
//! flush would show: ±0, subnormals, NaN and ±∞. The one exception is a
//! NaN's sign and payload, which IEEE 754 leaves to the hardware operand
//! order of each compiled add: every NaN compares equal to every other
//! NaN, and to nothing else.

use kgag_tensor::infer::{
    accumulate_row, add_into, gather_rows, group_mean, group_weighted_sum, matmul2_bias_act,
    matmul_bias_act, relation_logits, residual_inplace, row_dot_rep_scaled, softmax_groups_inplace,
    Activation, Rows,
};
use kgag_tensor::rng::SplitMix64;
use kgag_tensor::{ParamStore, Tape, Tensor};
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u64_in, usize_in};
use kgag_testkit::prop_assert_eq;
use std::collections::HashSet;

const ACTIVATIONS: [Activation; 3] = [Activation::None, Activation::Relu, Activation::Tanh];

/// Uniform draws in `[lo, hi)`, one in 16 replaced by a special value.
fn rand_vec(rng: &mut SplitMix64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    const SPECIAL: [f32; 7] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 8.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    (0..n)
        .map(|_| {
            if rng.next_u64() % 16 == 0 {
                SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize]
            } else {
                lo + (hi - lo) * rng.next_f32()
            }
        })
        .collect()
}

/// Bit patterns, with every NaN mapped to one canonical NaN.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn rand_ids(rng: &mut SplitMix64, n: usize, rows: usize) -> Vec<u32> {
    (0..n).map(|_| (rng.next_u64() % rows as u64) as u32).collect()
}

/// `n` rows of width `dim` drawn as ids into a random table: the
/// table and ids for the by-id form, and the gathered dense copy.
struct Operand {
    table: Vec<f32>,
    ids: Vec<u32>,
    dense: Vec<f32>,
}

impl Operand {
    fn draw(rng: &mut SplitMix64, n: usize, dim: usize, lo: f32, hi: f32) -> Self {
        let rows = 1 + n / 2; // fewer table rows than ids: repeats
        let table = rand_vec(rng, rows * dim, lo, hi);
        let ids = rand_ids(rng, n, rows);
        let mut dense = Vec::new();
        gather_rows(&table, dim, &ids, &mut dense);
        Operand { table, ids, dense }
    }

    /// The dense and the by-id form of the same rows.
    fn forms(&self) -> [Rows<'_>; 2] {
        [Rows::Dense(&self.dense), Rows::ById { table: &self.table, ids: &self.ids }]
    }
}

#[test]
fn gather_rows_equals_tape_gather() {
    let gen = (usize_in(1..40), usize_in(1..24), usize_in(0..30), u64_in(0..u64::MAX));
    Runner::new("infer-gather-rows-vs-tape").cases(64).run(&gen, |&(rows, dim, n, seed)| {
        let mut rng = SplitMix64::new(seed);
        let src = rand_vec(&mut rng, rows * dim, -2.0, 2.0);
        let ids = rand_ids(&mut rng, n, rows);
        let mut store = ParamStore::new();
        let table = store.register("t", Tensor::from_vec(rows, dim, src.clone()));
        let mut tape = Tape::new(&store);
        let want = tape.gather(table, &ids);
        let mut got = Vec::new();
        gather_rows(&src, dim, &ids, &mut got);
        prop_assert_eq!(bits(&got), bits(tape.value(want).data()));
        Ok(())
    });
}

/// The per-relation logit memo equals the tape's per-edge
/// `repeat_rows` (query → targets → edges) → `gather_row_dot` → `scale`
/// at every level, with few relations so ids repeat within and across
/// sibling sets in no particular order, and computes exactly one dot
/// per distinct relation per query row.
#[test]
fn relation_logits_equal_tape_repeat_gather_dot_scale() {
    let gen = (usize_in(1..6), usize_in(1..4), usize_in(1..5), usize_in(1..4), usize_in(1..20));
    let gen = (gen, usize_in(1..8), u64_in(0..u64::MAX));
    Runner::new("infer-relation-logits-vs-tape").cases(128).run(
        &gen,
        |&((n_query, rep, k, depth, dim), n_rel, seed)| {
            let mut rng = SplitMix64::new(seed);
            let relation = rand_vec(&mut rng, n_rel * dim, -2.0, 2.0);
            let query = Operand::draw(&mut rng, n_query, dim, -2.0, 2.0);
            let targets = n_query * rep;
            let levels: Vec<Vec<u32>> = (1..=depth)
                .map(|lvl| rand_ids(&mut rng, targets * k.pow(lvl as u32), n_rel))
                .collect();
            let scale = 1.0 / (dim as f32).sqrt();
            let mut store = ParamStore::new();
            let rel = store.register("rel", Tensor::from_vec(n_rel, dim, relation.clone()));
            let mut tape = Tape::new(&store);
            let q = tape.constant(Tensor::from_vec(n_query, dim, query.dense.clone()));
            let q_targets = tape.repeat_rows(q, rep);
            let want: Vec<Vec<u32>> = levels
                .iter()
                .map(|edges| {
                    let q_edges = tape.repeat_rows(q_targets, edges.len() / targets);
                    let raw = tape.gather_row_dot(rel, edges, q_edges);
                    let logits = tape.scale(raw, scale);
                    bits(tape.value(logits).data())
                })
                .collect();
            let distinct: usize = (0..n_query)
                .map(|qi| {
                    let share = |edges: &Vec<u32>| {
                        let s = edges.len() / n_query;
                        edges[qi * s..(qi + 1) * s].to_vec()
                    };
                    levels.iter().flat_map(share).collect::<HashSet<u32>>().len()
                })
                .sum();
            for form in query.forms() {
                let mut got = Vec::new();
                let dots = relation_logits(&relation, dim, form, &levels, scale, &mut got);
                prop_assert_eq!(got.iter().map(|l| bits(l)).collect::<Vec<_>>(), want.clone());
                prop_assert_eq!(dots, distinct);
            }
            Ok(())
        },
    );
}

#[test]
fn softmax_groups_equals_tape() {
    let gen = (usize_in(1..30), usize_in(1..9), u64_in(0..u64::MAX));
    Runner::new("infer-softmax-groups-vs-tape").cases(96).run(&gen, |&(n, group, seed)| {
        let mut rng = SplitMix64::new(seed);
        let src = rand_vec(&mut rng, n * group, -20.0, 20.0);
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.constant(Tensor::from_vec(n * group, 1, src.clone()));
        let want = tape.softmax_groups(x, group);
        let mut got = src;
        softmax_groups_inplace(&mut got, group);
        prop_assert_eq!(bits(&got), bits(tape.value(want).data()));
        Ok(())
    });
}

/// Dense and by-id values at widths that take either tile.
#[test]
fn group_weighted_sum_equals_tape() {
    let gen = (usize_in(1..12), usize_in(1..9), usize_in(1..71), u64_in(0..u64::MAX));
    Runner::new("infer-group-weighted-sum-vs-tape").cases(96).run(
        &gen,
        |&(n, group, dim, seed)| {
            let mut rng = SplitMix64::new(seed);
            let weights = rand_vec(&mut rng, n * group, -1.5, 1.5);
            let values = Operand::draw(&mut rng, n * group, dim, -2.0, 2.0);
            let store = ParamStore::new();
            let mut tape = Tape::new(&store);
            let w = tape.constant(Tensor::from_vec(n * group, 1, weights.clone()));
            let v = tape.constant(Tensor::from_vec(n * group, dim, values.dense.clone()));
            let want = tape.group_weighted_sum(w, v, group);
            let want = bits(tape.value(want).data());
            for form in values.forms() {
                let mut got = Vec::new();
                group_weighted_sum(&weights, form, dim, group, &mut got);
                prop_assert_eq!(bits(&got), want.clone());
            }
            Ok(())
        },
    );
}

#[test]
fn group_mean_equals_tape() {
    let gen = (usize_in(1..20), usize_in(1..8), usize_in(1..24), u64_in(0..u64::MAX));
    Runner::new("infer-group-mean-vs-tape").cases(96).run(&gen, |&(n, group, dim, seed)| {
        let mut rng = SplitMix64::new(seed);
        let values = Operand::draw(&mut rng, n * group, dim, -3.0, 3.0);
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let v = tape.constant(Tensor::from_vec(n * group, dim, values.dense.clone()));
        let want = tape.group_mean(v, group);
        for form in values.forms() {
            let mut got = Vec::new();
            group_mean(form, dim, group, &mut got);
            prop_assert_eq!(bits(&got), bits(tape.value(want).data()));
        }
        Ok(())
    });
}

/// The tape's `act(add_row(matmul(a, w), bias))` for one activation.
fn tape_matmul_bias_act(
    tape: &mut Tape<'_>,
    a: Tensor,
    w: Tensor,
    bias: Tensor,
    act: Activation,
) -> Vec<u32> {
    let a = tape.constant(a);
    let w = tape.constant(w);
    let b = tape.constant(bias);
    let pre = tape.matmul(a, w);
    let biased = tape.add_row(pre, b);
    let out = match act {
        Activation::None => biased,
        Activation::Relu => tape.relu(biased),
        Activation::Tanh => tape.tanh(biased),
    };
    bits(tape.value(out).data())
}

/// One `matmul_bias_act` case against the tape at every activation.
fn check_matmul(rng: &mut SplitMix64, rows: usize, d_in: usize, d_out: usize) -> bool {
    let a = rand_vec(rng, rows * d_in, -2.0, 2.0);
    let w = rand_vec(rng, d_in * d_out, -1.0, 1.0);
    let bias = rand_vec(rng, d_out, -0.5, 0.5);
    let store = ParamStore::new();
    ACTIVATIONS.into_iter().all(|act| {
        let mut tape = Tape::new(&store);
        let want = tape_matmul_bias_act(
            &mut tape,
            Tensor::from_vec(rows, d_in, a.clone()),
            Tensor::from_vec(d_in, d_out, w.clone()),
            Tensor::from_vec(1, d_out, bias.clone()),
            act,
        );
        let mut got = Vec::new();
        matmul_bias_act(&a, rows, d_in, &w, d_out, &bias, act, &mut got);
        bits(&got) == want
    })
}

#[test]
fn matmul_bias_act_equals_tape() {
    let gen = (usize_in(1..12), usize_in(1..20), usize_in(1..71), u64_in(0..u64::MAX));
    Runner::new("infer-matmul-bias-act-vs-tape").cases(96).run(
        &gen,
        |&(rows, d_in, d_out, seed)| {
            prop_assert_eq!(check_matmul(&mut SplitMix64::new(seed), rows, d_in, d_out), true);
            Ok(())
        },
    );
}

/// Every output width 1..=70 — multiples of 16 (the wide tile), of 4
/// (whole narrow tiles) and the rest (a one-wide tail) — through
/// `matmul_bias_act` and `accumulate_row`.
#[test]
fn tiled_kernels_equal_tape_at_every_width() {
    let mut rng = SplitMix64::new(0x7113);
    for d_out in 1..=70 {
        let d_in = 1 + d_out % 17;
        assert!(check_matmul(&mut rng, 3, d_in, d_out), "matmul_bias_act at width {d_out}");
        // two accumulations onto one row are the matmul of the
        // concatenated row — the peer-influence tower's peer blocks
        let a = rand_vec(&mut rng, 2 * d_in, -2.0, 2.0);
        let w = rand_vec(&mut rng, 2 * d_in * d_out, -1.0, 1.0);
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let ta = tape.constant(Tensor::from_vec(1, 2 * d_in, a.clone()));
        let tw = tape.constant(Tensor::from_vec(2 * d_in, d_out, w.clone()));
        let want = tape.matmul(ta, tw);
        let want = bits(tape.value(want).data());
        let (w1, w2) = w.split_at(d_in * d_out);
        let mut got = vec![0.0f32; d_out];
        accumulate_row(&a[..d_in], w1, d_out, &mut got);
        accumulate_row(&a[d_in..], w2, d_out, &mut got);
        assert_eq!(bits(&got), want, "accumulate_row at width {d_out}");
    }
}

#[test]
fn matmul2_equals_tape_concat_matmul() {
    let gen = (usize_in(1..12), usize_in(1..16), usize_in(1..71), u64_in(0..u64::MAX));
    Runner::new("infer-matmul2-vs-tape-concat").cases(96).run(
        &gen,
        |&(rows, d_in, d_out, seed)| {
            let mut rng = SplitMix64::new(seed);
            let a = Operand::draw(&mut rng, rows, d_in, -2.0, 2.0);
            let b = rand_vec(&mut rng, rows * d_in, -2.0, 2.0);
            let w = rand_vec(&mut rng, 2 * d_in * d_out, -1.0, 1.0);
            let bias = rand_vec(&mut rng, d_out, -0.5, 0.5);
            let store = ParamStore::new();
            let (w_a, w_b) = w.split_at(d_in * d_out);
            for act in ACTIVATIONS {
                let mut tape = Tape::new(&store);
                let ta = tape.constant(Tensor::from_vec(rows, d_in, a.dense.clone()));
                let tb = tape.constant(Tensor::from_vec(rows, d_in, b.clone()));
                let cat = tape.concat_cols(ta, tb);
                let cat = tape.value(cat).clone();
                let want = tape_matmul_bias_act(
                    &mut tape,
                    cat,
                    Tensor::from_vec(2 * d_in, d_out, w.clone()),
                    Tensor::from_vec(1, d_out, bias.clone()),
                    act,
                );
                for form in a.forms() {
                    let mut got = Vec::new();
                    let (d, o) = (d_in, d_out);
                    matmul2_bias_act(form, &b, rows, d, w_a, w_b, o, &bias, act, &mut got);
                    prop_assert_eq!(bits(&got), want.clone());
                }
            }
            Ok(())
        },
    );
}

/// `accumulate_row` alone is one row of the tape matmul — including the
/// `[d, 1]` projection of the peer-influence tower.
#[test]
fn accumulate_row_equals_tape_matmul_row() {
    let gen = (usize_in(1..20), usize_in(1..71), u64_in(0..u64::MAX));
    Runner::new("infer-accumulate-row-vs-tape").cases(96).run(&gen, |&(d_in, d_out, seed)| {
        let mut rng = SplitMix64::new(seed);
        let a = rand_vec(&mut rng, d_in, -2.0, 2.0);
        let w = rand_vec(&mut rng, d_in * d_out, -1.0, 1.0);
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let ta = tape.constant(Tensor::from_vec(1, d_in, a.clone()));
        let tw = tape.constant(Tensor::from_vec(d_in, d_out, w.clone()));
        let want = tape.matmul(ta, tw);
        let mut got = vec![0.0f32; d_out];
        accumulate_row(&a, &w, d_out, &mut got);
        prop_assert_eq!(bits(&got), bits(tape.value(want).data()));
        Ok(())
    });
}

/// The self term and the residual's `e⁰` read by id equal the tape's
/// gathered rows; the repeated-row dot equals `repeat_rows` → `row_dot`.
#[test]
fn add_residual_and_row_dot_equal_tape() {
    let gen = (usize_in(1..16), usize_in(1..5), usize_in(1..24), u64_in(0..u64::MAX));
    Runner::new("infer-add-residual-row-dot-vs-tape").cases(96).run(
        &gen,
        |&(n, rep, dim, seed)| {
            let mut rng = SplitMix64::new(seed);
            let a = Operand::draw(&mut rng, n * rep, dim, -2.0, 2.0);
            let b = rand_vec(&mut rng, n * rep * dim, -2.0, 2.0);
            let q = rand_vec(&mut rng, n * dim, -2.0, 2.0);
            let gamma = 0.25 + rng.next_f32();
            let scale = 1.0 / (dim as f32).sqrt();
            let store = ParamStore::new();
            let mut tape = Tape::new(&store);
            let ta = tape.constant(Tensor::from_vec(n * rep, dim, a.dense.clone()));
            let tb = tape.constant(Tensor::from_vec(n * rep, dim, b.clone()));
            let tq = tape.constant(Tensor::from_vec(n, dim, q.clone()));

            // self term: add(e, e_N)
            let sum = tape.add(ta, tb);
            // residual: e0 + scale(acc, γ)
            let scaled = tape.scale(tb, gamma);
            let res = tape.add(ta, scaled);
            for form in a.forms() {
                let mut got = Vec::new();
                add_into(form, &b, dim, &mut got);
                prop_assert_eq!(bits(&got), bits(tape.value(sum).data()));
                let mut acc = b.clone();
                residual_inplace(form, gamma, dim, &mut acc);
                prop_assert_eq!(bits(&acc), bits(tape.value(res).data()));
            }

            // self persistence: scale(row_dot(a, repeat_rows(q)), 1/√d)
            let q_rep = tape.repeat_rows(tq, rep);
            let raw = tape.row_dot(ta, q_rep);
            let sp = tape.scale(raw, scale);
            let mut got = Vec::new();
            row_dot_rep_scaled(&a.dense, &q, dim, rep, scale, &mut got);
            prop_assert_eq!(bits(&got), bits(tape.value(sp).data()));
            Ok(())
        },
    );
}
