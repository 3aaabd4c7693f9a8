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
    accumulate_blocks, accumulate_row, gather_rows, group_mean, group_weighted_sum,
    matmul2_bias_act, node_update, peer_influence, residual_inplace, row_dot_rep_scaled,
    softmax_groups_inplace, Activation, ExpMemo, FusedAggregation, LogitMemo, Rows,
};
use kgag_tensor::rng::SplitMix64;
use kgag_tensor::tensor::softmax_inplace;
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

/// The per-row relation logits equal the tape's per-edge
/// `repeat_rows` (query → targets → edges) → `gather_row_dot` → `scale`
/// at every level, with few relations so ids repeat within and across
/// sibling sets in no particular order, and computes exactly one dot
/// per distinct relation per query row. Query row `i` owns the `i`-th of
/// `n_query` equal shares of every level and is read once per row,
/// dense or by id, never copied per edge.
#[test]
fn logit_memo_equals_tape_repeat_gather_dot_scale() {
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
                let mut memo = LogitMemo::default();
                let mut got: Vec<Vec<f32>> = levels.iter().map(|_| Vec::new()).collect();
                for qi in 0..n_query {
                    // the row's set: its edges' relations in first-seen order
                    memo.start_set();
                    let index: Vec<Vec<u32>> = levels
                        .iter()
                        .map(|edges| {
                            let share = edges.len() / n_query;
                            let row = &edges[qi * share..(qi + 1) * share];
                            row.iter().map(|&r| memo.intern(r)).collect()
                        })
                        .collect();
                    prop_assert_eq!(memo.row(form.row(qi, dim), &relation, scale, 0), true);
                    for (out, index) in got.iter_mut().zip(&index) {
                        out.extend(index.iter().map(|&j| memo.logits()[j as usize]));
                    }
                }
                prop_assert_eq!(got.iter().map(|l| bits(l)).collect::<Vec<_>>(), want.clone());
                prop_assert_eq!(memo.dots, distinct);
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

/// One `matmul2_bias_act` case against the tape's concat matmul at
/// every activation.
fn check_matmul(rng: &mut SplitMix64, rows: usize, d_in: usize, d_out: usize) -> bool {
    let a = rand_vec(rng, rows * d_in, -2.0, 2.0);
    let b = rand_vec(rng, rows * d_in, -2.0, 2.0);
    let w = rand_vec(rng, 2 * d_in * d_out, -1.0, 1.0);
    let (w_a, w_b) = w.split_at(d_in * d_out);
    let bias = rand_vec(rng, d_out, -0.5, 0.5);
    let store = ParamStore::new();
    ACTIVATIONS.into_iter().all(|act| {
        let mut tape = Tape::new(&store);
        let ta = tape.constant(Tensor::from_vec(rows, d_in, a.clone()));
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
        let mut got = Vec::new();
        let (d, o) = (d_in, d_out);
        matmul2_bias_act(Rows::Dense(&a), &b, rows, d, w_a, w_b, o, &bias, act, &mut got);
        bits(&got) == want
    })
}

/// Every output width 1..=70 — multiples of 16 (the wide tile), of 4
/// (whole narrow tiles) and the rest (a one-wide tail) — through
/// `matmul2_bias_act` and `accumulate_row`.
#[test]
fn tiled_kernels_equal_tape_at_every_width() {
    let mut rng = SplitMix64::new(0x7113);
    for d_out in 1..=70 {
        let d_in = 1 + d_out % 17;
        assert!(check_matmul(&mut rng, 3, d_in, d_out), "matmul2_bias_act at width {d_out}");
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

/// The fused node update equals the tape's `group_weighted_sum` →
/// `add` (`SumSelf`) or `concat_cols` (`SplitConcat`) → `matmul` →
/// `add_row` → activation for both plans and every activation, at the
/// packed width 16 and at widths that take the 4-wide tile, its tail
/// and the 16-wide tile, with own and child rows each dense or by id,
/// and with ±0, subnormals, NaN and ±∞ among the weights and values.
#[test]
fn node_update_equals_tape_sum_combine_matmul_bias_act() {
    const WIDTHS: [usize; 4] = [16, 7, 20, 32];
    let gen = (usize_in(1..6), usize_in(1..9), usize_in(0..WIDTHS.len()), u64_in(0..u64::MAX));
    Runner::new("infer-node-update-vs-tape").cases(128).run(&gen, |&(rows, group, wi, seed)| {
        let dim = WIDTHS[wi];
        let mut rng = SplitMix64::new(seed);
        let own = Operand::draw(&mut rng, rows, dim, -2.0, 2.0);
        let children = Operand::draw(&mut rng, rows * group, dim, -2.0, 2.0);
        let weights = rand_vec(&mut rng, rows * group, -1.5, 1.5);
        let w = rand_vec(&mut rng, 2 * dim * dim, -1.0, 1.0);
        let bias = rand_vec(&mut rng, dim, -0.5, 0.5);
        let store = ParamStore::new();
        for plan in [FusedAggregation::SumSelf, FusedAggregation::SplitConcat] {
            let w = match plan {
                FusedAggregation::SumSelf => &w[..dim * dim],
                FusedAggregation::SplitConcat => &w[..],
            };
            for act in ACTIVATIONS {
                let mut tape = Tape::new(&store);
                let tw = tape.constant(Tensor::from_vec(rows * group, 1, weights.clone()));
                let tc = tape.constant(Tensor::from_vec(rows * group, dim, children.dense.clone()));
                let e_n = tape.group_weighted_sum(tw, tc, group);
                let to = tape.constant(Tensor::from_vec(rows, dim, own.dense.clone()));
                let combined = match plan {
                    FusedAggregation::SumSelf => tape.add(to, e_n),
                    FusedAggregation::SplitConcat => tape.concat_cols(to, e_n),
                };
                let combined = tape.value(combined).clone();
                let want = tape_matmul_bias_act(
                    &mut tape,
                    combined,
                    Tensor::from_vec(w.len() / dim, dim, w.to_vec()),
                    Tensor::from_vec(1, dim, bias.clone()),
                    act,
                );
                for own_rows in own.forms() {
                    for child_rows in children.forms() {
                        let mut got = Vec::new();
                        let (o, c) = (own_rows, child_rows);
                        node_update(plan, o, c, &weights, group, dim, w, &bias, act, &mut got);
                        prop_assert_eq!(bits(&got), want.clone());
                    }
                }
            }
        }
        Ok(())
    });
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

/// The residual's `e⁰` read by id equals the tape's gathered rows; the
/// repeated-row dot equals `repeat_rows` → `row_dot`.
#[test]
fn residual_and_row_dot_equal_tape() {
    let gen = (usize_in(1..16), usize_in(1..5), usize_in(1..24), u64_in(0..u64::MAX));
    Runner::new("infer-residual-row-dot-vs-tape").cases(96).run(&gen, |&(n, rep, dim, seed)| {
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

        // residual: e0 + scale(acc, γ)
        let scaled = tape.scale(tb, gamma);
        let res = tape.add(ta, scaled);
        for form in a.forms() {
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
    });
}

/// Logits of `n_rel` relations under one query row, with every value
/// the memoised softmax must reproduce: uniform draws, ±0, ±∞, NaN and
/// ties across relations (a relation repeating an earlier one's bits).
/// One row in four is all NaN, so each of its groups has max −∞ and no
/// logit equal to it.
fn logit_row(rng: &mut SplitMix64, n_rel: usize) -> Vec<f32> {
    const SPECIAL: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    if rng.next_u64() % 4 == 0 {
        return vec![f32::NAN; n_rel];
    }
    let mut row: Vec<f32> = Vec::with_capacity(n_rel);
    for r in 0..n_rel {
        let x = match rng.next_u64() % 6 {
            0 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
            1 if r > 0 => row[(rng.next_u64() % r as u64) as usize],
            _ => -20.0 + 40.0 * rng.next_f32(),
        };
        row.push(x);
    }
    row
}

/// The relation-keyed `exp` memo equals a plain per-group
/// `softmax_inplace` bit for bit, over logits that are a function of
/// (query row, relation) as the logit memo produces them, with
/// repeated, unsorted ids and every special value; and it evaluates one
/// `exp` per distinct (relation, first max relation) pair in each query
/// row, plus one per edge of every all-NaN group. Each query row owns
/// the same share of every level as under the logit memo. Relation
/// counts run 1–7 and 64–71, where a row's table of held values takes a
/// second 64-relation word.
#[test]
fn exp_memo_equals_per_group_softmax() {
    let gen = (usize_in(1..5), usize_in(1..4), usize_in(1..9), usize_in(1..4), usize_in(1..16));
    let gen = (gen, u64_in(0..u64::MAX));
    Runner::new("infer-relation-softmax-vs-softmax").cases(192).run(
        &gen,
        |&((n_query, rep, group, depth, n_rel), seed)| {
            let n_rel = if n_rel < 8 { n_rel } else { 56 + n_rel };
            let mut rng = SplitMix64::new(seed);
            let table: Vec<Vec<f32>> = (0..n_query).map(|_| logit_row(&mut rng, n_rel)).collect();
            let levels: Vec<Vec<u32>> = (1..=depth)
                .map(|lvl| rand_ids(&mut rng, n_query * rep * group.pow(lvl as u32), n_rel))
                .collect();
            let logits: Vec<Vec<f32>> = levels
                .iter()
                .map(|ids| {
                    let share = ids.len() / n_query;
                    ids.iter().enumerate().map(|(e, &r)| table[e / share][r as usize]).collect()
                })
                .collect();
            let mut want = logits.clone();
            for level in &mut want {
                level.chunks_mut(group).for_each(softmax_inplace);
            }
            let mut expected_exps = 0;
            for qi in 0..n_query {
                let mut pairs = HashSet::new();
                for (xs, ids) in logits.iter().zip(&levels) {
                    let share = xs.len() / n_query;
                    let span = qi * share..(qi + 1) * share;
                    for (block, ids) in xs[span.clone()].chunks(group).zip(ids[span].chunks(group))
                    {
                        let max = block.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        match block.iter().position(|x| x.to_bits() == max.to_bits()) {
                            Some(top) => pairs.extend(ids.iter().map(|&r| (r, ids[top]))),
                            None => expected_exps += group,
                        }
                    }
                }
                expected_exps += pairs.len();
            }
            let mut got = logits;
            let mut memo = ExpMemo::default();
            for (qi, row) in table.iter().enumerate() {
                memo.next_row(n_rel);
                for (xs, ids) in got.iter_mut().zip(&levels) {
                    let share = xs.len() / n_query;
                    let span = qi * share..(qi + 1) * share;
                    for (block, ids) in
                        xs[span.clone()].chunks_exact_mut(group).zip(ids[span].chunks_exact(group))
                    {
                        memo.softmax(row, ids, block);
                    }
                }
            }
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(bits(g), bits(w));
            }
            prop_assert_eq!(memo.exps, expected_exps);
            Ok(())
        },
    );
}

/// Uniform draws in `[lo, hi)`, one in four replaced by zero, a
/// subnormal or ±∞ — dense enough that most 16-term rows skip a zero
/// term and most blocks meet a subnormal or an infinity.
fn spiky_vec(rng: &mut SplitMix64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    const SPECIAL: [f32; 6] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 8.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    (0..n)
        .map(|_| {
            if rng.next_u64() % 4 == 0 {
                SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize]
            } else {
                lo + (hi - lo) * rng.next_f32()
            }
        })
        .collect()
}

impl Operand {
    /// [`Operand::draw`] with the table drawn by [`spiky_vec`].
    fn spiky(rng: &mut SplitMix64, n: usize, dim: usize, lo: f32, hi: f32) -> Self {
        let rows = 1 + n / 2;
        let table = spiky_vec(rng, rows * dim, lo, hi);
        let ids = rand_ids(rng, n, rows);
        let mut dense = Vec::new();
        gather_rows(&table, dim, &ids, &mut dense);
        Operand { table, ids, dense }
    }
}

/// The packed `d = 16` kernels — the split concat matmul with every
/// activation, the weighted sum with rows dense and by id, and
/// the peer-influence tower's `W₁` row and `W₂` block chain — equal the
/// tape with zero terms, subnormals and ±∞ in every operand.
#[test]
fn packed_kernels_equal_tape_at_d16() {
    const D: usize = 16;
    let gen = (usize_in(1..6), usize_in(1..9), usize_in(2..9), u64_in(0..u64::MAX));
    Runner::new("infer-packed-d16-vs-tape").cases(96).run(&gen, |&(rows, group, l, seed)| {
        let mut rng = SplitMix64::new(seed);
        let store = ParamStore::new();
        let a = Operand::spiky(&mut rng, rows, D, -2.0, 2.0);
        let b = spiky_vec(&mut rng, rows * D, -2.0, 2.0);
        let w = spiky_vec(&mut rng, 2 * D * D, -1.0, 1.0);
        let (w_a, w_b) = w.split_at(D * D);
        let bias = spiky_vec(&mut rng, D, -0.5, 0.5);
        for act in ACTIVATIONS {
            let mut tape = Tape::new(&store);
            let ta = tape.constant(Tensor::from_vec(rows, D, a.dense.clone()));
            let tb = tape.constant(Tensor::from_vec(rows, D, b.clone()));
            let cat = tape.concat_cols(ta, tb);
            let cat = tape.value(cat).clone();
            let want = tape_matmul_bias_act(
                &mut tape,
                cat,
                Tensor::from_vec(2 * D, D, w.clone()),
                Tensor::from_vec(1, D, bias.clone()),
                act,
            );
            for form in a.forms() {
                let mut got = Vec::new();
                matmul2_bias_act(form, &b, rows, D, w_a, w_b, D, &bias, act, &mut got);
                prop_assert_eq!(bits(&got), want.clone());
            }
        }

        // weighted sum over `group`-row blocks, values dense and by id
        let weights = spiky_vec(&mut rng, rows * group, -1.5, 1.5);
        let values = Operand::spiky(&mut rng, rows * group, D, -2.0, 2.0);
        let mut tape = Tape::new(&store);
        let tw = tape.constant(Tensor::from_vec(rows * group, 1, weights.clone()));
        let tv = tape.constant(Tensor::from_vec(rows * group, D, values.dense.clone()));
        let want = tape.group_weighted_sum(tw, tv, group);
        let want = bits(tape.value(want).data());
        for form in values.forms() {
            let mut got = Vec::new();
            group_weighted_sum(&weights, form, D, group, &mut got);
            prop_assert_eq!(bits(&got), want.clone());
        }

        // the PI tower: h₁ = m_j · W₁ and h₂ = CONCAT(peers of j) · W₂
        let members = spiky_vec(&mut rng, l * D, -2.0, 2.0);
        let w1 = spiky_vec(&mut rng, D * D, -1.0, 1.0);
        let w2 = spiky_vec(&mut rng, (l - 1) * D * D, -1.0, 1.0);
        let mut tape = Tape::new(&store);
        let tm = tape.constant(Tensor::from_vec(l, D, members.clone()));
        let tw1 = tape.constant(Tensor::from_vec(D, D, w1.clone()));
        let tw2 = tape.constant(Tensor::from_vec((l - 1) * D, D, w2.clone()));
        let h1 = tape.matmul(tm, tw1);
        let peers = tape.peer_concat(tm, l);
        let h2 = tape.matmul(peers, tw2);
        let member = |m: usize| &members[m * D..(m + 1) * D];
        let (mut got1, mut got2) = (Vec::new(), Vec::new());
        for j in 0..l {
            let mut row = [0.0f32; D];
            accumulate_row(member(j), &w1, D, &mut row);
            got1.extend_from_slice(&row);
            let mut row = [0.0f32; D];
            let peers = (0..l - 1).map(|q| member(if q < j { q } else { q + 1 }));
            accumulate_blocks(peers, &w2, D, &mut row);
            got2.extend_from_slice(&row);
        }
        prop_assert_eq!(bits(&got1), bits(tape.value(h1).data()));
        prop_assert_eq!(bits(&got2), bits(tape.value(h2).data()));
        Ok(())
    });
}

/// The fused peer-influence tower equals the tape's forward of Eq. 10 —
/// `peer_concat` → `matmul` by `W₁` and by `W₂` → `add` → `add_row` →
/// `relu` → `matmul` by the `[d, 1]` projection → `scale` — at every
/// group size 2..=9, at the packed width 16 and at widths that take the
/// 4-wide tile, its tail and the 16-wide tile, with ±0, subnormals, NaN
/// and ±∞ in every operand. A bias drawn below zero leaves most
/// activations at zero, the terms the projection skips.
#[test]
fn peer_influence_equals_tape_forward() {
    const WIDTHS: [usize; 4] = [16, 7, 20, 32];
    let gen = (usize_in(1..5), usize_in(2..10), usize_in(0..WIDTHS.len()), u64_in(0..u64::MAX));
    Runner::new("infer-peer-influence-vs-tape").cases(128).run(&gen, |&(b, l, wi, seed)| {
        let dim = WIDTHS[wi];
        let mut rng = SplitMix64::new(seed);
        let members = rand_vec(&mut rng, b * l * dim, -2.0, 2.0);
        let w1 = rand_vec(&mut rng, dim * dim, -1.0, 1.0);
        let w2 = rand_vec(&mut rng, (l - 1) * dim * dim, -1.0, 1.0);
        let shift = if rng.next_u64() % 2 == 0 { -4.0 } else { 0.0 };
        let bias = rand_vec(&mut rng, dim, shift - 0.5, shift + 0.5);
        let v = rand_vec(&mut rng, dim, -1.0, 1.0);
        let scale = 1.0 / (dim as f32).sqrt();
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let m = tape.constant(Tensor::from_vec(b * l, dim, members.clone()));
        let peers = tape.peer_concat(m, l);
        let tw1 = tape.constant(Tensor::from_vec(dim, dim, w1.clone()));
        let tw2 = tape.constant(Tensor::from_vec((l - 1) * dim, dim, w2.clone()));
        let tb = tape.constant(Tensor::from_vec(1, dim, bias.clone()));
        let tv = tape.constant(Tensor::from_vec(dim, 1, v.clone()));
        let h1 = tape.matmul(m, tw1);
        let h2 = tape.matmul(peers, tw2);
        let sum = tape.add(h1, h2);
        let biased = tape.add_row(sum, tb);
        let act = tape.relu(biased);
        let raw = tape.matmul(act, tv);
        let want = tape.scale(raw, scale);
        let mut got = Vec::new();
        peer_influence(&members, l, dim, &w1, &w2, &bias, &v, scale, &mut got);
        prop_assert_eq!(bits(&got), bits(tape.value(want).data()));
        Ok(())
    });
}
