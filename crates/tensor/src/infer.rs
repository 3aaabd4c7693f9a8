//! Fused f32 inference kernels, bit-identical to the tape ops they
//! replace.
//!
//! The tape engine ([`crate::Tape`]) materialises every op's output
//! tensor and records backward bookkeeping, which training needs and a
//! ranking forward does not. These kernels run the same forward with no
//! tape, no per-op tensor allocation and no materialised
//! `gather`/`repeat_rows`/`peer_concat`/`concat_cols` copies:
//!
//! * **Rows in place.** An operand is a [`Rows`] — a dense buffer, or
//!   rows of an embedding table picked by id and read where they lie.
//! * **One logit per (query row, relation).** [`relation_logits`]
//!   memoises the attention dot by relation id within each query row.
//! * **Register tiles.** The accumulating kernels keep a 16-wide slice
//!   of the output row (4-wide where 16 does not divide the row) in a
//!   local array across the whole k loop, loading and storing it once.
//!
//! Two properties every kernel guarantees (the property suite in
//! `tests/infer_props.rs` enforces both):
//!
//! * **Tape-exactness.** Each kernel issues the same f32 roundings in
//!   the same order as the tape op sequence it fuses, so its output is
//!   bit-identical to the tape's on any input — non-finite values
//!   included. Every output element still accumulates its terms in k
//!   order from the same start value, zero-weight terms skipped, no FMA;
//!   a memoised logit is the very expression the tape evaluates. Fusion
//!   only removes copies and repeats; it never reorders a sum, folds a
//!   constant or rescales a table.
//! * **Per-row purity.** Output row `i` reads only its own input rows,
//!   so chunking a batch across the pool is value-neutral (DESIGN.md
//!   §11).

use crate::tensor::{dot, softmax_inplace};
use crate::ParamStore;

/// Typed refusal of a parameter store that cannot be served: some
/// element is NaN or ±∞. Raised by [`scan_finite`] where a checkpoint
/// arrives from outside the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConvertError {
    /// The first non-finite element found, by parameter and position.
    NonFinite {
        /// Name of the offending parameter tensor.
        param: String,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
    },
}

impl std::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvertError::NonFinite { param, row, col } => {
                write!(f, "non-finite element in '{param}' at [{row}, {col}]")
            }
        }
    }
}

impl std::error::Error for ConvertError {}

/// Scan every parameter of `store` in registration order and refuse the
/// first non-finite element. Reads in place — no copy of any table.
pub fn scan_finite(store: &ParamStore) -> Result<(), ConvertError> {
    for (_, name, t) in store.iter() {
        if let Some(i) = t.data().iter().position(|x| !x.is_finite()) {
            let cols = t.cols().max(1);
            return Err(ConvertError::NonFinite {
                param: name.to_owned(),
                row: i / cols,
                col: i % cols,
            });
        }
    }
    Ok(())
}

/// The rows of an `[n, dim]` operand, wherever they live.
#[derive(Clone, Copy, Debug)]
pub enum Rows<'a> {
    /// A dense row-major `[n, dim]` buffer.
    Dense(&'a [f32]),
    /// Row `i` is `table.row(ids[i])` of a row-major `[rows, dim]`
    /// table, read in place — the tape's `gather` without the copy.
    ById {
        /// The table the ids index.
        table: &'a [f32],
        /// One table row id per operand row.
        ids: &'a [u32],
    },
}

impl<'a> Rows<'a> {
    /// Row `i`, `dim` wide.
    #[inline]
    pub fn row(self, i: usize, dim: usize) -> &'a [f32] {
        let (data, r) = match self {
            Rows::Dense(data) => (data, i),
            Rows::ById { table, ids } => (table, ids[i] as usize),
        };
        &data[r * dim..(r + 1) * dim]
    }

    /// Number of `dim`-wide rows.
    pub fn len(self, dim: usize) -> usize {
        match self {
            Rows::Dense(data) => data.len() / dim,
            Rows::ById { ids, .. } => ids.len(),
        }
    }
}

/// Row gather from a dense row-major `[rows, dim]` table into a dense
/// `[ids.len(), dim]` buffer (cleared and refilled, so callers can reuse
/// the allocation) — the tape's `gather`.
pub fn gather_rows(table: &[f32], dim: usize, ids: &[u32], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(ids.len() * dim);
    for &id in ids {
        let r = id as usize;
        out.extend_from_slice(&table[r * dim..(r + 1) * dim]);
    }
}

/// Relation-attention logits over the edge levels of a receptive
/// field: `out[lvl][e] = (q · relation.row(levels[lvl][e])) · scale`,
/// where `q` is the query row that owns edge `e`. Query row `i` owns
/// the `i`-th of `query.len(dim)` equal contiguous shares of every
/// level, so a query repeated over several targets (each member under
/// its item) is passed once and never copied — the tape's
/// `repeat_rows` → `gather_row_dot` → `scale`, level by level.
///
/// The logit depends only on the query row and the relation, so each
/// query row computes `dot(q, rel) · scale` once per distinct relation
/// id it meets, in a memo stamped with that row, and copies the value to
/// every other edge with that id: min(relations, edges) dots per query
/// row. The memoised value is the same expression the tape evaluates
/// per edge, so the memo is value-neutral. Returns the number of dot
/// products computed.
pub fn relation_logits(
    relation: &[f32],
    dim: usize,
    query: Rows<'_>,
    levels: &[Vec<u32>],
    scale: f32,
    out: &mut Vec<Vec<f32>>,
) -> usize {
    let n_query = query.len(dim);
    out.resize_with(levels.len(), Vec::new);
    for (o, edges) in out.iter_mut().zip(levels) {
        assert!(
            n_query > 0 && edges.len() % n_query == 0 || edges.is_empty(),
            "edges must split evenly over the query rows"
        );
        o.clear();
        o.resize(edges.len(), 0.0);
    }
    let rows = relation.len() / dim;
    let mut stamp = vec![0usize; rows];
    let mut memo = vec![0.0f32; rows];
    let mut dots = 0;
    for qi in 0..n_query {
        let q = query.row(qi, dim);
        for (o, edges) in out.iter_mut().zip(levels) {
            let share = edges.len() / n_query;
            let span = qi * share..(qi + 1) * share;
            for (logit, &r) in o[span.clone()].iter_mut().zip(&edges[span]) {
                let r = r as usize;
                if stamp[r] != qi + 1 {
                    stamp[r] = qi + 1;
                    memo[r] = dot(q, &relation[r * dim..(r + 1) * dim]) * scale;
                    dots += 1;
                }
                *logit = memo[r];
            }
        }
    }
    dots
}

/// In-place softmax over consecutive `group`-sized blocks — the tape's
/// `softmax_groups` without the output clone.
pub fn softmax_groups_inplace(xs: &mut [f32], group: usize) {
    assert!(group > 0, "group must be positive");
    assert_eq!(xs.len() % group, 0, "length must be a multiple of group");
    for block in xs.chunks_mut(group) {
        softmax_inplace(block);
    }
}

/// The one accumulating kernel body:
/// `out_row[c] = finish(c, out_row[c] + Σ_t x_t · row_t[c])` with the
/// terms `(x_t, row_t)` added in order, terms with `x_t == 0.0` skipped
/// (as the tape does — adding `0·v` could inject NaN or flip a `+0.0`
/// sum to `-0.0`), no FMA. The register tile is 16 lanes when 16 divides
/// the row — a whole row at the default `d = 16` — and 4 lanes
/// otherwise; the tile is only a speed choice, every element sees the
/// same additions in the same order with either.
#[inline(always)]
fn accumulate<'r, I>(terms: I, out_row: &mut [f32], finish: impl Fn(usize, f32) -> f32)
where
    I: Iterator<Item = (f32, &'r [f32])> + Clone,
{
    if out_row.len() % 16 == 0 {
        accumulate_tiled::<16, _>(terms, out_row, finish)
    } else {
        accumulate_tiled::<4, _>(terms, out_row, finish)
    }
}

/// [`accumulate`] with a `T`-wide tile: each `T`-wide slice of the row
/// stays in a local array across all terms, and the columns past the
/// last whole tile run one at a time.
#[inline(always)]
fn accumulate_tiled<'r, const T: usize, I>(
    terms: I,
    out_row: &mut [f32],
    finish: impl Fn(usize, f32) -> f32,
) where
    I: Iterator<Item = (f32, &'r [f32])> + Clone,
{
    let whole = out_row.len() / T * T;
    let (tiles, tail) = out_row.split_at_mut(whole);
    for (ti, tile) in tiles.chunks_exact_mut(T).enumerate() {
        let c0 = ti * T;
        let mut acc: [f32; T] = (&*tile).try_into().expect("a whole tile");
        for (x, row) in terms.clone() {
            if x == 0.0 {
                continue;
            }
            let row: &[f32; T] = row[c0..c0 + T].try_into().expect("a whole tile");
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += x * v;
            }
        }
        for (j, (o, a)) in tile.iter_mut().zip(acc).enumerate() {
            *o = finish(c0 + j, a);
        }
    }
    for (j, o) in tail.iter_mut().enumerate() {
        let c = whole + j;
        let mut acc = *o;
        for (x, row) in terms.clone() {
            if x != 0.0 {
                acc += x * row[c];
            }
        }
        *o = finish(c, acc);
    }
}

/// The terms of one matmul row: `(a_row[k], w.row(k))` in k order.
#[inline(always)]
fn matmul_terms<'r>(
    a_row: &'r [f32],
    w: &'r [f32],
    d_out: usize,
) -> impl Iterator<Item = (f32, &'r [f32])> + Clone {
    a_row.iter().copied().zip(w.chunks_exact(d_out))
}

/// Per-block weighted sum: `out.row(g) = Σ_k w[g·group + k] ·
/// values.row(g·group + k)` for `[n·group, dim]` values, dense or read
/// in place by id. Zero weights skip their row, as in the tape (a pruned
/// row must not inject NaN·0).
pub fn group_weighted_sum(
    weights: &[f32],
    values: Rows<'_>,
    dim: usize,
    group: usize,
    out: &mut Vec<f32>,
) {
    assert!(group > 0 && dim > 0, "group and dim must be positive");
    assert_eq!(weights.len() % group, 0, "weights must be a multiple of group");
    assert_eq!(values.len(dim), weights.len(), "values rows must match weights");
    out.clear();
    out.resize(weights.len() / group * dim, 0.0);
    for (g, out_row) in out.chunks_exact_mut(dim).enumerate() {
        let terms = (g * group..(g + 1) * group).map(|r| (weights[r], values.row(r, dim)));
        accumulate(terms, out_row, |_, x| x);
    }
}

/// Per-block mean of `[n·group, dim]` values, in the tape's
/// `group_mean` order: every row is scaled by `1/group` *before* it is
/// added (`o += v · (1/group)`), never summed first and scaled after.
pub fn group_mean(values: Rows<'_>, dim: usize, group: usize, out: &mut Vec<f32>) {
    assert!(group > 0 && dim > 0, "group and dim must be positive");
    assert_eq!(values.len(dim) % group, 0, "values must be whole blocks");
    let inv = 1.0 / group as f32;
    out.clear();
    out.resize(values.len(dim) / group * dim, 0.0);
    for (g, acc) in out.chunks_exact_mut(dim).enumerate() {
        for k in 0..group {
            for (o, &v) in acc.iter_mut().zip(values.row(g * group + k, dim)) {
                *o += v * inv;
            }
        }
    }
}

/// Epilogue activation of a fused matmul.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity — bias only.
    None,
    /// `max(0, x)` (hidden propagation layers).
    Relu,
    /// `tanh(x)` (the last propagation layer).
    Tanh,
}

#[inline(always)]
fn activate(x: f32, act: Activation) -> f32 {
    match act {
        Activation::None => x,
        Activation::Relu => x.max(0.0),
        Activation::Tanh => x.tanh(),
    }
}

/// Fused `out = act(a · w + bias)` for dense row-major `a
/// [rows, d_in]`, `w [d_in, d_out]`, `bias [d_out]`. Same i-k-j order
/// (and zero-skip) per element as the tape matmul, with the bias-add and
/// activation applied to the register tile before it is stored instead
/// of in two extra tensor passes. Each output row reads only its own
/// `a` row.
#[allow(clippy::too_many_arguments)]
pub fn matmul_bias_act(
    a: &[f32],
    rows: usize,
    d_in: usize,
    w: &[f32],
    d_out: usize,
    bias: &[f32],
    act: Activation,
    out: &mut Vec<f32>,
) {
    assert_eq!(a.len(), rows * d_in, "lhs length must be rows x d_in");
    assert_eq!(w.len(), d_in * d_out, "weight length must be d_in x d_out");
    assert_eq!(bias.len(), d_out, "bias length must be d_out");
    assert!(d_out > 0, "d_out must be positive");
    out.clear();
    out.resize(rows * d_out, 0.0);
    for (i, out_row) in out.chunks_exact_mut(d_out).enumerate() {
        let terms = matmul_terms(&a[i * d_in..(i + 1) * d_in], w, d_out);
        accumulate(terms, out_row, |c, x| activate(x + bias[c], act));
    }
}

/// Fused split form of a concat matmul:
/// `out = act(a · w_a + b · w_b + bias)` ≡
/// `act(CONCAT(a, b) · [w_a; w_b] + bias)` without materialising the
/// `[rows, 2·d_in]` concatenation; `a` may be read in place by id.
/// Summation runs the `w_a` products first, then `w_b` — the same
/// element order as the concatenated dot.
#[allow(clippy::too_many_arguments)]
pub fn matmul2_bias_act(
    a: Rows<'_>,
    b: &[f32],
    rows: usize,
    d_in: usize,
    w_a: &[f32],
    w_b: &[f32],
    d_out: usize,
    bias: &[f32],
    act: Activation,
    out: &mut Vec<f32>,
) {
    assert_eq!(a.len(d_in), rows, "lhs a must have rows rows");
    assert_eq!(b.len(), rows * d_in, "lhs b length must be rows x d_in");
    assert_eq!(w_a.len(), d_in * d_out, "w_a length must be d_in x d_out");
    assert_eq!(w_b.len(), d_in * d_out, "w_b length must be d_in x d_out");
    assert_eq!(bias.len(), d_out, "bias length must be d_out");
    assert!(d_out > 0, "d_out must be positive");
    out.clear();
    out.resize(rows * d_out, 0.0);
    for (i, out_row) in out.chunks_exact_mut(d_out).enumerate() {
        let terms = matmul_terms(a.row(i, d_in), w_a, d_out).chain(matmul_terms(
            &b[i * d_in..(i + 1) * d_in],
            w_b,
            d_out,
        ));
        accumulate(terms, out_row, |c, x| activate(x + bias[c], act));
    }
}

/// `out_row += a_row · w` — one row of the tape matmul, zero-skip
/// included (dropping it could turn a +0.0 sum into -0.0).
#[inline]
pub fn accumulate_row(a_row: &[f32], w: &[f32], d_out: usize, out_row: &mut [f32]) {
    assert!(d_out > 0, "d_out must be positive");
    debug_assert_eq!(w.len(), a_row.len() * d_out);
    debug_assert_eq!(out_row.len(), d_out);
    accumulate(matmul_terms(a_row, w, d_out), out_row, |_, x| x)
}

/// Elementwise `out = a + b` over equal-shaped operands; `a` may be read
/// in place by id.
pub fn add_into(a: Rows<'_>, b: &[f32], dim: usize, out: &mut Vec<f32>) {
    assert_eq!(a.len(dim) * dim, b.len(), "operand lengths must match");
    out.clear();
    out.reserve(b.len());
    for (i, b_row) in b.chunks_exact(dim).enumerate() {
        out.extend(a.row(i, dim).iter().zip(b_row).map(|(&x, &y)| x + y));
    }
}

/// Residual combine in place: `acc[i] = e0[i] + acc[i] · gamma` — the
/// tape's `scale` then `add`; `e0` may be read in place by id.
pub fn residual_inplace(e0: Rows<'_>, gamma: f32, dim: usize, acc: &mut [f32]) {
    assert_eq!(e0.len(dim) * dim, acc.len(), "operand lengths must match");
    for (i, acc_row) in acc.chunks_exact_mut(dim).enumerate() {
        for (a, &e) in acc_row.iter_mut().zip(e0.row(i, dim)) {
            *a = e + *a * gamma;
        }
    }
}

/// Row-wise dot of two dense buffers, then a scale:
/// `out[i] = (a.row(i) · b.row(i / rep)) · scale` — `rep > 1` folds the
/// tape's `repeat_rows(b)` into the index instead of a copy.
pub fn row_dot_rep_scaled(
    a: &[f32],
    b: &[f32],
    dim: usize,
    rep: usize,
    scale: f32,
    out: &mut Vec<f32>,
) {
    assert!(rep > 0, "repeat factor must be positive");
    assert_eq!(a.len() % dim, 0, "a must be whole rows");
    let n = a.len() / dim;
    assert_eq!(n % rep, 0, "rows must be a whole number of repeats");
    assert_eq!(b.len(), n / rep * dim, "b rows must be a / rep");
    out.clear();
    out.reserve(n);
    for i in 0..n {
        let ar = &a[i * dim..(i + 1) * dim];
        let br = &b[(i / rep) * dim..(i / rep + 1) * dim];
        out.push(dot(ar, br) * scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn relation_logits_share_query_rows_and_count_distinct_dots() {
        let relation = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let query = [2.0, 3.0, 4.0, 5.0]; // two query rows
        let levels = vec![vec![0, 1, 2, 0], vec![2, 2, 0, 1, 1, 1, 0, 0]];
        let mut out = Vec::new();
        let dots = relation_logits(&relation, 2, Rows::Dense(&query), &levels, 1.0, &mut out);
        assert_eq!(out[0], vec![2.0, 3.0, 9.0, 4.0]);
        assert_eq!(out[1], vec![5.0, 5.0, 2.0, 3.0, 5.0, 5.0, 4.0, 4.0]);
        assert_eq!(dots, 3 + 3, "one dot per distinct relation per query row");
    }

    #[test]
    fn matmul2_matches_concat_matmul() {
        let (rows, d) = (2, 3);
        let a: Vec<f32> = (0..rows * d).map(|i| i as f32 * 0.25).collect();
        let b: Vec<f32> = (0..rows * d).map(|i| 1.0 - i as f32 * 0.125).collect();
        let w_a: Vec<f32> = (0..d * d).map(|i| (i as f32 - 4.0) * 0.1).collect();
        let w_b: Vec<f32> = (0..d * d).map(|i| (i as f32) * 0.05).collect();
        let bias = [0.1, -0.2, 0.3];
        let mut fused = Vec::new();
        let (a_rows, act) = (Rows::Dense(&a), Activation::None);
        matmul2_bias_act(a_rows, &b, rows, d, &w_a, &w_b, d, &bias, act, &mut fused);
        // reference: concat then one matmul
        let mut cat = Vec::new();
        for i in 0..rows {
            cat.extend_from_slice(&a[i * d..(i + 1) * d]);
            cat.extend_from_slice(&b[i * d..(i + 1) * d]);
        }
        let mut w = w_a.clone();
        w.extend_from_slice(&w_b);
        let mut reference = Vec::new();
        matmul_bias_act(&cat, rows, 2 * d, &w, d, &bias, act, &mut reference);
        assert_eq!(fused, reference);
    }

    #[test]
    fn scan_finite_names_the_first_offender() {
        let mut store = ParamStore::new();
        store.register("ok", Tensor::full(2, 2, 1.0));
        let bad = store.register("bad", Tensor::zeros(3, 2));
        assert_eq!(scan_finite(&store), Ok(()));
        store.value_mut(bad).row_mut(2)[1] = f32::NAN;
        assert_eq!(
            scan_finite(&store),
            Err(ConvertError::NonFinite { param: "bad".into(), row: 2, col: 1 })
        );
    }
}
