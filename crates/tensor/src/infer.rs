//! Fused f32 inference kernels, bit-identical to the tape ops they
//! replace.
//!
//! The tape engine ([`crate::Tape`]) materialises every op's output
//! tensor and records backward bookkeeping, which training needs and a
//! ranking forward does not. These kernels run the same forward with no
//! tape, no per-op tensor allocation and no materialised
//! `repeat_rows`/`peer_concat`/`concat_cols` copies, reading embedding
//! rows in place from the parameter tensors.
//!
//! Two properties every kernel guarantees (the property suite in
//! `tests/infer_props.rs` enforces both):
//!
//! * **Tape-exactness.** Each kernel issues the same f32 roundings in
//!   the same order as the tape op sequence it fuses, so its output is
//!   bit-identical to the tape's on any input — non-finite values
//!   included. Fusion only removes copies; it never reorders a sum,
//!   folds a constant or rescales a table.
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

/// Fused gather + row-dot with an implicit row repeat, then a scale:
/// `out[i] = (query.row(i / rep) · table.row(ids[i])) · scale`. This is
/// the tape's `repeat_rows` → `gather_row_dot` → `scale` sequence
/// without materialising the repeated query.
pub fn gather_row_dot_rep(
    table: &[f32],
    dim: usize,
    ids: &[u32],
    query: &[f32],
    rep: usize,
    scale: f32,
    out: &mut Vec<f32>,
) {
    assert!(rep > 0, "repeat factor must be positive");
    assert_eq!(ids.len() % rep, 0, "ids must be a whole number of repeats");
    assert_eq!(query.len(), ids.len() / rep * dim, "query rows must be ids / rep");
    out.clear();
    out.reserve(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        let q = &query[(i / rep) * dim..(i / rep + 1) * dim];
        let r = id as usize;
        out.push(dot(q, &table[r * dim..(r + 1) * dim]) * scale);
    }
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

/// Per-block weighted sum: `out.row(g) = Σ_k w[g·group + k] ·
/// values.row(g·group + k)` for dense `[n·group, dim]` values. Zero
/// weights skip their row, as in the tape (a pruned row must not inject
/// NaN·0).
pub fn group_weighted_sum(
    weights: &[f32],
    values: &[f32],
    dim: usize,
    group: usize,
    out: &mut Vec<f32>,
) {
    assert!(group > 0, "group must be positive");
    assert_eq!(weights.len() % group, 0, "weights must be a multiple of group");
    assert_eq!(values.len(), weights.len() * dim, "values rows must match weights");
    let n = weights.len() / group;
    out.clear();
    out.resize(n * dim, 0.0);
    for g in 0..n {
        let acc = &mut out[g * dim..(g + 1) * dim];
        for k in 0..group {
            let w = weights[g * group + k];
            if w == 0.0 {
                continue;
            }
            let row = &values[(g * group + k) * dim..(g * group + k + 1) * dim];
            for (o, &v) in acc.iter_mut().zip(row) {
                *o += w * v;
            }
        }
    }
}

/// Per-block mean of dense `[n·group, dim]` values, in the tape's
/// `group_mean` order: every row is scaled by `1/group` *before* it is
/// added (`o += v · (1/group)`), never summed first and scaled after.
pub fn group_mean(values: &[f32], dim: usize, group: usize, out: &mut Vec<f32>) {
    assert!(group > 0, "group must be positive");
    assert_eq!(values.len() % (group * dim), 0, "values must be whole blocks");
    let n = values.len() / (group * dim);
    let inv = 1.0 / group as f32;
    out.clear();
    out.resize(n * dim, 0.0);
    for g in 0..n {
        let acc = &mut out[g * dim..(g + 1) * dim];
        for k in 0..group {
            let row = &values[(g * group + k) * dim..(g * group + k + 1) * dim];
            for (o, &v) in acc.iter_mut().zip(row) {
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

#[inline]
fn activate(x: f32, act: Activation) -> f32 {
    match act {
        Activation::None => x,
        Activation::Relu => x.max(0.0),
        Activation::Tanh => x.tanh(),
    }
}

/// Fused `out = act(a · w + bias)` for dense row-major `a
/// [rows, d_in]`, `w [d_in, d_out]`, `bias [d_out]`. Same i-k-j loop
/// order (and zero-skip) as the tape matmul, with the bias-add and
/// activation folded into the row epilogue instead of two extra tensor
/// passes. Each output row reads only its own `a` row.
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
    out.clear();
    out.resize(rows * d_out, 0.0);
    for i in 0..rows {
        let out_row = &mut out[i * d_out..(i + 1) * d_out];
        accumulate_row(&a[i * d_in..(i + 1) * d_in], w, d_out, out_row);
        for (o, &b) in out_row.iter_mut().zip(bias) {
            *o = activate(*o + b, act);
        }
    }
}

/// Fused split form of a concat matmul:
/// `out = act(a · w_a + b · w_b + bias)` ≡
/// `act(CONCAT(a, b) · [w_a; w_b] + bias)` without materialising the
/// `[rows, 2·d_in]` concatenation. Summation runs the `w_a` products
/// first, then `w_b` — the same element order as the concatenated dot.
#[allow(clippy::too_many_arguments)]
pub fn matmul2_bias_act(
    a: &[f32],
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
    assert_eq!(a.len(), rows * d_in, "lhs a length must be rows x d_in");
    assert_eq!(b.len(), rows * d_in, "lhs b length must be rows x d_in");
    assert_eq!(w_a.len(), d_in * d_out, "w_a length must be d_in x d_out");
    assert_eq!(w_b.len(), d_in * d_out, "w_b length must be d_in x d_out");
    assert_eq!(bias.len(), d_out, "bias length must be d_out");
    out.clear();
    out.resize(rows * d_out, 0.0);
    for i in 0..rows {
        let out_row = &mut out[i * d_out..(i + 1) * d_out];
        accumulate_row(&a[i * d_in..(i + 1) * d_in], w_a, d_out, out_row);
        accumulate_row(&b[i * d_in..(i + 1) * d_in], w_b, d_out, out_row);
        for (o, &bb) in out_row.iter_mut().zip(bias) {
            *o = activate(*o + bb, act);
        }
    }
}

/// `out_row += a_row · w` — the tape matmul's i-k-j inner kernel,
/// zero-skip included (dropping it could turn a +0.0 sum into -0.0).
#[inline]
pub fn accumulate_row(a_row: &[f32], w: &[f32], d_out: usize, out_row: &mut [f32]) {
    debug_assert_eq!(w.len(), a_row.len() * d_out);
    debug_assert_eq!(out_row.len(), d_out);
    for (kk, &x) in a_row.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        let w_row = &w[kk * d_out..(kk + 1) * d_out];
        for (o, &wv) in out_row.iter_mut().zip(w_row) {
            *o += x * wv;
        }
    }
}

/// Elementwise `out = a + b` over equal-length buffers.
pub fn add_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert_eq!(a.len(), b.len(), "operand lengths must match");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x + y));
}

/// Residual combine in place: `acc[i] = e0[i] + acc[i] · gamma` — the
/// tape's `scale` then `add`.
pub fn residual_inplace(e0: &[f32], gamma: f32, acc: &mut [f32]) {
    assert_eq!(e0.len(), acc.len(), "operand lengths must match");
    for (a, &e) in acc.iter_mut().zip(e0) {
        *a = e + *a * gamma;
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
    fn gather_row_dot_repeats_query_rows() {
        let table = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let query = [2.0, 3.0, 4.0, 5.0]; // two query rows, rep = 2
        let mut out = Vec::new();
        gather_row_dot_rep(&table, 2, &[0, 1, 2, 0], &query, 2, 1.0, &mut out);
        assert_eq!(out, vec![2.0, 3.0, 9.0, 4.0]);
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
        matmul2_bias_act(&a, &b, rows, d, &w_a, &w_b, d, &bias, Activation::None, &mut fused);
        // reference: concat then one matmul
        let mut cat = Vec::new();
        for i in 0..rows {
            cat.extend_from_slice(&a[i * d..(i + 1) * d]);
            cat.extend_from_slice(&b[i * d..(i + 1) * d]);
        }
        let mut w = w_a.clone();
        w.extend_from_slice(&w_b);
        let mut reference = Vec::new();
        matmul_bias_act(&cat, rows, 2 * d, &w, d, &bias, Activation::None, &mut reference);
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
