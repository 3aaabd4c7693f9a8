//! Reverse-mode automatic differentiation.
//!
//! A [`Tape`] is a single-use computation graph: each operation appends a
//! node holding its forward value, and [`Tape::backward`] walks the nodes
//! in reverse topological order (which is simply reverse insertion order)
//! to produce dense per-parameter [`Gradients`].
//!
//! Besides the usual dense ops, the tape provides the *grouped* operations
//! that make receptive-field GNN propagation and fixed-size group
//! attention efficient without padding or masking:
//!
//! * [`Tape::softmax_groups`] — softmax over consecutive blocks of a
//!   column (Eq. 3 and Eq. 12 of the paper);
//! * [`Tape::group_weighted_sum`] — Σₖ wₖ·vₖ within each block (Eq. 1/7
//!   neighbor aggregation, Eq. 13 preference aggregation);
//! * [`Tape::group_mean`] — block mean (the item-side query vector i_e);
//! * [`Tape::repeat_rows`] — broadcast a per-instance query down a
//!   receptive-field level;
//! * [`Tape::peer_concat`] — the `CONCAT(u ∈ S^P_{g,i})` of Eq. 10.

use crate::params::{Gradients, ParamId, ParamStore};
use crate::pool;
use crate::tensor::{dot, par_row_bands, sigmoid, softmax_inplace, Tensor};

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeId(u32);

impl NodeId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Floor used by [`Tape::ln`] to keep logarithms finite.
pub const LN_EPS: f32 = 1e-12;

enum Op {
    Constant,
    Param(ParamId),
    Gather { param: ParamId, rows: Vec<u32> },
    GatherRowDot { param: ParamId, rows: Vec<u32>, other: NodeId },
    MatMul { a: NodeId, b: NodeId },
    Add { a: NodeId, b: NodeId },
    Sub { a: NodeId, b: NodeId },
    Mul { a: NodeId, b: NodeId },
    AddRow { a: NodeId, bias: NodeId },
    Scale { a: NodeId, k: f32 },
    AddScalar { a: NodeId },
    RowDot { a: NodeId, b: NodeId },
    Sigmoid { a: NodeId },
    Relu { a: NodeId },
    Tanh { a: NodeId },
    Ln { a: NodeId },
    SoftmaxGroups { a: NodeId, group: usize },
    GroupWeightedSum { w: NodeId, v: NodeId, group: usize },
    GroupMean { a: NodeId, group: usize },
    RepeatRows { a: NodeId, times: usize },
    PeerConcat { a: NodeId, group: usize },
    ConcatCols { a: NodeId, b: NodeId },
    SumAll { a: NodeId },
    MeanAll { a: NodeId },
    BceWithLogits { logits: NodeId, targets: Tensor },
}

struct Node {
    op: Op,
    value: Tensor,
}

/// A single-use reverse-mode autodiff tape over a [`ParamStore`].
pub struct Tape<'p> {
    store: &'p ParamStore,
    nodes: Vec<Node>,
}

impl<'p> Tape<'p> {
    /// Start an empty tape reading parameter values from `store`.
    pub fn new(store: &'p ParamStore) -> Self {
        Tape { store, nodes: Vec::with_capacity(64) }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.index()].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op, value });
        id
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// A constant (no gradient flows into it).
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.push(Op::Constant, value)
    }

    /// The whole parameter tensor as a node.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        let value = self.store.value(id).clone();
        self.push(Op::Param(id), value)
    }

    /// Row lookup (embedding gather): result row `i` is `param.row(rows[i])`.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn gather(&mut self, param: ParamId, rows: &[u32]) -> NodeId {
        let table = self.store.value(param);
        let d = table.cols();
        let n_rows = table.rows();
        if let Some(&bad) = rows.iter().find(|&&r| (r as usize) >= n_rows) {
            panic!(
                "gather row {} out of bounds for parameter {:?} with {} rows",
                bad,
                self.store.name(param),
                n_rows
            );
        }
        let mut data = vec![0.0f32; rows.len() * d];
        par_row_bands(&mut data, rows.len(), d, rows.len() * d, |row0, band| {
            for (local, dst) in band.chunks_mut(d).enumerate() {
                dst.copy_from_slice(table.row(rows[row0 + local] as usize));
            }
        });
        let value = Tensor::from_vec(rows.len(), d, data);
        self.push(Op::Gather { param, rows: rows.to_vec() }, value)
    }

    /// Fused gather + row-wise dot: result `[m, 1]` where row `i` is
    /// `other.row(i) · param.row(rows[i])` — bit-identical to
    /// `row_dot(other, gather(param, rows))` (forward *and* backward:
    /// the per-row products and the scatter into `param` run in the
    /// same order) without ever materialising the `[m, d]` gathered
    /// table rows.
    ///
    /// # Panics
    /// Panics when an index is out of bounds or `other` is not
    /// `[rows.len(), param.cols()]`.
    pub fn gather_row_dot(&mut self, param: ParamId, rows: &[u32], other: NodeId) -> NodeId {
        let table = self.store.value(param);
        let d = table.cols();
        let n_rows = table.rows();
        if let Some(&bad) = rows.iter().find(|&&r| (r as usize) >= n_rows) {
            panic!(
                "gather row {} out of bounds for parameter {:?} with {} rows",
                bad,
                self.store.name(param),
                n_rows
            );
        }
        let ov = &self.nodes[other.index()].value;
        assert_eq!(ov.rows(), rows.len(), "gather_row_dot row-count mismatch");
        assert_eq!(ov.cols(), d, "gather_row_dot width mismatch");
        let m = rows.len();
        let mut data = vec![0.0f32; m];
        // each output element reads only its own pair of rows, so
        // banding is bit-identical to the sequential loop
        par_row_bands(&mut data, m, 1, m * d, |row0, band| {
            for (local, o) in band.iter_mut().enumerate() {
                let i = row0 + local;
                *o = dot(ov.row(i), table.row(rows[i] as usize));
            }
        });
        let value = Tensor::from_vec(m, 1, data);
        self.push(Op::GatherRowDot { param, rows: rows.to_vec(), other }, value)
    }

    // ------------------------------------------------------------------
    // Dense ops
    // ------------------------------------------------------------------

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.index()].value.matmul(&self.nodes[b.index()].value);
        self.push(Op::MatMul { a, b }, value)
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.index()].value.add(&self.nodes[b.index()].value);
        self.push(Op::Add { a, b }, value)
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.index()].value.sub(&self.nodes[b.index()].value);
        self.push(Op::Sub { a, b }, value)
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.nodes[a.index()].value.mul(&self.nodes[b.index()].value);
        self.push(Op::Mul { a, b }, value)
    }

    /// Add a `[1, c]` bias row to every row of `a` (`[m, c]`).
    pub fn add_row(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let av = &self.nodes[a.index()].value;
        let bv = &self.nodes[bias.index()].value;
        assert_eq!(bv.rows(), 1, "bias must be a [1, c] row, got {:?}", bv.shape());
        assert_eq!(av.cols(), bv.cols(), "add_row width mismatch");
        let mut out = av.clone();
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bv.data()) {
                *o += b;
            }
        }
        self.push(Op::AddRow { a, bias }, out)
    }

    /// `a * k` elementwise.
    pub fn scale(&mut self, a: NodeId, k: f32) -> NodeId {
        let value = self.nodes[a.index()].value.scale(k);
        self.push(Op::Scale { a, k }, value)
    }

    /// `a + k` elementwise.
    pub fn add_scalar(&mut self, a: NodeId, k: f32) -> NodeId {
        let value = self.nodes[a.index()].value.map(|x| x + k);
        self.push(Op::AddScalar { a }, value)
    }

    /// Row-wise inner product of two `[m, d]` tensors → `[m, 1]`.
    pub fn row_dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let av = &self.nodes[a.index()].value;
        let bv = &self.nodes[b.index()].value;
        assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
        let m = av.rows();
        let mut data = Vec::with_capacity(m);
        for i in 0..m {
            data.push(dot(av.row(i), bv.row(i)));
        }
        self.push(Op::RowDot { a, b }, Tensor::from_vec(m, 1, data))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a.index()].value.map(sigmoid);
        self.push(Op::Sigmoid { a }, value)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a.index()].value.map(|x| x.max(0.0));
        self.push(Op::Relu { a }, value)
    }

    /// Elementwise tanh — the in-house [`crate::tanh`], which the
    /// inference kernels share.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut value = self.nodes[a.index()].value.clone();
        crate::tanh::tanh_inplace(value.data_mut());
        self.push(Op::Tanh { a }, value)
    }

    /// Elementwise natural log with inputs clamped to [`LN_EPS`].
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let value = self.nodes[a.index()].value.map(|x| x.max(LN_EPS).ln());
        self.push(Op::Ln { a }, value)
    }

    // ------------------------------------------------------------------
    // Grouped ops (GNN receptive field / group attention)
    // ------------------------------------------------------------------

    /// Softmax over consecutive blocks of `group` rows of a `[m*group, 1]`
    /// column.
    pub fn softmax_groups(&mut self, a: NodeId, group: usize) -> NodeId {
        let av = &self.nodes[a.index()].value;
        assert!(group > 0, "softmax_groups with empty group");
        assert_eq!(av.cols(), 1, "softmax_groups expects a column, got {:?}", av.shape());
        assert_eq!(av.rows() % group, 0, "rows {} not divisible by group {}", av.rows(), group);
        let mut out = av.clone();
        let n_blocks = av.rows() / group;
        // blocks are independent; softmax_inplace per block is unchanged,
        // so banding over blocks is bit-identical to the sequential loop
        par_row_bands(out.data_mut(), n_blocks, group, av.rows(), |_, band| {
            for chunk in band.chunks_mut(group) {
                softmax_inplace(chunk);
            }
        });
        self.push(Op::SoftmaxGroups { a, group }, out)
    }

    /// Block-wise weighted sum: with `w: [m*group, 1]` and
    /// `v: [m*group, d]`, output row `i` is `Σ_k w[i*group+k] · v[i*group+k]`.
    pub fn group_weighted_sum(&mut self, w: NodeId, v: NodeId, group: usize) -> NodeId {
        let wv = &self.nodes[w.index()].value;
        let vv = &self.nodes[v.index()].value;
        assert!(group > 0, "group_weighted_sum with empty group");
        assert_eq!(wv.cols(), 1, "weights must be a column");
        assert_eq!(wv.rows(), vv.rows(), "weights/values row mismatch");
        assert_eq!(vv.rows() % group, 0, "rows not divisible by group");
        let m = vv.rows() / group;
        let d = vv.cols();
        let mut out = Tensor::zeros(m, d);
        par_row_bands(out.data_mut(), m, d, vv.rows() * d, |row0, band| {
            for (local, out_row) in band.chunks_mut(d).enumerate() {
                let i = row0 + local;
                for k in 0..group {
                    let idx = i * group + k;
                    let wk = wv.data()[idx];
                    if wk == 0.0 {
                        continue;
                    }
                    for (o, &x) in out_row.iter_mut().zip(vv.row(idx)) {
                        *o += wk * x;
                    }
                }
            }
        });
        self.push(Op::GroupWeightedSum { w, v, group }, out)
    }

    /// Block mean: `[m*group, d]` → `[m, d]`.
    pub fn group_mean(&mut self, a: NodeId, group: usize) -> NodeId {
        let av = &self.nodes[a.index()].value;
        assert!(group > 0, "group_mean with empty group");
        assert_eq!(av.rows() % group, 0, "rows not divisible by group");
        let m = av.rows() / group;
        let d = av.cols();
        let inv = 1.0 / group as f32;
        let mut out = Tensor::zeros(m, d);
        for i in 0..m {
            let out_row = out.row_mut(i);
            for k in 0..group {
                for (o, &x) in out_row.iter_mut().zip(av.row(i * group + k)) {
                    *o += x * inv;
                }
            }
        }
        self.push(Op::GroupMean { a, group }, out)
    }

    /// Repeat each row `times` times consecutively: `[m, d]` → `[m*times, d]`.
    pub fn repeat_rows(&mut self, a: NodeId, times: usize) -> NodeId {
        assert!(times > 0, "repeat_rows with times == 0");
        let av = &self.nodes[a.index()].value;
        let (m, d) = (av.rows(), av.cols());
        let mut data = Vec::with_capacity(m * times * d);
        for i in 0..m {
            for _ in 0..times {
                data.extend_from_slice(av.row(i));
            }
        }
        self.push(Op::RepeatRows { a, times }, Tensor::from_vec(m * times, d, data))
    }

    /// For each block of `group` rows, output row `j` is the concatenation
    /// of the other `group-1` rows of the block in ascending order:
    /// `[m*group, d]` → `[m*group, (group-1)*d]`. This is the
    /// `CONCAT(u ∈ S^P_{g,i})` of Eq. 10.
    ///
    /// # Panics
    /// Panics when `group < 2` (a singleton has no peers).
    pub fn peer_concat(&mut self, a: NodeId, group: usize) -> NodeId {
        assert!(group >= 2, "peer_concat needs groups of at least 2 members");
        let av = &self.nodes[a.index()].value;
        assert_eq!(av.rows() % group, 0, "rows not divisible by group");
        let m = av.rows() / group;
        let d = av.cols();
        let out_cols = (group - 1) * d;
        let mut data = Vec::with_capacity(m * group * out_cols);
        for i in 0..m {
            for j in 0..group {
                for k in 0..group {
                    if k != j {
                        data.extend_from_slice(av.row(i * group + k));
                    }
                }
            }
        }
        self.push(Op::PeerConcat { a, group }, Tensor::from_vec(m * group, out_cols, data))
    }

    /// Horizontal concatenation: `[m, c1] ‖ [m, c2]` → `[m, c1+c2]`.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let av = &self.nodes[a.index()].value;
        let bv = &self.nodes[b.index()].value;
        assert_eq!(av.rows(), bv.rows(), "concat_cols row mismatch");
        let m = av.rows();
        let (c1, c2) = (av.cols(), bv.cols());
        let mut data = Vec::with_capacity(m * (c1 + c2));
        for i in 0..m {
            data.extend_from_slice(av.row(i));
            data.extend_from_slice(bv.row(i));
        }
        self.push(Op::ConcatCols { a, b }, Tensor::from_vec(m, c1 + c2, data))
    }

    // ------------------------------------------------------------------
    // Reductions and losses
    // ------------------------------------------------------------------

    /// Sum of all elements → `[1, 1]`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let value = Tensor::scalar(self.nodes[a.index()].value.sum());
        self.push(Op::SumAll { a }, value)
    }

    /// Mean of all elements → `[1, 1]`.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let value = Tensor::scalar(self.nodes[a.index()].value.mean());
        self.push(Op::MeanAll { a }, value)
    }

    /// Numerically-stable per-example binary cross-entropy with logits:
    /// output `[m, 1]` where row `i` is
    /// `max(x,0) − x·y + ln(1+exp(−|x|))` for logit `x = logits[i]` and
    /// constant target `y = targets[i] ∈ [0,1]`.
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: Tensor) -> NodeId {
        let lv = &self.nodes[logits.index()].value;
        assert_eq!(lv.shape(), targets.shape(), "bce shape mismatch");
        assert_eq!(lv.cols(), 1, "bce expects a column of logits");
        let data: Vec<f32> = lv
            .data()
            .iter()
            .zip(targets.data())
            .map(|(&x, &y)| x.max(0.0) - x * y + (1.0 + (-x.abs()).exp()).ln())
            .collect();
        let value = Tensor::from_vec(lv.rows(), 1, data);
        self.push(Op::BceWithLogits { logits, targets }, value)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Reverse pass from a scalar `loss` node. Returns dense gradients for
    /// every parameter that participated in the tape.
    ///
    /// # Panics
    /// Panics when `loss` is not `[1, 1]`.
    pub fn backward(&self, loss: NodeId) -> Gradients {
        assert!(
            self.nodes[loss.index()].value.shape().is_scalar(),
            "backward() needs a scalar loss, got {:?}",
            self.nodes[loss.index()].value.shape()
        );
        let mut node_grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        node_grads[loss.index()] = Some(Tensor::scalar(1.0));
        let mut grads = Gradients::new();

        for idx in (0..self.nodes.len()).rev() {
            let Some(g) = node_grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            match &node.op {
                Op::Constant => {}
                Op::Param(pid) => {
                    grads.accumulate(*pid, g.shape(), |t| t.axpy(1.0, &g));
                }
                Op::Gather { param, rows } => {
                    let shape = self.store.shape(*param);
                    grads.accumulate(*param, shape, |t| scatter_add_rows(t, rows, &g));
                }
                Op::GatherRowDot { param, rows, other } => {
                    let table = self.store.value(*param);
                    let ov = &self.nodes[other.index()].value;
                    let (m, d) = (ov.rows(), ov.cols());
                    // same products and the same scatter path as the
                    // row_dot + gather composite, so gradients match it
                    // bit for bit
                    let mut d_other = Tensor::zeros(m, d);
                    let mut d_rows = Tensor::zeros(m, d);
                    for i in 0..m {
                        let gi = g.data()[i];
                        for ((x, y), (&tx, &ox)) in d_other
                            .row_mut(i)
                            .iter_mut()
                            .zip(d_rows.row_mut(i).iter_mut())
                            .zip(table.row(rows[i] as usize).iter().zip(ov.row(i)))
                        {
                            *x = gi * tx;
                            *y = gi * ox;
                        }
                    }
                    accumulate_node(&mut node_grads, *other, d_other);
                    let shape = self.store.shape(*param);
                    grads.accumulate(*param, shape, |t| scatter_add_rows(t, rows, &d_rows));
                }
                Op::MatMul { a, b } => {
                    let av = &self.nodes[a.index()].value;
                    let bv = &self.nodes[b.index()].value;
                    let da = g.matmul_nt(bv);
                    let db = av.matmul_tn(&g);
                    accumulate_node(&mut node_grads, *a, da);
                    accumulate_node(&mut node_grads, *b, db);
                }
                Op::Add { a, b } => {
                    accumulate_node(&mut node_grads, *a, g.clone());
                    accumulate_node(&mut node_grads, *b, g);
                }
                Op::Sub { a, b } => {
                    accumulate_node(&mut node_grads, *b, g.scale(-1.0));
                    accumulate_node(&mut node_grads, *a, g);
                }
                Op::Mul { a, b } => {
                    let av = &self.nodes[a.index()].value;
                    let bv = &self.nodes[b.index()].value;
                    accumulate_node(&mut node_grads, *a, g.mul(bv));
                    accumulate_node(&mut node_grads, *b, g.mul(av));
                }
                Op::AddRow { a, bias } => {
                    let cols = g.cols();
                    let mut db = Tensor::zeros(1, cols);
                    for r in 0..g.rows() {
                        for (d, &s) in db.data_mut().iter_mut().zip(g.row(r)) {
                            *d += s;
                        }
                    }
                    accumulate_node(&mut node_grads, *bias, db);
                    accumulate_node(&mut node_grads, *a, g);
                }
                Op::Scale { a, k } => {
                    accumulate_node(&mut node_grads, *a, g.scale(*k));
                }
                Op::AddScalar { a } => {
                    accumulate_node(&mut node_grads, *a, g);
                }
                Op::RowDot { a, b } => {
                    let av = &self.nodes[a.index()].value;
                    let bv = &self.nodes[b.index()].value;
                    let (m, d) = (av.rows(), av.cols());
                    let mut da = Tensor::zeros(m, d);
                    let mut db = Tensor::zeros(m, d);
                    for i in 0..m {
                        let gi = g.data()[i];
                        for ((x, y), (&bx, &ax)) in da
                            .row_mut(i)
                            .iter_mut()
                            .zip(db.row_mut(i).iter_mut())
                            .zip(bv.row(i).iter().zip(av.row(i)))
                        {
                            *x = gi * bx;
                            *y = gi * ax;
                        }
                    }
                    accumulate_node(&mut node_grads, *a, da);
                    accumulate_node(&mut node_grads, *b, db);
                }
                Op::Sigmoid { a } => {
                    let da = g.zip(&node.value, |gi, s| gi * s * (1.0 - s));
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::Relu { a } => {
                    let da = g.zip(&node.value, |gi, o| if o > 0.0 { gi } else { 0.0 });
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::Tanh { a } => {
                    let da = g.zip(&node.value, |gi, t| gi * (1.0 - t * t));
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::Ln { a } => {
                    let av = &self.nodes[a.index()].value;
                    let da = g.zip(av, |gi, x| gi / x.max(LN_EPS));
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::SoftmaxGroups { a, group } => {
                    let s = &node.value;
                    let mut da = Tensor::zeros(s.rows(), 1);
                    let group = *group;
                    let n_blocks = s.rows() / group;
                    par_row_bands(da.data_mut(), n_blocks, group, s.rows(), |blk0, band| {
                        for (local, chunk) in band.chunks_mut(group).enumerate() {
                            let base = (blk0 + local) * group;
                            let mut inner = 0.0f32;
                            for k in 0..group {
                                inner += g.data()[base + k] * s.data()[base + k];
                            }
                            for (k, x) in chunk.iter_mut().enumerate() {
                                *x = s.data()[base + k] * (g.data()[base + k] - inner);
                            }
                        }
                    });
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::GroupWeightedSum { w, v, group } => {
                    let wv = &self.nodes[w.index()].value;
                    let vv = &self.nodes[v.index()].value;
                    let group = *group;
                    let m = vv.rows() / group;
                    let d = vv.cols();
                    let mut dw = Tensor::zeros(vv.rows(), 1);
                    let mut dv = Tensor::zeros(vv.rows(), d);
                    // both gradients partition by block; each block writes
                    // its own group-row slice, so banding is value-neutral
                    par_row_bands(dw.data_mut(), m, group, vv.rows() * d, |blk0, band| {
                        for (local, wchunk) in band.chunks_mut(group).enumerate() {
                            let i = blk0 + local;
                            let go = g.row(i);
                            for (k, x) in wchunk.iter_mut().enumerate() {
                                *x = dot(go, vv.row(i * group + k));
                            }
                        }
                    });
                    par_row_bands(dv.data_mut(), m, group * d, vv.rows() * d, |blk0, band| {
                        for (local, vchunk) in band.chunks_mut(group * d).enumerate() {
                            let i = blk0 + local;
                            let go = g.row(i);
                            for k in 0..group {
                                let wk = wv.data()[i * group + k];
                                for (x, &s) in vchunk[k * d..(k + 1) * d].iter_mut().zip(go) {
                                    *x = wk * s;
                                }
                            }
                        }
                    });
                    accumulate_node(&mut node_grads, *w, dw);
                    accumulate_node(&mut node_grads, *v, dv);
                }
                Op::GroupMean { a, group } => {
                    let group = *group;
                    let m = g.rows();
                    let d = g.cols();
                    let inv = 1.0 / group as f32;
                    let mut da = Tensor::zeros(m * group, d);
                    for i in 0..m {
                        let go = g.row(i);
                        for k in 0..group {
                            for (x, &s) in da.row_mut(i * group + k).iter_mut().zip(go) {
                                *x = s * inv;
                            }
                        }
                    }
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::RepeatRows { a, times } => {
                    let times = *times;
                    let m = g.rows() / times;
                    let d = g.cols();
                    let mut da = Tensor::zeros(m, d);
                    for i in 0..m {
                        let dst = da.row_mut(i);
                        for t in 0..times {
                            for (x, &s) in dst.iter_mut().zip(g.row(i * times + t)) {
                                *x += s;
                            }
                        }
                    }
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::PeerConcat { a, group } => {
                    let group = *group;
                    let av = &self.nodes[a.index()].value;
                    let d = av.cols();
                    let m = av.rows() / group;
                    let mut da = Tensor::zeros(av.rows(), d);
                    for i in 0..m {
                        for j in 0..group {
                            let g_row = g.row(i * group + j);
                            let mut seg = 0;
                            for k in 0..group {
                                if k == j {
                                    continue;
                                }
                                let src = &g_row[seg * d..(seg + 1) * d];
                                let dst = da.row_mut(i * group + k);
                                for (x, &s) in dst.iter_mut().zip(src) {
                                    *x += s;
                                }
                                seg += 1;
                            }
                        }
                    }
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::ConcatCols { a, b } => {
                    let c1 = self.nodes[a.index()].value.cols();
                    let c2 = self.nodes[b.index()].value.cols();
                    let m = g.rows();
                    let mut da = Tensor::zeros(m, c1);
                    let mut db = Tensor::zeros(m, c2);
                    for i in 0..m {
                        da.row_mut(i).copy_from_slice(&g.row(i)[..c1]);
                        db.row_mut(i).copy_from_slice(&g.row(i)[c1..]);
                    }
                    accumulate_node(&mut node_grads, *a, da);
                    accumulate_node(&mut node_grads, *b, db);
                }
                Op::SumAll { a } => {
                    let av = &self.nodes[a.index()].value;
                    let da = Tensor::full(av.rows(), av.cols(), g.item());
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::MeanAll { a } => {
                    let av = &self.nodes[a.index()].value;
                    let n = av.shape().len().max(1) as f32;
                    let da = Tensor::full(av.rows(), av.cols(), g.item() / n);
                    accumulate_node(&mut node_grads, *a, da);
                }
                Op::BceWithLogits { logits, targets } => {
                    let lv = &self.nodes[logits.index()].value;
                    let mut da = Tensor::zeros(lv.rows(), 1);
                    for i in 0..lv.rows() {
                        let x = lv.data()[i];
                        let y = targets.data()[i];
                        da.data_mut()[i] = g.data()[i] * (sigmoid(x) - y);
                    }
                    accumulate_node(&mut node_grads, *logits, da);
                }
            }
        }
        grads
    }
}

/// Gather backward: `t.row(rows[i]) += g.row(i)` for every `i`.
///
/// Parallelises over *destination* row bands — each task scans the full
/// index list and accumulates only the rows in its band, so a destination
/// row always receives its contributions in ascending `i` order, exactly
/// like the sequential loop. The redundant scans cost O(threads · len)
/// index comparisons, which is noise next to the O(len · d) adds.
fn scatter_add_rows(t: &mut Tensor, rows: &[u32], g: &Tensor) {
    let d = g.cols();
    let threads = pool::num_threads();
    let dest_rows = t.rows();
    if threads == 1 || dest_rows < 2 || rows.len() * d < 16 * 1024 {
        for (i, &r) in rows.iter().enumerate() {
            for (x, &s) in t.row_mut(r as usize).iter_mut().zip(g.row(i)) {
                *x += s;
            }
        }
        return;
    }
    let band_rows = dest_rows.div_ceil(threads).max(1);
    pool::par_chunks_mut(t.data_mut(), band_rows * d, |ci, band| {
        let lo = ci * band_rows;
        let hi = lo + band.len() / d;
        for (i, &r) in rows.iter().enumerate() {
            let r = r as usize;
            if r < lo || r >= hi {
                continue;
            }
            let dst = &mut band[(r - lo) * d..(r - lo + 1) * d];
            for (x, &s) in dst.iter_mut().zip(g.row(i)) {
                *x += s;
            }
        }
    });
}

fn accumulate_node(node_grads: &mut [Option<Tensor>], id: NodeId, delta: Tensor) {
    match &mut node_grads[id.index()] {
        Some(g) => g.axpy(1.0, &delta),
        slot @ None => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::shape::Shape;

    /// Numeric gradient of `f` w.r.t. parameter `pid` by central differences.
    fn numeric_grad(
        store: &mut ParamStore,
        pid: ParamId,
        mut f: impl FnMut(&ParamStore) -> f32,
    ) -> Tensor {
        let eps = 1e-3f32;
        let shape = store.shape(pid);
        let mut out = Tensor::zeros(shape.rows, shape.cols);
        for i in 0..shape.len() {
            let orig = store.value(pid).data()[i];
            store.value_mut(pid).data_mut()[i] = orig + eps;
            let up = f(store);
            store.value_mut(pid).data_mut()[i] = orig - eps;
            let down = f(store);
            store.value_mut(pid).data_mut()[i] = orig;
            out.data_mut()[i] = (up - down) / (2.0 * eps);
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}: element {i}: analytic {x} vs numeric {y}"
            );
        }
    }

    #[test]
    fn matmul_gradients_match_numeric() {
        let mut store = ParamStore::new();
        let a = store.register("a", crate::init::uniform(3, 4, 1.0, 1));
        let b = store.register("b", crate::init::uniform(4, 2, 1.0, 2));
        let f = |s: &ParamStore| {
            let mut t = Tape::new(s);
            let an = t.param(a);
            let bn = t.param(b);
            let c = t.matmul(an, bn);
            let sq = t.mul(c, c);
            t.mean_all(sq);
            t.value(NodeId((t.len() - 1) as u32)).item()
        };
        let mut tape = Tape::new(&store);
        let an = tape.param(a);
        let bn = tape.param(b);
        let c = tape.matmul(an, bn);
        let sq = tape.mul(c, c);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        let na = numeric_grad(&mut store.clone(), a, f);
        let nb = numeric_grad(&mut store.clone(), b, f);
        assert_close(grads.get(a).unwrap(), &na, 2e-2, "dA");
        assert_close(grads.get(b).unwrap(), &nb, 2e-2, "dB");
    }

    #[test]
    fn gather_accumulates_repeated_rows() {
        let mut store = ParamStore::new();
        let e = store.register("e", crate::init::uniform(5, 3, 1.0, 3));
        let mut tape = Tape::new(&store);
        let g = tape.gather(e, &[1, 1, 4]);
        let s = tape.sum_all(g);
        let grads = tape.backward(s);
        let ge = grads.get(e).unwrap();
        // row 1 gathered twice → gradient 2, row 4 once → 1, others 0
        assert!(ge.row(1).iter().all(|&x| x == 2.0));
        assert!(ge.row(4).iter().all(|&x| x == 1.0));
        assert!(ge.row(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gather_row_dot_is_bit_identical_to_composite() {
        let mut store = ParamStore::new();
        let table = store.register("table", crate::init::uniform(7, 5, 1.0, 41));
        let q = store.register("q", crate::init::uniform(6, 5, 1.0, 42));
        let rows: Vec<u32> = vec![3, 0, 3, 6, 1, 3]; // repeats exercise the scatter
        let run = |fused: bool| {
            let mut tape = Tape::new(&store);
            let qn = tape.param(q);
            let d = if fused {
                tape.gather_row_dot(table, &rows, qn)
            } else {
                let gathered = tape.gather(table, &rows);
                tape.row_dot(qn, gathered)
            };
            let sg = tape.sigmoid(d);
            let loss = tape.sum_all(sg);
            let value = tape.value(d).clone();
            (value, tape.backward(loss))
        };
        let (v_fused, g_fused) = run(true);
        let (v_comp, g_comp) = run(false);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&v_fused), bits(&v_comp), "forward");
        assert_eq!(bits(g_fused.get(table).unwrap()), bits(g_comp.get(table).unwrap()), "d_table");
        assert_eq!(bits(g_fused.get(q).unwrap()), bits(g_comp.get(q).unwrap()), "d_q");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_row_dot_checks_bounds() {
        let mut store = ParamStore::new();
        let table = store.register("table", Tensor::zeros(3, 2));
        let mut tape = Tape::new(&store);
        let q = tape.constant(Tensor::zeros(1, 2));
        tape.gather_row_dot(table, &[3], q);
    }

    #[test]
    fn activations_match_numeric() {
        for act in ["sigmoid", "relu", "tanh", "ln"] {
            let mut store = ParamStore::new();
            let p = store.register("p", crate::init::uniform(2, 3, 1.0, 7).map(|x| x + 1.5));
            let run = |s: &ParamStore| -> f32 {
                let mut t = Tape::new(s);
                let x = t.param(p);
                let y = match act {
                    "sigmoid" => t.sigmoid(x),
                    "relu" => t.relu(x),
                    "tanh" => t.tanh(x),
                    _ => t.ln(x),
                };
                let m = t.mean_all(y);
                t.value(m).item()
            };
            let mut tape = Tape::new(&store);
            let x = tape.param(p);
            let y = match act {
                "sigmoid" => tape.sigmoid(x),
                "relu" => tape.relu(x),
                "tanh" => tape.tanh(x),
                _ => tape.ln(x),
            };
            let loss = tape.mean_all(y);
            let grads = tape.backward(loss);
            let n = numeric_grad(&mut store.clone(), p, run);
            assert_close(grads.get(p).unwrap(), &n, 2e-2, act);
        }
    }

    #[test]
    fn softmax_groups_gradient_matches_numeric() {
        let mut store = ParamStore::new();
        let p = store.register("p", crate::init::uniform(6, 1, 2.0, 11));
        let weights = Tensor::col_vector(&[0.5, -1.0, 2.0, 0.3, 0.1, -0.7]);
        let run = |s: &ParamStore| -> f32 {
            let mut t = Tape::new(s);
            let x = t.param(p);
            let sm = t.softmax_groups(x, 3);
            let w = t.constant(weights.clone());
            let prod = t.mul(sm, w);
            let m = t.sum_all(prod);
            t.value(m).item()
        };
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let sm = tape.softmax_groups(x, 3);
        let w = tape.constant(weights.clone());
        let prod = tape.mul(sm, w);
        let loss = tape.sum_all(prod);
        let grads = tape.backward(loss);
        let n = numeric_grad(&mut store.clone(), p, run);
        assert_close(grads.get(p).unwrap(), &n, 2e-2, "softmax_groups");
    }

    #[test]
    fn group_weighted_sum_gradient_matches_numeric() {
        let mut store = ParamStore::new();
        let w = store.register("w", crate::init::uniform(4, 1, 1.0, 21));
        let v = store.register("v", crate::init::uniform(4, 3, 1.0, 22));
        let run = |s: &ParamStore| -> f32 {
            let mut t = Tape::new(s);
            let wn = t.param(w);
            let vn = t.param(v);
            let o = t.group_weighted_sum(wn, vn, 2);
            let sq = t.mul(o, o);
            let m = t.mean_all(sq);
            t.value(m).item()
        };
        let mut tape = Tape::new(&store);
        let wn = tape.param(w);
        let vn = tape.param(v);
        let o = tape.group_weighted_sum(wn, vn, 2);
        let sq = tape.mul(o, o);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        assert_close(grads.get(w).unwrap(), &numeric_grad(&mut store.clone(), w, run), 2e-2, "dW");
        assert_close(grads.get(v).unwrap(), &numeric_grad(&mut store.clone(), v, run), 2e-2, "dV");
    }

    #[test]
    fn peer_concat_forward_and_backward() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let pc = tape.peer_concat(x, 3);
        // row 0 = [2,3], row 1 = [1,3], row 2 = [1,2]
        assert_eq!(tape.value(pc).row(0), &[2.0, 3.0]);
        assert_eq!(tape.value(pc).row(1), &[1.0, 3.0]);
        assert_eq!(tape.value(pc).row(2), &[1.0, 2.0]);
        let s = tape.sum_all(pc);
        let grads = tape.backward(s);
        // each row appears in group-1 = 2 peer rows → gradient 2
        assert!(grads.get(p).unwrap().data().iter().all(|&x| x == 2.0));
    }

    #[test]
    fn repeat_rows_and_group_mean_are_inverse_in_gradient() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let r = tape.repeat_rows(x, 3);
        assert_eq!(tape.value(r).rows(), 6);
        assert_eq!(tape.value(r).row(2), &[1.0, 2.0]);
        assert_eq!(tape.value(r).row(3), &[3.0, 4.0]);
        let m = tape.group_mean(r, 3);
        // mean of identical rows = original
        assert_eq!(tape.value(m).data(), store.value(p).data());
        let s = tape.sum_all(m);
        let grads = tape.backward(s);
        assert!(grads.get(p).unwrap().data().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn row_dot_gradient_matches_numeric() {
        let mut store = ParamStore::new();
        let a = store.register("a", crate::init::uniform(3, 4, 1.0, 31));
        let b = store.register("b", crate::init::uniform(3, 4, 1.0, 32));
        let run = |s: &ParamStore| -> f32 {
            let mut t = Tape::new(s);
            let an = t.param(a);
            let bn = t.param(b);
            let d = t.row_dot(an, bn);
            let sg = t.sigmoid(d);
            let m = t.mean_all(sg);
            t.value(m).item()
        };
        let mut tape = Tape::new(&store);
        let an = tape.param(a);
        let bn = tape.param(b);
        let d = tape.row_dot(an, bn);
        let sg = tape.sigmoid(d);
        let loss = tape.mean_all(sg);
        let grads = tape.backward(loss);
        assert_close(grads.get(a).unwrap(), &numeric_grad(&mut store.clone(), a, run), 2e-2, "dA");
        assert_close(grads.get(b).unwrap(), &numeric_grad(&mut store.clone(), b, run), 2e-2, "dB");
    }

    #[test]
    fn bce_with_logits_value_and_gradient() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::col_vector(&[0.0, 2.0, -3.0]));
        let targets = Tensor::col_vector(&[1.0, 0.0, 1.0]);
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let l = tape.bce_with_logits(x, targets.clone());
        // loss at x=0, y=1 is ln 2
        assert!((tape.value(l).data()[0] - std::f32::consts::LN_2).abs() < 1e-5);
        let m = tape.mean_all(l);
        let grads = tape.backward(m);
        let gp = grads.get(p).unwrap();
        for i in 0..3 {
            let expect = (sigmoid(store.value(p).data()[i]) - targets.data()[i]) / 3.0;
            assert!((gp.data()[i] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn add_row_broadcasts_bias() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::zeros(3, 2));
        let b = store.register("b", Tensor::from_rows(&[&[1.0, -1.0]]));
        let mut tape = Tape::new(&store);
        let an = tape.param(a);
        let bn = tape.param(b);
        let o = tape.add_row(an, bn);
        assert_eq!(tape.value(o).row(2), &[1.0, -1.0]);
        let s = tape.sum_all(o);
        let grads = tape.backward(s);
        // bias gradient sums over rows
        assert_eq!(grads.get(b).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // x used twice: loss = sum(x) + sum(x) → grad 2 everywhere
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::full(2, 2, 1.0));
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let s1 = tape.sum_all(x);
        let s2 = tape.sum_all(x);
        let tot = tape.add(s1, s2);
        let grads = tape.backward(tot);
        assert!(grads.get(p).unwrap().data().iter().all(|&v| v == 2.0));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let c = tape.constant(Tensor::zeros(2, 2));
        tape.backward(c);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::full(2, 2, 1.0));
        let b = store.register("b", Tensor::full(2, 3, 1.0));
        let mut tape = Tape::new(&store);
        let an = tape.param(a);
        let bn = tape.param(b);
        let c = tape.concat_cols(an, bn);
        assert_eq!(tape.value(c).shape(), Shape::new(2, 5));
        let w = tape.constant(Tensor::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[6.0, 7.0, 8.0, 9.0, 10.0],
        ]));
        let prod = tape.mul(c, w);
        let s = tape.sum_all(prod);
        let grads = tape.backward(s);
        assert_eq!(grads.get(a).unwrap().data(), &[1.0, 2.0, 6.0, 7.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[3.0, 4.0, 5.0, 8.0, 9.0, 10.0]);
    }
}
