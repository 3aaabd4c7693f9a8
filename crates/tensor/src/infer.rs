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
//! * **One logit per (query row, relation).** [`LogitMemo`] computes
//!   each query row's attention dot once per relation of a set laid out
//!   for many rows, into a dense array the edges index.
//! * **One `exp` per (query row, relation, group max).** [`ExpMemo`]
//!   memoises the softmax numerator by relation and the relation of the
//!   group's max logit, within each query row.
//! * **Packed rows at the served width.** At d = 16 the accumulating
//!   kernels hold the output row in a fixed-size array the compiler
//!   keeps in vector registers, with a matmul block's 16 terms
//!   unrolled. Other widths keep a 16-wide slice of the row (4-wide
//!   where 16 does not divide it) in a local array across the k loop.
//! * **Packed bodies at the host's vector width.** Each packed body is
//!   one source compiled twice, as is and with AVX2 enabled (never
//!   FMA), and every call runs the compilation the host supports
//!   ([`isa`] names it). Both issue the same roundings in the same
//!   order, so the choice never moves a bit.
//! * **One kernel a node update.** [`node_update`] runs a propagation
//!   node's weighted sum of children, self term, matmul, bias and
//!   activation per row, with no intermediate buffer.
//! * **One epilogue a call.** A fused matmul matches its plan and
//!   activation once per call and runs a body compiled for that pair.
//! * **One pass a PI tower.** [`peer_influence`] scores every member of
//!   a chunk's groups in one call, the `[d, 1]` projection included.
//! * **One tanh.** The activation's tanh is [`crate::tanh`], the port
//!   of fdlibm `tanhf` the tape calls too — 16 lanes at a time in the
//!   packed epilogue.
//!
//! Two properties every kernel guarantees (the property suite in
//! `tests/infer_props.rs` enforces both):
//!
//! * **Tape-exactness.** Each kernel issues the same f32 roundings in
//!   the same order as the tape op sequence it fuses, so its output is
//!   bit-identical to the tape's on any input — non-finite values
//!   included. Every output element still accumulates its terms in k
//!   order from the same start value, zero-weight terms skipped, no FMA;
//!   a memoised logit or `exp` is the very expression the tape
//!   evaluates, on the same bits. Fusion only removes copies and
//!   repeats; it never reorders a sum, folds a constant or rescales a
//!   table.
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

/// The relation-attention logits of one query row at a time, over a
/// set of relations laid out once for many rows.
///
/// `dot(q, relation.row(r)) · scale` depends only on the row and the
/// relation, so a row computes it once per relation of the set, in the
/// set's order, into a dense array, and every edge reads its logit there
/// by the relation's index in the set — no per-edge lookup. The value is
/// the same expression the tape evaluates per edge, so the form is
/// value-neutral. [`LogitMemo::intern`] numbers the set, and
/// [`LogitMemo::start_set`] begins the next one.
#[derive(Debug, Default)]
pub struct LogitMemo {
    /// The set's relation ids, by index.
    relations: Vec<u32>,
    /// Per relation id: the set stamp it was numbered under, and its
    /// index there.
    index: Vec<(u64, u32)>,
    /// The current set's stamp, past every stamp in `index`.
    set: u64,
    /// The current row's logit of each relation of the set, by index.
    logits: Vec<f32>,
    /// Dot products computed so far.
    pub dots: usize,
}

impl LogitMemo {
    /// Begin a new, empty relation set; no earlier index or logit stays
    /// valid, and the set has no logits until its first row.
    pub fn start_set(&mut self) {
        self.relations.clear();
        self.logits.clear();
        self.set += 1;
    }

    /// The index of relation `r` in the current set, appended if new.
    #[inline]
    pub fn intern(&mut self, r: u32) -> u32 {
        let slot = r as usize;
        if slot >= self.index.len() {
            self.index.resize(slot + 1, (0, 0));
        }
        let entry = &mut self.index[slot];
        if entry.0 != self.set {
            *entry = (self.set, self.relations.len() as u32);
            self.relations.push(r);
        }
        entry.1
    }

    /// The number of relations in the current set.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the current set is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Compute the logits of query vector `q` against the `[rows, dim]`
    /// relation table for every relation of the set, in set order. The
    /// first `finite` of them must be finite: at the first that is not
    /// the row stops, having computed it, and returns `false`.
    pub fn row(&mut self, q: &[f32], relation: &[f32], scale: f32, finite: usize) -> bool {
        let dim = q.len();
        self.logits.resize(self.relations.len(), 0.0);
        for (j, (x, &r)) in self.logits.iter_mut().zip(&self.relations).enumerate() {
            let r = r as usize;
            *x = dot(q, &relation[r * dim..(r + 1) * dim]) * scale;
            self.dots += 1;
            if j < finite && !x.is_finite() {
                return false;
            }
        }
        true
    }

    /// The current row's logits, by index in the set.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }
}

/// The propagation softmax of one query row at a time, with one `exp`
/// per (row, relation, group-max relation) instead of one per edge.
///
/// A block's softmax is `exp(x − max) / Σ`, and `exp(x − max)` depends
/// only on the bits of `x` and `max`. Within a query row `x` is a
/// function of the relation (the [`LogitMemo`] invariant), and `max` —
/// an `f32::max` fold from −∞ — is the bits of one of the block's own
/// logits, so it is named by that logit's relation. A table keyed by
/// (relation, max relation) and cleared with each row therefore returns
/// the very value the per-edge `exp` would. Relations are named by their
/// index in the row's [`LogitMemo`] set, and a block asks once which of
/// its relations lack a value under its max, not once per edge. The one
/// block whose max is no logit — every logit NaN, max −∞ — runs the
/// plain per-edge softmax. The max fold, the sum in edge order and the
/// divide are unchanged.
///
/// At the served fan-out a row whose logits are pairwise distinct
/// numbers is ranked, once: then every order of a block's `f32::max`
/// fold gives its highest-ranked relation's logit, and that relation
/// holds the block's first edge with the max's bits, so one OR of
/// per-relation bits a edge names both the block's max relation and the
/// `exp`s it needs. A row with NaN or tied logits folds block by block.
#[derive(Debug, Default)]
pub struct ExpMemo {
    /// The row's relation count.
    n: usize,
    /// 64-relation words per `have` row.
    words: usize,
    /// `exp(logit[j] − logit[top])` at `top · n + j`, where `have` says so.
    value: Vec<f32>,
    /// Per `top`: which `value`s the current row holds, 64 a word.
    have: Vec<u64>,
    /// The row's relations from the largest logit down, when the row is
    /// ranked.
    by_rank: Vec<u32>,
    /// Per relation of a ranked row: bit `j` and bit `32 + rank`.
    rank_bits: Vec<u64>,
    /// Whether the current row is ranked, once a block of the served
    /// fan-out has asked.
    ranked: Option<bool>,
    /// `exp` evaluated so far.
    pub exps: usize,
}

/// The served propagation fan-out `K`, whose blocks a ranked row runs at
/// a fixed size.
const PACKED_GROUP: usize = 8;

impl ExpMemo {
    /// Begin the next query row over `n` relations; the previous row's
    /// values are dropped.
    pub fn next_row(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64);
        self.have.clear();
        self.have.resize(n * self.words, 0);
        self.ranked = None;
        if self.value.len() < n * n {
            self.value.resize(n * n, 0.0);
        }
    }

    /// One block's softmax into `out` under the current row: edge `e`
    /// has logit `logits[ids[e]]`, `ids` indices below the row's `n`.
    pub fn softmax(&mut self, logits: &[f32], ids: &[u32], out: &mut [f32]) {
        assert_eq!(out.len(), ids.len(), "one relation per edge");
        self.softmax_blocks(logits, ids, ids.len(), out, ids.len());
    }

    /// [`ExpMemo::softmax`] of each of the current row's `k`-edge blocks
    /// in turn: block `b`'s edges are `ids[b·k..(b + 1)·k]`, and its
    /// weights go to `out[b·stride..b·stride + k]`, `stride ≥ k`.
    pub fn softmax_blocks(
        &mut self,
        logits: &[f32],
        ids: &[u32],
        k: usize,
        out: &mut [f32],
        stride: usize,
    ) {
        assert!(0 < k && k <= stride, "blocks of at least one edge, side by side or apart");
        assert_eq!(ids.len() % k, 0, "whole blocks");
        let blocks = ids.len() / k;
        if blocks == 0 {
            return;
        }
        assert!((blocks - 1) * stride + k <= out.len(), "room for every block");
        let n = self.n;
        assert_eq!(logits.len(), n, "one logit per relation of the row");
        let top_index = ids.iter().fold(0, |m, &j| m.max(j)) as usize;
        assert!(top_index < n, "relation indices below the row's {n}");
        if k == PACKED_GROUP && self.ranked.is_none() {
            self.ranked = Some(self.rank(logits));
        }
        let ranked = k == PACKED_GROUP && self.ranked == Some(true);
        let mut row = RowExps {
            logits,
            n,
            words: self.words,
            value: &mut self.value[..n * n],
            have: &mut self.have[..],
            by_rank: &self.by_rank,
            rank_bits: &self.rank_bits,
            exps: 0,
        };
        let blocks = ids.chunks_exact(k).zip(out.chunks_mut(stride));
        if ranked {
            assert_eq!((row.by_rank.len(), row.rank_bits.len()), (n, n), "a rank a relation");
            for (ids, out) in blocks {
                let out = (&mut out[..k]).try_into().expect("a packed block");
                row.ranked(ids.try_into().expect("a packed block"), out);
            }
        } else {
            for (ids, out) in blocks {
                row.folded(ids, &mut out[..k]);
            }
        }
        self.exps += row.exps;
    }

    /// Rank the row's relations by logit when that decides every block's
    /// max: at most 32 relations, no NaN and no two equal logits (`+0`
    /// and `−0` included). Then a block's `f32::max` fold has one
    /// possible result whatever the order — the logit of its
    /// highest-ranked relation — and that relation holds the first edge
    /// with the max's bits.
    fn rank(&mut self, logits: &[f32]) -> bool {
        let n = logits.len();
        if n > 32 || logits.iter().any(|x| x.is_nan()) {
            return false;
        }
        self.by_rank.clear();
        self.by_rank.extend(0..n as u32);
        self.by_rank.sort_unstable_by(|&a, &b| logits[b as usize].total_cmp(&logits[a as usize]));
        if self.by_rank.windows(2).any(|w| logits[w[0] as usize] == logits[w[1] as usize]) {
            return false;
        }
        self.rank_bits.clear();
        self.rank_bits.resize(n, 0);
        for (rank, &j) in self.by_rank.iter().enumerate() {
            self.rank_bits[j as usize] = 1 << j | 1 << (32 + rank);
        }
        true
    }
}

/// One query row's view of an [`ExpMemo`], every length fixed: `n`
/// logits, `n · n` values, `n · words` held-words, and — as
/// [`ExpMemo::softmax_blocks`] checks before making one — every edge's
/// relation index below `n`.
struct RowExps<'a> {
    logits: &'a [f32],
    n: usize,
    words: usize,
    value: &'a mut [f32],
    have: &'a mut [u64],
    /// When the row is ranked, as [`ExpMemo::softmax_blocks`] checks
    /// before its ranked blocks: `n` of each.
    by_rank: &'a [u32],
    rank_bits: &'a [u64],
    exps: usize,
}

impl RowExps<'_> {
    /// One block of a ranked row: its relations' bits name the block's
    /// top relation and the values it needs in one OR each edge, with no
    /// max fold or scan.
    #[inline(always)]
    fn ranked(&mut self, ids: &[u32; PACKED_GROUP], out: &mut [f32; PACKED_GROUP]) {
        // SAFETY: `j < n = rank_bits.len()`, as the view's maker checked
        let bits =
            ids.iter().fold(0, |m, &j| m | unsafe { *self.rank_bits.get_unchecked(j as usize) });
        let top = self.by_rank[(bits >> 32).trailing_zeros() as usize] as usize;
        // SAFETY: `top < n = have.len()`: a ranked row has one word a
        // relation
        let missing = bits & 0xffff_ffff & !unsafe { *self.have.get_unchecked(top) };
        if missing != 0 {
            self.fill(top, 0, missing);
        }
        let sum = self.values(ids, top, out);
        divide(out, sum);
    }

    /// One block by the `f32::max` fold from −∞ in edge order and the
    /// first edge holding the max's bits; a block whose logits are all
    /// NaN runs the plain per-edge softmax.
    fn folded(&mut self, ids: &[u32], out: &mut [f32]) {
        for (x, &j) in out.iter_mut().zip(ids) {
            *x = self.logits[j as usize];
        }
        let max = out.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let Some(e) = out.iter().position(|x| x.to_bits() == max.to_bits()) else {
            softmax_inplace(out);
            self.exps += out.len();
            return;
        };
        let top = ids[e] as usize;
        for &j in ids {
            let (word, bit) = (j as usize / 64, 1u64 << (j % 64));
            if self.have[top * self.words + word] & bit == 0 {
                self.fill(top, word, bit);
            }
        }
        let sum = self.values(ids, top, out);
        divide(out, sum);
    }

    /// The block's numerators under max relation `top` into `out`, and
    /// their sum in edge order.
    #[inline(always)]
    fn values(&self, ids: &[u32], top: usize, out: &mut [f32]) -> f32 {
        debug_assert_eq!((self.logits.len(), self.value.len()), (self.n, self.n * self.n));
        debug_assert!(top < self.n && ids.iter().all(|&j| (j as usize) < self.n));
        let mut sum = 0.0;
        for (x, &j) in out.iter_mut().zip(ids) {
            // SAFETY: `top < n` and `j < n`, so `top · n + j < n · n =
            // value.len()`
            let v = unsafe { *self.value.get_unchecked(top * self.n + j as usize) };
            debug_assert_eq!(
                v.to_bits(),
                (self.logits[j as usize] - self.logits[top]).exp().to_bits()
            );
            *x = v;
            sum += *x;
        }
        sum
    }

    /// `exp(logits[j] − logits[top])` for each relation `j` of `bits` in
    /// word `word`, now held.
    #[inline(never)]
    fn fill(&mut self, top: usize, word: usize, bits: u64) {
        self.have[top * self.words + word] |= bits;
        let mut rest = bits;
        while rest != 0 {
            let j = word * 64 + rest.trailing_zeros() as usize;
            self.value[top * self.n + j] = (self.logits[j] - self.logits[top]).exp();
            self.exps += 1;
            rest &= rest - 1;
        }
    }
}

/// The softmax's divide, skipped when the sum is not positive.
#[inline(always)]
fn divide(out: &mut [f32], sum: f32) {
    if sum > 0.0 {
        for x in out.iter_mut() {
            *x /= sum;
        }
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

/// A compilation of the packed kernel bodies: the baseline one every
/// host runs, or the AVX2 one. A value naming AVX2 exists only on a
/// host that has it, which is what makes running that compilation
/// sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa {
    avx2: bool,
}

impl Isa {
    /// The compilation for the host's target, which every host runs.
    pub(crate) const BASELINE: Isa = Isa { avx2: false };

    /// The widest compilation this host runs. Feature detection runs
    /// once per process; std caches its answer.
    #[inline]
    pub(crate) fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa { avx2: true };
        }
        Isa::BASELINE
    }

    /// The AVX2 compilation, if this host runs it.
    #[cfg(test)]
    pub(crate) fn avx2() -> Option<Isa> {
        Some(Isa::host()).filter(|isa| isa.avx2)
    }

    /// Whether this is the AVX2 compilation.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub(crate) fn is_avx2(self) -> bool {
        self.avx2
    }
}

/// The compilation the packed kernels run in on this host: `"avx2"` or
/// `"baseline"`.
pub fn isa() -> &'static str {
    if Isa::host().avx2 {
        "avx2"
    } else {
        "baseline"
    }
}

/// Compile one `#[inline(always)]` packed kernel body twice, behind an
/// entry that takes the [`Isa`] to run:
///
/// ```text
/// packed_twins!(fn entry[generics](args…) -> ret = body);
/// ```
///
/// defines `entry(isa, args…)`, which calls `body(args…)` compiled as
/// is, or, for the AVX2 `Isa` on x86-64, inside an `unsafe fn` with
/// `avx2` enabled. `fma` stays off, so both compilations issue the same
/// separate multiplies and adds in the same order: the source is one,
/// and LLVM fuses no `fmul`/`fadd` pair without fast-math flags.
macro_rules! packed_twins {
    (
        $(#[$attr:meta])*
        $vis:vis fn $entry:ident[$($g:tt)*]($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident
    ) => {
        $(#[$attr])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        $vis fn $entry<$($g)*>(isa: $crate::infer::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if isa.is_avx2() {
                /// The body compiled for AVX2.
                ///
                /// # Safety
                /// The host must support AVX2.
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2<$($g)*>($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                // SAFETY: an AVX2 `Isa` is only made on a host with AVX2
                return unsafe { avx2($($arg),*) };
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = isa;
            $body($($arg),*)
        }
    };
}
pub(crate) use packed_twins;

/// The served embedding width. Kernels whose rows are this wide run
/// packed bodies: the row is a fixed-size array the compiler keeps in
/// vector registers, and a `[16, 16]` matmul block has its 16 terms
/// unrolled. Each element still sees the [`accumulate`] sequence.
const PACKED: usize = 16;

/// One packed row.
type Packed = [f32; PACKED];

/// Row `i` of a dense buffer of packed rows.
#[inline(always)]
fn packed(data: &[f32], i: usize) -> &Packed {
    data[i * PACKED..(i + 1) * PACKED].try_into().expect("a packed row")
}

/// `acc += x · row`, lane by lane: a separate multiply and add, no FMA.
#[inline(always)]
fn axpy(acc: &mut Packed, x: f32, row: &Packed) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += x * v;
    }
}

/// `acc += a · w` for a `w` whose first `16 · 16` elements are the
/// `[16, 16]` block: the terms `a[k] · w.row(k)` in k order, zero terms
/// skipped.
#[inline(always)]
fn axpy_block(acc: &mut Packed, a: &Packed, w: &[f32]) {
    let w: &[f32; PACKED * PACKED] = w[..PACKED * PACKED].try_into().expect("a packed block");
    for (k, &x) in a.iter().enumerate() {
        if x != 0.0 {
            axpy(acc, x, packed(w, k));
        }
    }
}

/// The matmul epilogue at the packed width: `act(acc[c] + bias[c])`,
/// tanh 16 lanes at a time.
#[inline(always)]
fn finish_packed<E: Epilogue>(acc: &Packed, bias: &Packed) -> Packed {
    let mut row: Packed = std::array::from_fn(|c| acc[c] + bias[c]);
    E::packed(&mut row);
    row
}

/// The one accumulating kernel body:
/// `out_row[c] = finish(c, out_row[c] + Σ_t x_t · row_t[c])` with the
/// terms `(x_t, row_t)` added in order, terms with `x_t == 0.0` skipped
/// (as the tape does — adding `0·v` could inject NaN or flip a `+0.0`
/// sum to `-0.0`), no FMA. The kernels run it wherever their packed
/// bodies do not apply. The register tile is 16 lanes when 16 divides
/// the row and 4 lanes otherwise; the tile is only a speed choice,
/// every element sees the same additions in the same order with either.
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
    if dim == PACKED {
        // resolve the row storage once, not per term
        let isa = Isa::host();
        match values {
            Rows::Dense(data) => {
                weighted_sum_packed_in(isa, weights, group, |r| packed(data, r), out)
            }
            Rows::ById { table, ids } => {
                weighted_sum_packed_in(isa, weights, group, |r| packed(table, ids[r] as usize), out)
            }
        }
        return;
    }
    for (g, out_row) in out.chunks_exact_mut(dim).enumerate() {
        let terms = (g * group..(g + 1) * group).map(|r| (weights[r], values.row(r, dim)));
        accumulate(terms, out_row, |_, x| x);
    }
}

/// [`group_weighted_sum`] at the packed width, value row `r` read by
/// `row(r)`.
#[inline(always)]
fn weighted_sum_packed<'r>(
    weights: &[f32],
    group: usize,
    row: impl Fn(usize) -> &'r Packed,
    out: &mut [f32],
) {
    for (g, (ws, out_row)) in
        weights.chunks_exact(group).zip(out.chunks_exact_mut(PACKED)).enumerate()
    {
        out_row.copy_from_slice(&weighted_row(ws, g * group, &row));
    }
}

packed_twins!(
    /// [`weighted_sum_packed`] in the compilation `isa` names.
    fn weighted_sum_packed_in['r](
        weights: &[f32],
        group: usize,
        row: impl Fn(usize) -> &'r Packed,
        out: &mut [f32],
    ) = weighted_sum_packed
);

/// `Σ_k ws[k] · row(first + k)` at the packed width, from zero in k
/// order, zero weights skipped.
#[inline(always)]
fn weighted_row<'r>(ws: &[f32], first: usize, row: impl Fn(usize) -> &'r Packed) -> Packed {
    let mut acc = [0.0; PACKED];
    for (k, &x) in ws.iter().enumerate() {
        if x != 0.0 {
            axpy(&mut acc, x, row(first + k));
        }
    }
    acc
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

/// An [`Activation`] fixed at compile time. A fused kernel matches its
/// `act` once per call and runs a body compiled for that epilogue, so
/// no row loop carries the arms of the others — a ReLU loop holds no
/// tanh and no out-of-line `expm1`.
trait Epilogue: Copy {
    /// One element.
    fn lane(x: f32) -> f32;
    /// A packed row in place.
    fn packed(row: &mut Packed);
}

/// The [`Epilogue`] of each [`Activation`].
mod epilogue {
    use super::{Epilogue, Packed};
    use crate::tanh::{tanh, tanh16_packed};

    /// [`super::Activation::None`].
    #[derive(Clone, Copy)]
    pub(super) struct Identity;
    /// [`super::Activation::Relu`].
    #[derive(Clone, Copy)]
    pub(super) struct Relu;
    /// [`super::Activation::Tanh`], 16 lanes at a time on a packed row.
    #[derive(Clone, Copy)]
    pub(super) struct Tanh;

    impl Epilogue for Identity {
        #[inline(always)]
        fn lane(x: f32) -> f32 {
            x
        }
        #[inline(always)]
        fn packed(_: &mut Packed) {}
    }

    impl Epilogue for Relu {
        #[inline(always)]
        fn lane(x: f32) -> f32 {
            x.max(0.0)
        }
        #[inline(always)]
        fn packed(row: &mut Packed) {
            row.iter_mut().for_each(|x| *x = x.max(0.0));
        }
    }

    impl Epilogue for Tanh {
        #[inline(always)]
        fn lane(x: f32) -> f32 {
            tanh(x)
        }
        #[inline(always)]
        fn packed(row: &mut Packed) {
            tanh16_packed(row);
        }
    }
}

/// `$body` with `$e` bound to the [`Epilogue`] value `$act` names — the
/// one match on the activation a fused kernel makes per call.
macro_rules! with_epilogue {
    ($act:expr, |$e:ident| $body:expr) => {
        match $act {
            Activation::None => {
                let $e = epilogue::Identity;
                $body
            }
            Activation::Relu => {
                let $e = epilogue::Relu;
                $body
            }
            Activation::Tanh => {
                let $e = epilogue::Tanh;
                $body
            }
        }
    };
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
    if d_in == PACKED && d_out == PACKED {
        out.reserve(rows * PACKED);
        with_epilogue!(act, |e| matmul2_packed_in(Isa::host(), e, a, b, w_a, w_b, bias, out));
        return;
    }
    out.resize(rows * d_out, 0.0);
    with_epilogue!(act, |e| matmul2_rows(e, a, b, d_in, w_a, w_b, bias, out));
}

/// [`matmul2_bias_act`] off the packed width, one [`accumulate`] a row.
#[allow(clippy::too_many_arguments)]
fn matmul2_rows<E: Epilogue>(
    _: E,
    a: Rows<'_>,
    b: &[f32],
    d_in: usize,
    w_a: &[f32],
    w_b: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let d_out = bias.len();
    for (i, out_row) in out.chunks_exact_mut(d_out).enumerate() {
        let terms = matmul_terms(a.row(i, d_in), w_a, d_out).chain(matmul_terms(
            &b[i * d_in..(i + 1) * d_in],
            w_b,
            d_out,
        ));
        accumulate(terms, out_row, |c, x| E::lane(x + bias[c]));
    }
}

/// [`matmul2_bias_act`] at the packed width, each row appended to
/// `out`.
#[inline(always)]
fn matmul2_packed<E: Epilogue>(
    _: E,
    a: Rows<'_>,
    b: &[f32],
    w_a: &[f32],
    w_b: &[f32],
    bias: &[f32],
    out: &mut Vec<f32>,
) {
    let bias = packed(bias, 0);
    for (i, b_row) in b.chunks_exact(PACKED).enumerate() {
        let mut acc = [0.0; PACKED];
        axpy_block(&mut acc, packed(a.row(i, PACKED), 0), w_a);
        axpy_block(&mut acc, packed(b_row, 0), w_b);
        out.extend_from_slice(&finish_packed::<E>(&acc, bias));
    }
}

packed_twins!(
    /// [`matmul2_packed`] in the compilation `isa` names.
    fn matmul2_packed_in[E: Epilogue](
        epilogue: E,
        a: Rows<'_>,
        b: &[f32],
        w_a: &[f32],
        w_b: &[f32],
        bias: &[f32],
        out: &mut Vec<f32>,
    ) = matmul2_packed
);

/// How a propagation node's own row joins the weighted sum of its
/// children before the layer matmul — the fused plan of a backend's
/// combine rule, which the inference engine dispatches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusedAggregation {
    /// Elementwise `e + e_N`, then one `[d, d]` matmul (GCN-shaped).
    SumSelf,
    /// Split `[2d, d]` concat matmul: self and neighbor halves applied
    /// without materialising the concatenation (GraphSage-shaped).
    SplitConcat,
}

/// A [`FusedAggregation`] fixed at compile time, as [`Epilogue`] fixes
/// the activation: `combine(own, e_N) · w`, accumulated onto `out_row`.
trait Combine: Copy {
    /// At the packed width, in registers.
    fn packed(acc: &mut Packed, own: &Packed, e_n: &Packed, w: &[f32]);
    /// At any width through [`accumulate`], `scratch` a row of room.
    fn row(
        own: &[f32],
        e_n: &[f32],
        w: &[f32],
        scratch: &mut [f32],
        out_row: &mut [f32],
        finish: impl Fn(usize, f32) -> f32,
    );
}

/// The [`Combine`] of each [`FusedAggregation`].
mod combine {
    use super::{accumulate, axpy_block, matmul_terms, Combine, Packed, PACKED};

    /// [`super::FusedAggregation::SumSelf`].
    #[derive(Clone, Copy)]
    pub(super) struct SumSelf;
    /// [`super::FusedAggregation::SplitConcat`].
    #[derive(Clone, Copy)]
    pub(super) struct SplitConcat;

    impl Combine for SumSelf {
        #[inline(always)]
        fn packed(acc: &mut Packed, own: &Packed, e_n: &Packed, w: &[f32]) {
            let sum: Packed = std::array::from_fn(|c| own[c] + e_n[c]);
            axpy_block(acc, &sum, w);
        }
        #[inline(always)]
        fn row(
            own: &[f32],
            e_n: &[f32],
            w: &[f32],
            sum: &mut [f32],
            out_row: &mut [f32],
            finish: impl Fn(usize, f32) -> f32,
        ) {
            for ((s, &o), &e) in sum.iter_mut().zip(own).zip(e_n) {
                *s = o + e;
            }
            accumulate(matmul_terms(sum, w, out_row.len()), out_row, finish);
        }
    }

    impl Combine for SplitConcat {
        #[inline(always)]
        fn packed(acc: &mut Packed, own: &Packed, e_n: &Packed, w: &[f32]) {
            axpy_block(acc, own, w);
            axpy_block(acc, e_n, &w[PACKED * PACKED..]);
        }
        #[inline(always)]
        fn row(
            own: &[f32],
            e_n: &[f32],
            w: &[f32],
            _: &mut [f32],
            out_row: &mut [f32],
            finish: impl Fn(usize, f32) -> f32,
        ) {
            let dim = out_row.len();
            let (w_self, w_neigh) = w.split_at(dim * dim);
            let terms = matmul_terms(own, w_self, dim).chain(matmul_terms(e_n, w_neigh, dim));
            accumulate(terms, out_row, finish);
        }
    }
}

/// One propagation level's node update, fused. Node row `i` becomes
/// `act(combine(own.row(i), e_N) · w + bias)` with
/// `e_N = Σ_k weights[i·group + k] · children.row(i·group + k)`, where
/// `combine` is `own + e_N` against a `[dim, dim]` `w` under
/// [`FusedAggregation::SumSelf`] and `CONCAT(own, e_N)` against a
/// `[2·dim, dim]` `w` under [`FusedAggregation::SplitConcat`]. This is
/// the tape's `group_weighted_sum` → `add` or `concat_cols` → `matmul`
/// → `add_row` → activation: every element keeps each op's terms,
/// start values, order and zero-skips, with no FMA; only the
/// intermediate rows are gone. The plan and the activation are matched
/// once per call, and the rows run a body compiled for that pair. At
/// the packed width a node's whole update stays in registers and each
/// row is written once; other widths keep `e_N` and the combined row in
/// row-sized scratch.
#[allow(clippy::too_many_arguments)]
pub fn node_update(
    plan: FusedAggregation,
    own: Rows<'_>,
    children: Rows<'_>,
    weights: &[f32],
    group: usize,
    dim: usize,
    w: &[f32],
    bias: &[f32],
    act: Activation,
    out: &mut Vec<f32>,
) {
    assert!(group > 0 && dim > 0, "group and dim must be positive");
    let rows = own.len(dim);
    assert_eq!(weights.len(), rows * group, "one weight per child");
    assert_eq!(children.len(dim), weights.len(), "children rows must match weights");
    let w_rows = match plan {
        FusedAggregation::SumSelf => dim,
        FusedAggregation::SplitConcat => 2 * dim,
    };
    assert_eq!(w.len(), w_rows * dim, "weight length must be {w_rows} x dim");
    assert_eq!(bias.len(), dim, "bias length must be dim");
    out.clear();
    let node = Node { own, children, weights, group, w, bias };
    match plan {
        FusedAggregation::SumSelf => with_epilogue!(act, |e| node.update(combine::SumSelf, e, out)),
        FusedAggregation::SplitConcat => {
            with_epilogue!(act, |e| node.update(combine::SplitConcat, e, out))
        }
    }
}

/// The operands of one [`node_update`] call, its width that of `bias`.
#[derive(Clone, Copy)]
struct Node<'a> {
    own: Rows<'a>,
    children: Rows<'a>,
    weights: &'a [f32],
    group: usize,
    w: &'a [f32],
    bias: &'a [f32],
}

impl Node<'_> {
    /// Every row under the combine `C` and the epilogue `E`, appended
    /// to the empty `out`.
    fn update<C: Combine, E: Epilogue>(self, combine: C, epilogue: E, out: &mut Vec<f32>) {
        let Node { own, children, weights, group, w, bias } = self;
        let dim = bias.len();
        if dim == PACKED {
            out.reserve(weights.len() / group * PACKED);
            // resolve the row storage once, not per term
            let (isa, args) = (Isa::host(), (combine, epilogue, weights, group, w, bias));
            match (own, children) {
                (Rows::Dense(o), Rows::Dense(c)) => {
                    node_update_packed_in(isa, |r| packed(o, r), |r| packed(c, r), args, out)
                }
                (Rows::ById { table: ot, ids: oi }, Rows::ById { table: ct, ids: ci }) => {
                    let own = |r: usize| packed(ot, oi[r] as usize);
                    node_update_packed_in(isa, own, |r| packed(ct, ci[r] as usize), args, out)
                }
                _ => node_update_packed_in(
                    isa,
                    |r| packed(own.row(r, PACKED), 0),
                    |r| packed(children.row(r, PACKED), 0),
                    args,
                    out,
                ),
            }
            return;
        }
        out.resize(weights.len() / group * dim, 0.0);
        let (mut e_n, mut scratch) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        let finish = |c: usize, x: f32| E::lane(x + bias[c]);
        for (i, out_row) in out.chunks_exact_mut(dim).enumerate() {
            e_n.fill(0.0);
            let terms = (i * group..(i + 1) * group).map(|r| (weights[r], children.row(r, dim)));
            accumulate(terms, &mut e_n, |_, x| x);
            C::row(own.row(i, dim), &e_n, w, &mut scratch, out_row, finish);
        }
    }
}

/// [`node_update`] at the packed width, own row `i` read by `own(i)`
/// and child row `r` by `child(r)`, each row appended to `out`.
#[inline(always)]
fn node_update_packed<'o, 'c, C: Combine, E: Epilogue>(
    own: impl Fn(usize) -> &'o Packed,
    child: impl Fn(usize) -> &'c Packed,
    (_, _, weights, group, w, bias): NodeArgs<'_, C, E>,
    out: &mut Vec<f32>,
) {
    let bias = packed(bias, 0);
    for (i, ws) in weights.chunks_exact(group).enumerate() {
        let e_n = weighted_row(ws, i * group, &child);
        let mut acc = [0.0; PACKED];
        C::packed(&mut acc, own(i), &e_n, w);
        out.extend_from_slice(&finish_packed::<E>(&acc, bias));
    }
}

/// The combine, epilogue, weights, group, layer weight and bias of a
/// packed [`node_update`].
type NodeArgs<'a, C, E> = (C, E, &'a [f32], usize, &'a [f32], &'a [f32]);

packed_twins!(
    /// [`node_update_packed`] in the compilation `isa` names.
    fn node_update_packed_in['o, 'c, C: Combine, E: Epilogue](
        own: impl Fn(usize) -> &'o Packed,
        child: impl Fn(usize) -> &'c Packed,
        args: NodeArgs<'_, C, E>,
        out: &mut Vec<f32>,
    ) = node_update_packed
);

/// `out_row += a_row · w` — one row of the tape matmul, zero-skip
/// included (dropping it could turn a +0.0 sum into -0.0).
#[inline]
pub fn accumulate_row(a_row: &[f32], w: &[f32], d_out: usize, out_row: &mut [f32]) {
    accumulate_blocks(std::iter::once(a_row), w, d_out, out_row)
}

/// `out_row += CONCAT(blocks) · w` without the concatenation: block `q`
/// multiplies the `q`-th `[d_in, d_out]` slab of `w`, and every element
/// adds its terms in the concatenated row's k order — the
/// peer-influence tower's `W₂ · CONCAT(peers)` over per-slot blocks. All
/// blocks are `d_in` wide.
pub fn accumulate_blocks<'r, I>(blocks: I, w: &[f32], d_out: usize, out_row: &mut [f32])
where
    I: Iterator<Item = &'r [f32]> + Clone,
{
    assert!(d_out > 0, "d_out must be positive");
    assert_eq!(out_row.len(), d_out, "out_row length must be d_out");
    let d_in = blocks.clone().next().map_or(0, <[f32]>::len);
    assert!(blocks.clone().all(|b| b.len() == d_in), "blocks must be equally wide");
    assert_eq!(w.len(), blocks.clone().count() * d_in * d_out, "w must hold one slab a block");
    if d_in == 0 {
        return; // no terms
    }
    for (block, w) in blocks.zip(w.chunks_exact(d_in * d_out)) {
        accumulate(matmul_terms(block, w, d_out), out_row, |_, x| x);
    }
}

/// The peer-influence tower of Eq. 10 over `[b·l, dim]` member rows,
/// groups of `l` consecutive rows: member `j` of a group scores
/// `(relu(m_j · W₁ + CONCAT(peers of j) · W₂ + bias) · v) · scale`, its
/// peers the group's other members in ascending order, and the `b·l`
/// scores are appended to the cleared `out` in row order. `w1` is
/// `[dim, dim]`, `w2` `[(l−1)·dim, dim]`, `v` the `[dim, 1]` projection.
///
/// This is the tape's `peer_concat` → `matmul` twice → `add` →
/// `add_row` → `relu` → `matmul` → `scale`, each element in its terms'
/// k order from zero, zero terms skipped — a zero activation drops out
/// of the projection. `W₁·m` and `W₂·peers` keep separate accumulators
/// and are then added. Peer slots `0..j` of member `j` are members
/// `0..j`, the same for every later member, so a running prefix carries
/// their sum and member `j` adds only its slots `j..l−1`. At the packed
/// width the whole tower is one pass with every row in registers.
#[allow(clippy::too_many_arguments)]
pub fn peer_influence(
    members: &[f32],
    l: usize,
    dim: usize,
    w1: &[f32],
    w2: &[f32],
    bias: &[f32],
    v: &[f32],
    scale: f32,
    out: &mut Vec<f32>,
) {
    assert!(l >= 2 && dim > 0, "groups of at least two members, positive width");
    assert_eq!(members.len() % (l * dim), 0, "members must be whole groups");
    assert_eq!(w1.len(), dim * dim, "w1 length must be dim x dim");
    assert_eq!(w2.len(), (l - 1) * dim * dim, "w2 length must be (l - 1) dim x dim");
    assert_eq!(bias.len(), dim, "bias length must be dim");
    assert_eq!(v.len(), dim, "v length must be dim");
    out.clear();
    out.reserve(members.len() / dim);
    if dim == PACKED {
        peer_influence_packed_in(Isa::host(), members, l, w1, w2, bias, v, scale, out);
        return;
    }
    let slab = dim * dim;
    let (mut h1, mut h2, mut prefix) = (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
    let mut act = vec![0.0; dim];
    for group in members.chunks_exact(l * dim) {
        let member = |m: usize| &group[m * dim..(m + 1) * dim];
        prefix.fill(0.0);
        for j in 0..l {
            h1.fill(0.0);
            accumulate_row(member(j), w1, dim, &mut h1);
            h2.copy_from_slice(&prefix);
            accumulate_blocks((j + 1..l).map(member), &w2[j * slab..], dim, &mut h2);
            if j + 1 < l {
                accumulate_row(member(j), &w2[j * slab..(j + 1) * slab], dim, &mut prefix);
            }
            for (c, a) in act.iter_mut().enumerate() {
                *a = (h1[c] + h2[c] + bias[c]).max(0.0);
            }
            out.push(project(&act, v) * scale);
        }
    }
}

/// `act · v` for a `[dim, 1]` projection `v`: one term a row of `v`,
/// in k order from zero, zero activations skipped.
#[inline(always)]
fn project(act: &[f32], v: &[f32]) -> f32 {
    let mut raw = 0.0;
    for (&a, &x) in act.iter().zip(v) {
        if a != 0.0 {
            raw += a * x;
        }
    }
    raw
}

/// [`peer_influence`] at the packed width, in one pass.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn peer_influence_packed(
    members: &[f32],
    l: usize,
    w1: &[f32],
    w2: &[f32],
    bias: &[f32],
    v: &[f32],
    scale: f32,
    out: &mut Vec<f32>,
) {
    const SLAB: usize = PACKED * PACKED;
    let (bias, v) = (packed(bias, 0), packed(v, 0));
    for group in members.chunks_exact(l * PACKED) {
        let mut prefix = [0.0; PACKED];
        for j in 0..l {
            let m = packed(group, j);
            let mut h1 = [0.0; PACKED];
            axpy_block(&mut h1, m, w1);
            let mut h2 = prefix;
            for p in j + 1..l {
                axpy_block(&mut h2, packed(group, p), &w2[(p - 1) * SLAB..]);
            }
            if j + 1 < l {
                axpy_block(&mut prefix, m, &w2[j * SLAB..]);
            }
            let act: Packed = std::array::from_fn(|c| (h1[c] + h2[c] + bias[c]).max(0.0));
            out.push(project(&act, v) * scale);
        }
    }
}

packed_twins!(
    /// [`peer_influence_packed`] in the compilation `isa` names.
    fn peer_influence_packed_in[](
        members: &[f32],
        l: usize,
        w1: &[f32],
        w2: &[f32],
        bias: &[f32],
        v: &[f32],
        scale: f32,
        out: &mut Vec<f32>,
    ) = peer_influence_packed
);

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
    use crate::rng::SplitMix64;
    use crate::{Tape, Tensor};

    #[test]
    fn logit_memo_shares_query_rows_and_counts_distinct_dots() {
        let relation = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut memo = LogitMemo::default();
        let mut logits = Vec::new();
        // each query row's edges of two levels, as one row owns them
        for (q, ids) in [([2.0, 3.0], [0, 1, 2, 2, 0, 1]), ([4.0, 5.0], [2, 0, 1, 1, 0, 0])] {
            memo.start_set();
            let index = ids.map(|r| memo.intern(r));
            assert!(memo.row(&q, &relation, 1.0, 0));
            logits.extend(index.map(|j| memo.logits()[j as usize]));
        }
        assert_eq!(logits, [2.0, 3.0, 5.0, 5.0, 2.0, 3.0, 9.0, 4.0, 5.0, 5.0, 4.0, 4.0]);
        assert_eq!(memo.dots, 3 + 3, "one dot per distinct relation per query row");
    }

    #[test]
    fn a_row_stops_at_its_first_non_finite_checked_logit() {
        let relation = [1.0, 0.0, f32::INFINITY, 0.0, 0.0, 1.0];
        let mut memo = LogitMemo::default();
        memo.start_set();
        assert_eq!([2, 1, 0].map(|r| memo.intern(r)), [0, 1, 2]);
        assert!(!memo.row(&[1.0, 1.0], &relation, 1.0, 2), "relation 1's logit is +inf");
        assert_eq!(memo.dots, 2, "the row stops at the first non-finite checked logit");
        assert!(memo.row(&[1.0, 1.0], &relation, 1.0, 0), "nothing checked");
        assert_eq!(memo.dots, 5);
    }

    #[test]
    fn memos_drop_the_previous_set_and_row() {
        let relation = [1.0, 2.0, 3.0, 4.0];
        let mut logits = LogitMemo::default();
        logits.start_set();
        assert_eq!(logits.intern(1), 0);
        logits.start_set();
        assert_eq!([0, 1].map(|r| logits.intern(r)), [0, 1], "a new set numbers afresh");
        assert!(logits.row(&[1.0, 1.0], &relation, 0.5, 2));
        assert_eq!(logits.logits(), [1.5, 3.5]);
        logits.start_set();
        logits.intern(0);
        assert!(logits.logits().is_empty(), "a new set reads no logit before its first row");
        let mut exps = ExpMemo::default();
        let mut block = [0.0; 2];
        exps.next_row(2);
        exps.softmax(&[0.0, 0.0], &[0, 1], &mut block);
        assert_eq!(block, [0.5, 0.5]);
        exps.next_row(2);
        exps.softmax(&[0.0, f32::NEG_INFINITY], &[0, 1], &mut block);
        assert_eq!(block, [1.0, 0.0], "no exp of the previous row survives");
        assert_eq!(exps.exps, 4);
        // each row is ranked afresh: the second ranks its relations the
        // other way round
        let ids: Vec<u32> = (0..8).collect();
        let up: Vec<f32> = (0..8).map(|j| j as f32).collect();
        for row in [up.clone(), up.iter().rev().copied().collect()] {
            let mut block = [0.0; 8];
            exps.next_row(8);
            exps.softmax(&row, &ids, &mut block);
            let mut want = row.clone();
            softmax_inplace(&mut want);
            let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            assert_eq!(block.map(f32::to_bits)[..], want, "no rank survives its row");
        }
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
        // reference: the tape's concat, matmul and bias row
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let ta = tape.constant(Tensor::from_vec(rows, d, a.clone()));
        let tb = tape.constant(Tensor::from_vec(rows, d, b.clone()));
        let cat = tape.concat_cols(ta, tb);
        let w = tape.constant(Tensor::from_vec(2 * d, d, [w_a, w_b].concat()));
        let pre = tape.matmul(cat, w);
        let bias = tape.constant(Tensor::from_vec(1, d, bias.to_vec()));
        let out = tape.add_row(pre, bias);
        let reference = tape.value(out).data();
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

    /// Draws in `[-2, 2)`, one in `one_in` replaced by ±0, a subnormal,
    /// ±∞ or a NaN with a payload.
    fn spiky(rng: &mut SplitMix64, n: usize, one_in: usize) -> Vec<f32> {
        const SPECIAL: [u32; 10] = [
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // the smallest subnormal
            0x807f_fff0, // a negative subnormal
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x7fc0_1234, // quiet NaN with a payload
            0xffc0_0042, // negative quiet NaN with a payload
            0x7f80_0c01, // signalling NaN with a payload
            0xff81_2345, // negative signalling NaN
        ];
        (0..n)
            .map(|_| match rng.next_below(one_in) {
                0 => f32::from_bits(SPECIAL[rng.next_below(SPECIAL.len())]),
                _ => rng.next_f32() * 4.0 - 2.0,
            })
            .collect()
    }

    /// Bit patterns, with every NaN mapped to one canonical NaN. Where
    /// both operands of an add are NaN, IEEE 754 leaves which payload
    /// survives to the hardware operand order, and register allocation
    /// picks that order per compilation: it is the one thing the twins
    /// may differ in. Every other bit, signed zeros included, is equal.
    fn to_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// `run` in the baseline and, where the host has it, the AVX2
    /// compilation gives the same bits. Returns the number of finite
    /// outputs.
    fn twins_agree(kernel: &str, run: impl Fn(Isa) -> Vec<f32>) -> usize {
        let base = run(Isa::BASELINE);
        if let Some(avx2) = Isa::avx2() {
            assert_eq!(to_bits(&run(avx2)), to_bits(&base), "{kernel}: AVX2 twin differs");
        }
        base.iter().filter(|x| x.is_finite()).count()
    }

    #[test]
    fn packed_twins_agree_bit_for_bit() {
        const D: usize = PACKED;
        if Isa::avx2().is_none() {
            println!("the host has no AVX2; only the baseline compilation runs");
        }
        let mut rng = SplitMix64::new(0xa5a2);
        let (mut finite, mut total) = (0, 0);
        for round in 0..64 {
            // from one special value in 3 (most rows non-finite) to one
            // in 51 (most rows finite, through every tanh path)
            let (rows, group, one_in) = (1 + round % 5, 1 + round % 8, 3 + round % 4 * 16);
            let own = spiky(&mut rng, rows * D, one_in);
            let children = spiky(&mut rng, rows * group * D, one_in);
            let ids: Vec<u32> = (0..rows * group).map(|_| rng.next_below(rows) as u32).collect();
            let mut weights = spiky(&mut rng, rows * group, one_in);
            weights.iter_mut().step_by(3).for_each(|x| *x = 0.0);
            let w = spiky(&mut rng, 2 * D * D, one_in);
            let bias = spiky(&mut rng, D, one_in);
            for act in [Activation::None, Activation::Relu, Activation::Tanh] {
                total += rows * D;
                finite += twins_agree("matmul2_packed", |isa| {
                    let mut out = Vec::new();
                    let a = Rows::ById { table: &own, ids: &ids[..rows] };
                    let ((w_a, w_b), b) = (w.split_at(D * D), &children[..rows * D]);
                    with_epilogue!(act, |e| matmul2_packed_in(
                        isa, e, a, b, w_a, w_b, &bias, &mut out
                    ));
                    out
                });
                // every (plan, activation) arm of the node update
                let own = |r: usize| packed(&own, r);
                let child = |r: usize| packed(&children, ids[r] as usize);
                let (weights, bias) = (&weights[..], &bias[..]);
                total += 2 * rows * D;
                finite += twins_agree("node_update_packed SumSelf", |isa| {
                    let mut out = Vec::new();
                    let w = &w[..D * D];
                    with_epilogue!(act, |e| {
                        let args = (combine::SumSelf, e, weights, group, w, bias);
                        node_update_packed_in(isa, own, child, args, &mut out)
                    });
                    out
                });
                finite += twins_agree("node_update_packed SplitConcat", |isa| {
                    let mut out = Vec::new();
                    with_epilogue!(act, |e| {
                        let args = (combine::SplitConcat, e, weights, group, &w[..], bias);
                        node_update_packed_in(isa, own, child, args, &mut out)
                    });
                    out
                });
            }
            twins_agree("weighted_sum_packed", |isa| {
                let mut out = vec![0.0; rows * D];
                weighted_sum_packed_in(isa, &weights, group, |r| packed(&children, r), &mut out);
                out
            });
            // the PI tower at every group size 2..=9; the ReLU's zeros
            // are the activations the projection skips
            let l = 2 + round % 8;
            let members = spiky(&mut rng, rows * l * D, one_in);
            let w2 = spiky(&mut rng, (l - 1) * D * D, one_in);
            let v = spiky(&mut rng, D, one_in);
            twins_agree("peer_influence_packed", |isa| {
                let mut out = Vec::new();
                let (w1, scale) = (&w[..D * D], 0.25);
                peer_influence_packed_in(isa, &members, l, w1, &w2, &bias, &v, scale, &mut out);
                out
            });
        }
        // the sparse rounds reach finite rows, and so every tanh path
        assert!(finite * 4 > total, "only {finite} of {total} outputs finite");
    }
}
