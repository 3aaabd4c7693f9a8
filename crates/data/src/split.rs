//! Train/validation/test splitting and negative sampling.
//!
//! The paper splits each dataset 60/20/20 (§IV-B). Group–item
//! interactions are split *per group* so every group keeps a share of
//! its positives in each bucket; groups with a single positive are
//! assigned to one bucket at the split ratios.

use crate::dataset::GroupDataset;
use crate::interactions::Interactions;
use kgag_tensor::rng::{derive_seed, SplitMix64};
use std::collections::HashSet;

/// A 60/20/20-style split of group–item positives.
#[derive(Clone, Debug)]
pub struct GroupSplit {
    /// Training pairs `(group, item)`.
    pub train: Vec<(u32, u32)>,
    /// Validation pairs.
    pub val: Vec<(u32, u32)>,
    /// Test pairs.
    pub test: Vec<(u32, u32)>,
    train_by_group: Vec<Vec<u32>>,
    val_by_group: Vec<Vec<u32>>,
    test_by_group: Vec<Vec<u32>>,
}

impl GroupSplit {
    /// Training positives of one group (sorted).
    pub fn train_items(&self, group: u32) -> &[u32] {
        &self.train_by_group[group as usize]
    }

    /// Validation positives of one group (sorted).
    pub fn val_items(&self, group: u32) -> &[u32] {
        &self.val_by_group[group as usize]
    }

    /// Test positives of one group (sorted).
    pub fn test_items(&self, group: u32) -> &[u32] {
        &self.test_by_group[group as usize]
    }

    /// Number of groups covered.
    pub fn num_groups(&self) -> usize {
        self.train_by_group.len()
    }
}

/// Split group positives per group at `(train, val)` ratios (the rest is
/// test). Deterministic given the seed.
pub fn split_group_interactions(
    group_pos: &Interactions,
    ratios: (f64, f64),
    seed: u64,
) -> GroupSplit {
    let (tr, va) = ratios;
    assert!(tr > 0.0 && va >= 0.0 && tr + va < 1.0, "bad split ratios ({tr}, {va})");
    let mut rng = SplitMix64::new(derive_seed(seed, "group-split"));
    let n_groups = group_pos.num_users() as usize;
    let mut split = GroupSplit {
        train: Vec::new(),
        val: Vec::new(),
        test: Vec::new(),
        train_by_group: vec![Vec::new(); n_groups],
        val_by_group: vec![Vec::new(); n_groups],
        test_by_group: vec![Vec::new(); n_groups],
    };
    for g in 0..n_groups as u32 {
        let mut items: Vec<u32> = group_pos.items_of(g).to_vec();
        rng.shuffle(&mut items);
        let n = items.len();
        if n == 0 {
            continue; // group without positives: nothing to split
        }
        let (n_tr, n_va) = apportion(n, tr, va, &mut rng);
        for (idx, &v) in items.iter().enumerate() {
            if idx < n_tr {
                split.train.push((g, v));
                split.train_by_group[g as usize].push(v);
            } else if idx < n_tr + n_va {
                split.val.push((g, v));
                split.val_by_group[g as usize].push(v);
            } else {
                split.test.push((g, v));
                split.test_by_group[g as usize].push(v);
            }
        }
    }
    for rows in [&mut split.train_by_group, &mut split.val_by_group, &mut split.test_by_group] {
        for row in rows.iter_mut() {
            row.sort_unstable();
        }
    }
    split
}

/// Largest-remainder (Hamilton) apportionment of `n` positives over the
/// `(train, val, test)` ratios; returns `(n_tr, n_va)` (test takes the
/// rest).
///
/// Independent per-bucket rounding — the previous scheme — starves the
/// smallest bucket at small `n`: at `(0.6, 0.2)` and `n = 3`,
/// `round(1.8) = 2` and `round(0.6) = 1` leave test with 0 items *every
/// time*, even though 20% of the mass belongs to it. Here every bucket
/// first gets the floor of its exact quota `n·ratio`, then the leftover
/// seats (at most two) go to buckets chosen by *systematic sampling over
/// the fractional remainders*: one uniform draw `u` places `seats`
/// equally spaced thresholds on the cumulative remainder scale, and a
/// bucket wins a seat per threshold landing in its interval. Each
/// remainder is `< 1`, so no bucket gains more than one seat, which
/// pins every count to `⌊n·ratio⌋` or `⌈n·ratio⌉` (within ±1 of the
/// exact quota) — and `P(extra seat) = remainder` makes the *expected*
/// count exactly `n·ratio`, so the aggregate over many groups converges
/// to the nominal 60/20/20 regardless of the group-size mix. Groups
/// with `n ≥ 2` additionally always keep a training item (a seat is
/// reclaimed from the fullest other bucket in the degenerate-ratio
/// corner where `⌊n·train⌋ = 0`).
fn apportion(n: usize, tr: f64, va: f64, rng: &mut SplitMix64) -> (usize, usize) {
    let quotas = [n as f64 * tr, n as f64 * va, n as f64 * (1.0 - tr - va)];
    let mut counts = [0usize; 3];
    let mut rem = [0f64; 3];
    for i in 0..3 {
        counts[i] = quotas[i].floor() as usize;
        rem[i] = quotas[i] - counts[i] as f64;
    }
    let seats = n - counts.iter().sum::<usize>();
    if seats > 0 {
        // systematic sampling: thresholds u + k for k in 0..seats on the
        // cumulative remainder scale (rescaled so the total is exactly
        // `seats` despite floating-point dust in the remainders)
        let total: f64 = rem.iter().sum();
        let u = rng.next_f64();
        let mut cum = 0.0;
        let mut next = 0usize; // next threshold index to place
        for i in 0..3 {
            cum += rem[i] * seats as f64 / total;
            while next < seats && (u + next as f64) < cum {
                counts[i] += 1;
                next += 1;
            }
        }
        // numeric safety net: any threshold lost to rounding goes to the
        // largest remainder
        while next < seats {
            let i = (0..3).max_by(|&a, &b| rem[a].total_cmp(&rem[b])).unwrap();
            counts[i] += 1;
            next += 1;
        }
    }
    // a group with 2+ positives must stay learnable: train keeps a seat
    if n >= 2 && counts[0] == 0 {
        let donor = if counts[1] >= counts[2] { 1 } else { 2 };
        counts[donor] -= 1;
        counts[0] = 1;
    }
    (counts[0], counts[1])
}

/// Everything a trainer needs: the group split plus the user–item
/// training interactions (the paper feeds `Y^U` as the auxiliary loss).
#[derive(Clone, Debug)]
pub struct DatasetSplit {
    /// Group–item split.
    pub group: GroupSplit,
    /// User–item positives available for the auxiliary user loss and the
    /// collaborative KG.
    pub user_train: Interactions,
}

/// Split a [`GroupDataset`] with the paper's 60/20/20 protocol.
///
/// The user–item matrix handed to trainers is *leakage-filtered*: for
/// every held-out (validation/test) pair `(g, v)`, the interactions of
/// `g`'s members with `v` are removed. Members of a group typically
/// interacted with the items their group selected (they attended), so
/// without this filter the individual towers of every model can read
/// held-out group decisions straight out of `Y^U`. At the paper's scale
/// the group-derived share of `Y^U` is negligible; at laptop scale it
/// is not, and the filter restores the paper's regime.
pub fn split_dataset(ds: &GroupDataset, seed: u64) -> DatasetSplit {
    let group = split_group_interactions(&ds.group_pos, (0.6, 0.2), seed);
    let mut blocked: HashSet<(u32, u32)> = HashSet::new();
    for &(g, v) in group.val.iter().chain(&group.test) {
        for &m in ds.members(g) {
            blocked.insert((m, v));
        }
    }
    let mut user_train = Interactions::new(ds.num_users, ds.num_items);
    for (u, v) in ds.user_pos.pairs() {
        if !blocked.contains(&(u, v)) {
            user_train.insert(u, v);
        }
    }
    DatasetSplit { group, user_train }
}

/// Uniform negative sampler over items, rejecting known positives.
#[derive(Clone, Debug)]
pub struct NegativeSampler {
    known: HashSet<(u32, u32)>,
    num_items: u32,
}

impl NegativeSampler {
    /// Build from all known positive `(row, item)` pairs (train *and*
    /// held-out, so negatives are true negatives).
    pub fn new(known: impl IntoIterator<Item = (u32, u32)>, num_items: u32) -> Self {
        assert!(num_items > 0, "cannot sample from an empty catalog");
        NegativeSampler { known: known.into_iter().collect(), num_items }
    }

    /// Build from an [`Interactions`] matrix.
    pub fn from_interactions(y: &Interactions) -> Self {
        Self::new(y.pairs(), y.num_items())
    }

    /// Sample one item not positively associated with `row`, or `None`
    /// when the row is positive on the entire catalog.
    ///
    /// Rejection-samples uniformly; after 100 rejections (only possible
    /// when the row is positive on nearly the whole catalog) it switches
    /// to a deterministic scan from one more uniformly drawn start
    /// position and returns the first true negative. An earlier version
    /// instead returned the 101st draw *unchecked*, so dense rows could
    /// silently hand a known positive to the pairwise margin loss
    /// (Eq. 17) or the eval candidate sets; the scan closes that hole —
    /// the result is never a known positive — at the price of a mild
    /// ordering bias that only the dense-row fallback regime pays.
    pub fn try_sample(&self, row: u32, rng: &mut SplitMix64) -> Option<u32> {
        for _ in 0..100 {
            let v = rng.next_below(self.num_items as usize) as u32;
            if !self.known.contains(&(row, v)) {
                return Some(v);
            }
        }
        let start = rng.next_below(self.num_items as usize) as u32;
        (0..self.num_items)
            .map(|off| {
                let v = start + off;
                if v >= self.num_items {
                    v - self.num_items
                } else {
                    v
                }
            })
            .find(|&v| !self.known.contains(&(row, v)))
    }

    /// Sample one item not positively associated with `row`.
    ///
    /// Same contract as [`NegativeSampler::try_sample`] — the result is
    /// *never* a known positive.
    ///
    /// # Panics
    /// Panics when `row` is positive on the entire catalog (no negative
    /// exists); use [`NegativeSampler::try_sample`] to handle that case
    /// explicitly.
    pub fn sample(&self, row: u32, rng: &mut SplitMix64) -> u32 {
        self.try_sample(row, rng).unwrap_or_else(|| {
            panic!("row {row} is positive on all {} items: no negative exists", self.num_items)
        })
    }

    /// True when `(row, item)` is a known positive.
    pub fn is_positive(&self, row: u32, item: u32) -> bool {
        self.known.contains(&(row, item))
    }
}

/// The training data of every trained model (§IV-D), in one RNG order:
/// each epoch shuffles the group pairs, then reshuffles and restarts the
/// user pairs; each batch samples a negative per group pair (rejected
/// against train ∪ val), then draws `user_batch_size / 2` user pairs,
/// each followed by a negative rejected against `user_train`.
pub struct TrainBatches {
    rng: SplitMix64,
    group_neg: NegativeSampler,
    user_neg: NegativeSampler,
    group_pairs: Vec<(u32, u32)>,
    user_pairs: PairCycler,
    batch_size: usize,
    user_draws: usize,
    epoch: usize,
}

/// One training step's instances, as [`TrainBatches`] draws them.
#[derive(Clone, Debug, Default)]
pub struct TrainBatch {
    /// The epoch, from 0.
    pub epoch: usize,
    /// The batch's index in its epoch.
    pub index: usize,
    /// Each group instance's group.
    pub groups: Vec<u32>,
    /// Each group instance's positive item.
    pub positives: Vec<u32>,
    /// Each group instance's sampled negative item.
    pub negatives: Vec<u32>,
    /// Each user instance's user: a drawn pair `(u, v⁺)`, then `(u, v⁻)`.
    pub users: Vec<u32>,
    /// Each user instance's item.
    pub items: Vec<u32>,
    /// Each user instance's label: 1 for `v⁺`, 0 for `v⁻`.
    pub labels: Vec<f32>,
}

impl TrainBatches {
    /// The batches of `split` on the RNG stream `seed`.
    ///
    /// # Panics
    /// Panics when the split has no group or no user training pairs.
    pub fn new(split: &DatasetSplit, seed: u64, batch_size: usize, user_batch_size: usize) -> Self {
        assert!(!split.group.train.is_empty(), "no group training data");
        let group_known = split.group.train.iter().chain(&split.group.val).copied();
        TrainBatches {
            rng: SplitMix64::new(seed),
            group_neg: NegativeSampler::new(group_known, split.user_train.num_items()),
            user_neg: NegativeSampler::from_interactions(&split.user_train),
            group_pairs: split.group.train.clone(),
            user_pairs: PairCycler::new(split.user_train.pairs()),
            batch_size,
            user_draws: user_batch_size / 2,
            epoch: 0,
        }
    }

    /// Start the next epoch and return its batches in order.
    pub fn epoch(&mut self) -> impl Iterator<Item = TrainBatch> + '_ {
        let (epoch, batch_size, user_draws) = (self.epoch, self.batch_size, self.user_draws);
        self.epoch += 1;
        self.rng.shuffle(&mut self.group_pairs);
        self.user_pairs.start_epoch(&mut self.rng);
        let TrainBatches { rng, group_neg, user_neg, group_pairs, user_pairs, .. } = self;
        group_pairs.chunks(batch_size).enumerate().map(move |(index, chunk)| {
            let mut batch = TrainBatch { epoch, index, ..TrainBatch::default() };
            for &(g, v) in chunk {
                batch.groups.push(g);
                batch.positives.push(v);
                batch.negatives.push(group_neg.sample(g, rng));
            }
            for _ in 0..user_draws {
                let (u, v) = user_pairs.next();
                let negative = user_neg.sample(u, rng);
                batch.users.extend([u, u]);
                batch.items.extend([v, negative]);
                batch.labels.extend([1.0, 0.0]);
            }
            batch
        })
    }
}

/// Cycles through training pairs, reshuffled and restarted at every
/// epoch boundary.
///
/// An earlier version kept a single cursor running *across* epochs while
/// reshuffling the underlying list each epoch. Whenever an epoch drew a
/// non-multiple of `len` pairs, the next epoch resumed mid-list over a
/// freshly shuffled order, so within one pass some pairs were visited
/// twice and others not at all — a sampling bias toward an RNG-dependent
/// subset of the user interactions. Resetting the cursor together with
/// the shuffle restores the guarantee that every full pass visits each
/// pair exactly once (wrap-around only happens when a single epoch needs
/// more draws than the list holds).
struct PairCycler {
    pairs: Vec<(u32, u32)>,
    cursor: usize,
}

impl PairCycler {
    /// # Panics
    /// Panics when `pairs` is empty.
    fn new(pairs: Vec<(u32, u32)>) -> Self {
        assert!(!pairs.is_empty(), "no training pairs to cycle");
        PairCycler { pairs, cursor: 0 }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Reshuffle and restart from the top of the list.
    fn start_epoch(&mut self, rng: &mut SplitMix64) {
        rng.shuffle(&mut self.pairs);
        self.cursor = 0;
    }

    fn next(&mut self) -> (u32, u32) {
        let pair = self.pairs[self.cursor % self.pairs.len()];
        self.cursor += 1;
        pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_pos() -> Interactions {
        let mut y = Interactions::new(3, 20);
        for v in 0..10 {
            y.insert(0, v);
        }
        for v in 0..5 {
            y.insert(1, v);
        }
        y.insert(2, 7);
        y
    }

    #[test]
    fn ratios_are_respected_per_group() {
        let split = split_group_interactions(&toy_pos(), (0.6, 0.2), 1);
        assert_eq!(split.train_items(0).len(), 6);
        assert_eq!(split.val_items(0).len(), 2);
        assert_eq!(split.test_items(0).len(), 2);
        assert_eq!(split.train_items(1).len(), 3);
        // group 2 has a single positive: exactly one bucket holds it
        let total2 =
            split.train_items(2).len() + split.val_items(2).len() + split.test_items(2).len();
        assert_eq!(total2, 1);
    }

    #[test]
    fn buckets_partition_the_positives() {
        let pos = toy_pos();
        let split = split_group_interactions(&pos, (0.6, 0.2), 9);
        let mut all: Vec<(u32, u32)> =
            split.train.iter().chain(&split.val).chain(&split.test).copied().collect();
        all.sort_unstable();
        let mut expected = pos.pairs();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn every_multi_positive_group_keeps_a_training_item() {
        let split = split_group_interactions(&toy_pos(), (0.6, 0.2), 5);
        for g in [0u32, 1] {
            assert!(!split.train_items(g).is_empty());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pos = toy_pos();
        let a = split_group_interactions(&pos, (0.6, 0.2), 3);
        let b = split_group_interactions(&pos, (0.6, 0.2), 3);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn negative_sampler_avoids_positives() {
        let y = toy_pos();
        let sampler = NegativeSampler::from_interactions(&y);
        let mut rng = SplitMix64::new(2);
        for _ in 0..200 {
            let v = sampler.sample(0, &mut rng);
            assert!(!y.contains(0, v), "sampled positive {v}");
        }
        assert!(sampler.is_positive(2, 7));
        assert!(!sampler.is_positive(2, 8));
    }

    #[test]
    #[should_panic(expected = "bad split ratios")]
    fn bad_ratios_panic() {
        split_group_interactions(&toy_pos(), (0.9, 0.2), 0);
    }

    /// Regression for the silent false-negative fallback: a row positive
    /// on all but one item forces the rejection loop to give up on most
    /// draws, and the old code then returned an *unchecked* uniform draw
    /// — a known positive with probability (n−1)/n. The deterministic
    /// scan must always land on the single true negative.
    #[test]
    fn dense_row_fallback_returns_the_only_negative() {
        let num_items = 1000u32;
        let only_negative = 777u32;
        let known = (0..num_items).filter(|&v| v != only_negative).map(|v| (0u32, v));
        let sampler = NegativeSampler::new(known, num_items);
        let mut rng = SplitMix64::new(0xfa11_bacc);
        for call in 0..200 {
            let v = sampler.sample(0, &mut rng);
            assert_eq!(v, only_negative, "call {call} returned known positive {v}");
        }
    }

    #[test]
    fn try_sample_is_none_when_row_covers_the_catalog() {
        let sampler = NegativeSampler::new((0..20).map(|v| (3u32, v)), 20);
        let mut rng = SplitMix64::new(1);
        assert_eq!(sampler.try_sample(3, &mut rng), None);
        // other rows still have the whole catalog available
        assert!(sampler.try_sample(0, &mut rng).is_some());
    }

    #[test]
    #[should_panic(expected = "no negative exists")]
    fn sample_panics_when_row_covers_the_catalog() {
        let sampler = NegativeSampler::new((0..5).map(|v| (0u32, v)), 5);
        let mut rng = SplitMix64::new(2);
        sampler.sample(0, &mut rng);
    }

    /// The small-`n` starvation regression: at `(0.6, 0.2)` and `n = 3`
    /// the old per-bucket rounding gave test 0 items on *every* seed.
    /// Largest-remainder assignment must keep every count within ±1 of
    /// its exact quota, always leave train ≥ 1, and give test its 20%
    /// mass over many seeds.
    #[test]
    fn apportion_small_n_within_one_of_quota_and_test_not_starved() {
        for n in 2..=6usize {
            let mut test_total = 0usize;
            for seed in 0..400u64 {
                let mut rng = SplitMix64::new(seed);
                let (n_tr, n_va) = apportion(n, 0.6, 0.2, &mut rng);
                let n_te = n - n_tr - n_va;
                assert!(n_tr >= 1, "n={n} seed={seed}: train starved");
                for (count, ratio, name) in
                    [(n_tr, 0.6, "train"), (n_va, 0.2, "val"), (n_te, 0.2, "test")]
                {
                    let quota = n as f64 * ratio;
                    assert!(
                        (count as f64 - quota).abs() <= 1.0,
                        "n={n} seed={seed}: {name} count {count} vs quota {quota}"
                    );
                }
                test_total += n_te;
            }
            assert!(test_total > 0, "n={n}: test bucket starved across 400 seeds");
        }
    }

    /// Aggregate mass over many groups of mixed sizes converges to the
    /// nominal 60/20/20 (the unbiasedness of systematic remainder
    /// sampling) — the check the ISSUE pins at 2%.
    #[test]
    fn aggregate_split_mass_tracks_ratios_within_two_percent() {
        let mut y = Interactions::new(600, 40);
        let mut total = 0usize;
        for g in 0..600u32 {
            let n = 1 + (g as usize % 9);
            for v in 0..n as u32 {
                y.insert(g, v);
            }
            total += n;
        }
        let split = split_group_interactions(&y, (0.6, 0.2), 0xa55);
        let frac = |part: usize| part as f64 / total as f64;
        assert!((frac(split.train.len()) - 0.6).abs() < 0.02, "train {}", frac(split.train.len()));
        assert!((frac(split.val.len()) - 0.2).abs() < 0.02, "val {}", frac(split.val.len()));
        assert!((frac(split.test.len()) - 0.2).abs() < 0.02, "test {}", frac(split.test.len()));
    }

    /// Every epoch's batches cover the group training pairs once, in
    /// batch order, each with a true negative; each user instance pair
    /// is a training positive labelled 1, then a true negative of the
    /// same user labelled 0.
    #[test]
    fn train_batches_cover_each_epoch_with_true_negatives() {
        let split = DatasetSplit {
            group: split_group_interactions(&toy_pos(), (0.6, 0.2), 1),
            user_train: toy_pos(),
        };
        let group_known: HashSet<(u32, u32)> =
            split.group.train.iter().chain(&split.group.val).copied().collect();
        let mut want = split.group.train.clone();
        want.sort_unstable();
        let mut batches = TrainBatches::new(&split, 7, 4, 6);
        for epoch in 0..3 {
            let mut seen = Vec::new();
            for (index, b) in batches.epoch().enumerate() {
                assert_eq!((b.epoch, b.index), (epoch, index));
                for ((&g, &v), &n) in b.groups.iter().zip(&b.positives).zip(&b.negatives) {
                    assert!(!group_known.contains(&(g, n)), "group {g}: negative {n}");
                    seen.push((g, v));
                }
                assert_eq!(b.labels, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
                for (u, v) in b.users.chunks(2).zip(b.items.chunks(2)) {
                    assert_eq!(u[0], u[1]);
                    assert!(split.user_train.contains(u[0], v[0]));
                    assert!(!split.user_train.contains(u[0], v[1]));
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, want, "epoch {epoch}: every group pair once");
        }
    }

    /// Regression for the cross-epoch cursor bug: with the cursor
    /// persisting across per-epoch reshuffles, a pass over `len` draws
    /// could visit some pairs twice and miss others. Every full pass must
    /// be a permutation of the pair list, no matter where the previous
    /// epoch left off.
    #[test]
    fn pair_cycler_visits_every_pair_once_per_pass() {
        let pairs: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 100)).collect();
        let mut want = pairs.clone();
        want.sort_unstable();
        let mut cycle = PairCycler::new(pairs);
        let mut rng = SplitMix64::new(42);
        for epoch in 0..5 {
            cycle.start_epoch(&mut rng);
            let mut seen: Vec<(u32, u32)> = (0..cycle.len()).map(|_| cycle.next()).collect();
            seen.sort_unstable();
            assert_eq!(seen, want, "epoch {epoch}: full pass must be a permutation");
            // leave the cursor mid-list, like an epoch whose draw count
            // is not a multiple of the pair count
            for _ in 0..3 {
                cycle.next();
            }
        }
    }

    #[test]
    fn pair_cycler_wraps_within_one_epoch() {
        let mut cycle = PairCycler::new(vec![(1, 2), (3, 4)]);
        let mut rng = SplitMix64::new(7);
        cycle.start_epoch(&mut rng);
        let draws: Vec<(u32, u32)> = (0..6).map(|_| cycle.next()).collect();
        // wrap-around repeats the same shuffled order, so each pair shows
        // up exactly three times in six draws
        assert_eq!(draws.iter().filter(|&&p| p == (1, 2)).count(), 3);
        assert_eq!(draws.iter().filter(|&&p| p == (3, 4)).count(), 3);
    }

    #[test]
    #[should_panic(expected = "no training pairs")]
    fn pair_cycler_rejects_empty_input() {
        PairCycler::new(Vec::new());
    }
}
