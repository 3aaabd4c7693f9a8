//! Property-based tests of the data substrate: splits partition, the
//! negative sampler rejects positives, quorum semantics, PCC bounds, and
//! the memoised PCC group formation against its plain reference.

use kgag_data::groups::{
    quorum_positives, raters_by_item, similar_member_sets, unanimous_positives,
};
use kgag_data::interactions::{Interactions, RatingTable};
use kgag_data::similarity::{pearson, MIN_OVERLAP};
use kgag_data::split::{split_group_interactions, NegativeSampler};
use kgag_tensor::rng::SplitMix64;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{choice, u32_in, u64_in, usize_in, vec_of, IntGen, VecGen};
use kgag_testkit::{prop_assert, prop_assert_eq};
use std::collections::HashSet;

/// Raw pairs for a random interaction matrix (shrinking operates on the
/// plain pair list; the matrix is built inside the property body).
fn pairs_gen() -> VecGen<(IntGen<u32>, IntGen<u32>)> {
    vec_of((u32_in(0..8), u32_in(0..30)), 1..80)
}

fn interactions(pairs: &[(u32, u32)]) -> Interactions {
    let mut y = Interactions::new(8, 30);
    for &(u, v) in pairs {
        y.insert(u, v);
    }
    y
}

/// Raw triples for a random rating table.
fn ratings_gen() -> VecGen<(IntGen<u32>, IntGen<u32>, IntGen<u32>)> {
    vec_of((u32_in(0..6), u32_in(0..20), u32_in(1..6)), 1..80)
}

fn ratings(trip: &[(u32, u32, u32)]) -> RatingTable {
    let mut t = RatingTable::new(6, 20);
    for &(u, v, r) in trip {
        t.set(u, v, r as f32);
    }
    t
}

fn check_split_partitions(y: &Interactions, seed: u64) -> Result<(), String> {
    let split = split_group_interactions(y, (0.6, 0.2), seed);
    let mut got: Vec<(u32, u32)> =
        split.train.iter().chain(&split.val).chain(&split.test).copied().collect();
    got.sort_unstable();
    let mut expect = y.pairs();
    expect.sort_unstable();
    prop_assert_eq!(got, expect);
    // per-group views agree with the flat lists
    for g in 0..y.num_users() {
        for &v in split.train_items(g) {
            prop_assert!(split.train.contains(&(g, v)));
        }
    }
    // groups with 2+ positives always keep at least one training item
    for g in 0..y.num_users() {
        if y.items_of(g).len() >= 2 {
            prop_assert!(!split.train_items(g).is_empty());
        }
    }
    Ok(())
}

/// The split is an exact partition of the positives, per group.
#[test]
fn split_partitions() {
    let gen = (pairs_gen(), u64_in(0..100));
    Runner::new("split_partitions")
        .cases(64)
        .run(&gen, |(pairs, seed)| check_split_partitions(&interactions(pairs), *seed));
}

/// Regression: the minimal counter-example persisted by an earlier
/// proptest run (`data_props.proptest-regressions`) — a single positive
/// `(0, 0)` in an 8×30 matrix, split with seed 0 — must stay fixed.
#[test]
fn split_partitions_single_positive_seed_zero_regression() {
    let mut y = Interactions::new(8, 30);
    y.insert(0, 0);
    check_split_partitions(&y, 0).unwrap();
}

/// The split is deterministic in its seed.
#[test]
fn split_is_deterministic() {
    let gen = (pairs_gen(), u64_in(0..100));
    Runner::new("split_is_deterministic").cases(64).run(&gen, |(pairs, seed)| {
        let y = interactions(pairs);
        let a = split_group_interactions(&y, (0.6, 0.2), *seed);
        let b = split_group_interactions(&y, (0.6, 0.2), *seed);
        prop_assert_eq!(a.train, b.train);
        prop_assert_eq!(a.val, b.val);
        prop_assert_eq!(a.test, b.test);
        Ok(())
    });
}

/// The negative sampler never returns a known positive (when any
/// negative exists for the row).
#[test]
fn negative_sampler_rejects_positives() {
    let gen = (pairs_gen(), u64_in(0..100), u32_in(0..8));
    Runner::new("negative_sampler_rejects_positives").cases(64).run(&gen, |(pairs, seed, row)| {
        let (seed, row) = (*seed, *row);
        let y = interactions(pairs);
        let sampler = NegativeSampler::from_interactions(&y);
        let mut rng = SplitMix64::new(seed);
        if y.items_of(row).len() < y.num_items() as usize {
            for _ in 0..30 {
                let v = sampler.sample(row, &mut rng);
                prop_assert!(!y.contains(row, v), "sampled positive {v}");
            }
        }
        Ok(())
    });
}

/// Largest-remainder rebalance: every bucket's per-group count stays
/// within ±1 of its exact quota `n·ratio` (the old independent rounding
/// violated this for test at `n = 3`, starving it completely), and
/// groups with 2+ positives always keep a training item.
#[test]
fn split_bucket_counts_within_one_of_quota() {
    let gen = (pairs_gen(), u64_in(0..100));
    Runner::new("split_bucket_counts_within_one_of_quota").cases(64).run(&gen, |(pairs, seed)| {
        let y = interactions(pairs);
        let split = split_group_interactions(&y, (0.6, 0.2), *seed);
        for g in 0..y.num_users() {
            let n = y.items_of(g).len();
            if n == 0 {
                continue;
            }
            let buckets = [
                (split.train_items(g).len(), 0.6, "train"),
                (split.val_items(g).len(), 0.2, "val"),
                (split.test_items(g).len(), 0.2, "test"),
            ];
            for (count, ratio, name) in buckets {
                let quota = n as f64 * ratio;
                prop_assert!(
                    (count as f64 - quota).abs() <= 1.0,
                    "group {g} (n={n}): {name} count {count} vs quota {quota}"
                );
            }
            if n >= 2 {
                prop_assert!(!split.train_items(g).is_empty(), "group {g} (n={n}) train starved");
            }
        }
        Ok(())
    });
}

/// Dense rows force the sampler's fallback path; the scan must still
/// return a true negative every time (the old unchecked 101st draw
/// emitted a known positive with probability ≈ positives/items).
#[test]
fn negative_sampler_dense_rows_never_emit_positives() {
    // (catalog size, number of true negatives, seed)
    let gen = (u32_in(2..200), u32_in(1..4), u64_in(0..1000));
    Runner::new("negative_sampler_dense_rows_never_emit_positives").cases(64).run(
        &gen,
        |(num_items, holes, seed)| {
            let (num_items, holes) = (*num_items, (*holes).min(*num_items - 1));
            // row 0 positive on everything except `holes` items spread
            // over the catalog
            let negatives: Vec<u32> = (0..holes).map(|i| i * (num_items / holes)).collect();
            let known = (0..num_items)
                .filter(|v| !negatives.contains(v))
                .map(|v| (0u32, v))
                .collect::<Vec<_>>();
            let sampler = NegativeSampler::new(known, num_items);
            let mut rng = SplitMix64::new(*seed);
            for call in 0..50 {
                let v = sampler.sample(0, &mut rng);
                prop_assert!(
                    negatives.contains(&v),
                    "call {call}: sampled known positive {v} (catalog {num_items}, holes {holes})"
                );
                let t = sampler.try_sample(0, &mut rng);
                prop_assert!(t.is_some_and(|v| negatives.contains(&v)), "try_sample: {t:?}");
            }
            Ok(())
        },
    );
}

/// Quorum semantics: results shrink as the quorum rises; the full
/// quorum equals strict unanimity; every returned item passes both
/// rules manually.
#[test]
fn quorum_monotone_and_consistent() {
    let gen = (ratings_gen(), vec_of(u32_in(0..6), 1..5));
    Runner::new("quorum_monotone_and_consistent").cases(64).run(&gen, |(trip, members_raw)| {
        let t = ratings(trip);
        let mut members = members_raw.clone();
        members.sort_unstable();
        members.dedup();
        let mut prev: Option<Vec<u32>> = None;
        for q in 1..=members.len() {
            let got = quorum_positives(&t, &members, 4.0, q);
            if let Some(p) = &prev {
                // higher quorum ⇒ subset
                for v in &got {
                    prop_assert!(p.contains(v), "quorum {q} added item {v}");
                }
            }
            for &v in &got {
                let raters = members.iter().filter(|&&m| t.get(m, v).is_some()).count();
                prop_assert!(raters >= q);
                for &m in &members {
                    if let Some(r) = t.get(m, v) {
                        prop_assert!(r >= 4.0, "item {v} kept despite rating {r}");
                    }
                }
            }
            prev = Some(got);
        }
        let full = quorum_positives(&t, &members, 4.0, members.len());
        let strict = unanimous_positives(&t, &members, 4.0);
        prop_assert_eq!(full, strict);
        Ok(())
    });
}

/// Pearson correlation is bounded and symmetric.
#[test]
fn pearson_bounded_and_symmetric() {
    let gen = (ratings_gen(), u32_in(0..6), u32_in(0..6));
    Runner::new("pearson_bounded_and_symmetric").cases(64).run(&gen, |(trip, a, b)| {
        let (a, b) = (*a, *b);
        let t = ratings(trip);
        let ab = pearson(&t, a, b);
        let ba = pearson(&t, b, a);
        match (ab, ba) {
            (Some(x), Some(y)) => {
                prop_assert!((x - y).abs() < 1e-5, "asymmetric: {x} vs {y}");
                prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&x));
            }
            (None, None) => {}
            _ => prop_assert!(false, "definedness not symmetric"),
        }
        if a == b {
            if let Some(x) = ab {
                prop_assert!((x - 1.0).abs() < 1e-5, "self-PCC {x}");
            }
        }
        Ok(())
    });
}

/// Raw triples for a wider rating table (12 users × 16 items, ratings
/// 1–5 in half steps), dense enough for PCC groups of up to 5 to form.
fn wide_ratings_gen() -> VecGen<(IntGen<u32>, IntGen<u32>, IntGen<u32>)> {
    vec_of((u32_in(0..12), u32_in(0..16), u32_in(2..11)), 1..160)
}

fn wide_ratings(trip: &[(u32, u32, u32)]) -> RatingTable {
    let mut t = RatingTable::new(12, 16);
    for &(u, v, r) in trip {
        t.set(u, v, r as f32 * 0.5);
    }
    t
}

/// The two-`Vec` Pearson correlation `pearson` replaced: collect the
/// co-rated pairs, then sum them with `Iterator::sum` and a loop.
fn pearson_two_vecs(ratings: &RatingTable, a: u32, b: u32) -> Option<f32> {
    let ra = ratings.user_ratings(a);
    let rb = ratings.user_ratings(b);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() && j < rb.len() {
        match ra[i].0.cmp(&rb[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                xs.push(ra[i].1);
                ys.push(rb[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    if xs.len() < MIN_OVERLAP {
        return None;
    }
    let n = xs.len() as f32;
    let mx = xs.iter().sum::<f32>() / n;
    let my = ys.iter().sum::<f32>() / n;
    let mut cov = 0.0f32;
    let mut vx = 0.0f32;
    let mut vy = 0.0f32;
    for (&x, &y) in xs.iter().zip(&ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 1e-12 || vy <= 1e-12 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// The greedy PCC growth without a memo: every visit of a pair calls
/// `pearson` again. Same draws, same order as `similar_member_sets`.
fn similar_member_sets_reference(
    ratings: &RatingTable,
    size: usize,
    count: usize,
    pcc_threshold: f32,
    seed: u64,
) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64::new(seed);
    let raters = raters_by_item(ratings);
    let candidate_items: Vec<u32> =
        raters.iter().enumerate().filter(|(_, r)| r.len() >= size).map(|(v, _)| v as u32).collect();
    let mut out = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 200 && !candidate_items.is_empty() {
        attempts += 1;
        let v = candidate_items[rng.next_below(candidate_items.len())];
        let pool = &raters[v as usize];
        let mut members = vec![pool[rng.next_below(pool.len())]];
        let mut order: Vec<u32> = pool.clone();
        rng.shuffle(&mut order);
        for c in order {
            if members.len() == size {
                break;
            }
            if members.contains(&c) {
                continue;
            }
            if members.iter().all(|&m| pearson(ratings, m, c).is_some_and(|p| p >= pcc_threshold)) {
                members.push(c);
            }
        }
        if members.len() < size {
            continue;
        }
        members.sort_unstable();
        if seen.insert(members.clone()) {
            out.push(members);
        }
    }
    out
}

/// The memoised group formation returns exactly the reference loop's
/// member sets, for thresholds every pair passes (≤ −1), none passes
/// (> 1) and in between.
#[test]
fn memoised_similar_member_sets_match_the_reference() {
    let thresholds = [0.27f32, -1.0, -1.5, 0.0, 0.6, 1.0, 1.01, 2.0];
    let gen =
        (wide_ratings_gen(), usize_in(2..6), usize_in(1..8), choice(&thresholds), u64_in(0..1000));
    Runner::new("memoised_similar_member_sets_match_the_reference").cases(128).run(
        &gen,
        |(trip, size, count, tau, seed)| {
            let t = wide_ratings(trip);
            let got = similar_member_sets(&t, *size, *count, *tau, *seed);
            let want = similar_member_sets_reference(&t, *size, *count, *tau, *seed);
            prop_assert_eq!(got, want);
            Ok(())
        },
    );
}

/// The allocation-free `pearson` equals the two-`Vec` version bit for
/// bit, in both argument orders (the memo relies on the symmetry),
/// including overlaps below `MIN_OVERLAP` and zero variance.
#[test]
fn pearson_matches_the_two_vec_version_bitwise() {
    let gen = (wide_ratings_gen(), u32_in(0..12), u32_in(0..12));
    Runner::new("pearson_matches_the_two_vec_version_bitwise").cases(256).run(
        &gen,
        |(trip, a, b)| {
            let (a, b) = (*a, *b);
            let t = wide_ratings(trip);
            let bits = |p: Option<f32>| p.map(f32::to_bits);
            prop_assert_eq!(bits(pearson(&t, a, b)), bits(pearson_two_vecs(&t, a, b)));
            prop_assert_eq!(bits(pearson(&t, a, b)), bits(pearson(&t, b, a)));
            Ok(())
        },
    );
}

/// The edge cases of `pearson` named explicitly: too few co-rated items,
/// zero variance on either side, and a defined correlation.
#[test]
fn pearson_edge_cases_match_the_two_vec_version() {
    let mut t = RatingTable::new(5, 4);
    for (u, row) in [
        (0, [1.0, 3.0, 5.0, 2.0]), // reference profile
        (1, [3.0, 3.0, 3.0, 3.0]), // zero variance
        (2, [2.0, 4.0, 5.0, 1.0]), // correlated with 0
    ] {
        for (v, r) in row.into_iter().enumerate() {
            t.set(u, v as u32, r);
        }
    }
    t.set(3, 0, 4.0); // two co-rated items only
    t.set(3, 1, 5.0);
    for (a, b, defined) in
        [(0, 1, false), (1, 0, false), (0, 3, false), (0, 2, true), (4, 0, false)]
    {
        let p = pearson(&t, a, b);
        assert_eq!(p.is_some(), defined, "pair ({a}, {b}): {p:?}");
        assert_eq!(p.map(f32::to_bits), pearson_two_vecs(&t, a, b).map(f32::to_bits));
    }
}
