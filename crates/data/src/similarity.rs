//! Pearson correlation between users, over co-rated items.
//!
//! The paper forms MovieLens-20M-Simi with a pairwise PCC threshold of
//! 0.27 between all members of a group (following Baltrunas et al. [4]).
//! Group formation tests each unordered pair at most once and memoises
//! the verdict ([`crate::groups::similar_member_sets`]).

use crate::interactions::RatingTable;

/// Minimum number of co-rated items for a PCC to be meaningful; pairs
/// below this return `None`.
pub const MIN_OVERLAP: usize = 3;

/// Pearson correlation of two users' ratings over their co-rated items.
///
/// Returns `None` when fewer than [`MIN_OVERLAP`] items are co-rated or
/// when either user has zero rating variance on the overlap. The result
/// is bitwise symmetric in `a` and `b` (swapping them only swaps the
/// two variances and the factors of commutative products), which is
/// what lets group formation memoise the pairwise test per unordered
/// pair. Nothing is allocated: the two rows are merge-joined twice.
pub fn pearson(ratings: &RatingTable, a: u32, b: u32) -> Option<f32> {
    let (ra, rb) = (ratings.user_ratings(a), ratings.user_ratings(b));
    // each sum folds from −0.0 in item order, as `Iterator::sum` does
    let (mut count, mut sx, mut sy) = (0usize, -0.0f32, -0.0f32);
    co_rated(ra, rb, |x, y| {
        count += 1;
        sx += x;
        sy += y;
    });
    if count < MIN_OVERLAP {
        return None;
    }
    let n = count as f32;
    let (mx, my) = (sx / n, sy / n);
    let mut cov = 0.0f32;
    let mut vx = 0.0f32;
    let mut vy = 0.0f32;
    co_rated(ra, rb, |x, y| {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    });
    if vx <= 1e-12 || vy <= 1e-12 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Merge-join two item-sorted rating rows: `f(x, y)` for every co-rated
/// item, in item order.
fn co_rated(ra: &[(u32, f32)], rb: &[(u32, f32)], mut f: impl FnMut(f32, f32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() && j < rb.len() {
        match ra[i].0.cmp(&rb[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(ra[i].1, rb[j].1);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Mean pairwise PCC inside a set of users, counting only defined pairs.
/// Returns `None` when no pair has a defined PCC.
pub fn mean_pairwise_pcc(ratings: &RatingTable, members: &[u32]) -> Option<f32> {
    let mut sum = 0.0f32;
    let mut n = 0usize;
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            if let Some(p) = pearson(ratings, a, b) {
                sum += p;
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(u32, &[(u32, f32)])]) -> RatingTable {
        let num_users = rows.iter().map(|&(u, _)| u + 1).max().unwrap_or(0);
        let num_items =
            rows.iter().flat_map(|&(_, r)| r.iter().map(|&(i, _)| i + 1)).max().unwrap_or(0);
        let mut t = RatingTable::new(num_users, num_items);
        for &(u, items) in rows {
            for &(i, r) in items {
                t.set(u, i, r);
            }
        }
        t
    }

    #[test]
    fn identical_profiles_have_pcc_one() {
        let t =
            table(&[(0, &[(0, 1.0), (1, 3.0), (2, 5.0)]), (1, &[(0, 1.0), (1, 3.0), (2, 5.0)])]);
        let p = pearson(&t, 0, 1).unwrap();
        assert!((p - 1.0).abs() < 1e-5);
    }

    #[test]
    fn opposite_profiles_have_pcc_minus_one() {
        let t =
            table(&[(0, &[(0, 1.0), (1, 3.0), (2, 5.0)]), (1, &[(0, 5.0), (1, 3.0), (2, 1.0)])]);
        let p = pearson(&t, 0, 1).unwrap();
        assert!((p + 1.0).abs() < 1e-5);
    }

    #[test]
    fn insufficient_overlap_is_none() {
        let t = table(&[(0, &[(0, 1.0), (1, 2.0)]), (1, &[(0, 1.0), (1, 2.0)])]);
        assert_eq!(pearson(&t, 0, 1), None);
    }

    #[test]
    fn zero_variance_is_none() {
        let t =
            table(&[(0, &[(0, 3.0), (1, 3.0), (2, 3.0)]), (1, &[(0, 1.0), (1, 3.0), (2, 5.0)])]);
        assert_eq!(pearson(&t, 0, 1), None);
    }

    #[test]
    fn shifted_profiles_still_correlate() {
        // PCC is invariant to the generosity offset
        let t =
            table(&[(0, &[(0, 1.0), (1, 3.0), (2, 5.0)]), (1, &[(0, 2.0), (1, 4.0), (2, 5.0)])]);
        let p = pearson(&t, 0, 1).unwrap();
        assert!(p > 0.9, "pcc {p}");
    }

    #[test]
    fn mean_pairwise_over_triangle() {
        let t = table(&[
            (0, &[(0, 1.0), (1, 3.0), (2, 5.0)]),
            (1, &[(0, 1.0), (1, 3.0), (2, 5.0)]),
            (2, &[(0, 5.0), (1, 3.0), (2, 1.0)]),
        ]);
        // pairs: (0,1)=+1, (0,2)=-1, (1,2)=-1 → mean = -1/3
        let m = mean_pairwise_pcc(&t, &[0, 1, 2]).unwrap();
        assert!((m + 1.0 / 3.0).abs() < 1e-5, "mean {m}");
        assert_eq!(mean_pairwise_pcc(&t, &[0]), None);
    }
}
