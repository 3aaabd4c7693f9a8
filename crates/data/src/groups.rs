//! Group formation protocols.
//!
//! Following the construction of Baltrunas et al. [4] that the paper
//! adopts, groups are seeded from items: pick an item, then pick members
//! among the users who rated it ≥ 4 — uniformly for *random* groups,
//! under a pairwise-PCC constraint for *similar* groups. A group's
//! positive set is every item all members rated ≥ 4 (the paper's
//! unanimity rule), which by construction contains at least the seed.
//! The greedy PCC growth memoises each member pair's verdict, so a pair
//! is correlated once however often the growth revisits it.

use crate::interactions::RatingTable;
use crate::similarity::pearson;
use kgag_tensor::rng::SplitMix64;
use std::collections::HashSet;

/// The paper's positive-rating threshold: a group selects a movie iff
/// every member rated it ≥ 4.
pub const POSITIVE_THRESHOLD: f32 = 4.0;

/// A formed group with its positive items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormedGroup {
    /// Member user ids (sorted, distinct).
    pub members: Vec<u32>,
    /// Items every member rated ≥ 4 (sorted).
    pub positives: Vec<u32>,
}

/// Quorum unanimity: items where every member **who rated them** gave at
/// least `threshold`, with at least `min_raters` members having rated.
///
/// With `min_raters == members.len()` this is strict unanimity (the
/// Yelp co-visit rule). The MovieLens-style datasets use
/// `min_raters = ⌈size/2⌉`: real rating data is far too sparse for eight
/// random users to have all rated the same movie, so — like the group
/// datasets derived from MovieLens in prior work [4] — agreement is
/// judged on the observed ratings only.
pub fn quorum_positives(
    ratings: &RatingTable,
    members: &[u32],
    threshold: f32,
    min_raters: usize,
) -> Vec<u32> {
    if members.is_empty() {
        return Vec::new();
    }
    // item → (number of ≥threshold raters, disqualified by a low rating)
    let mut tally: std::collections::HashMap<u32, (usize, bool)> = std::collections::HashMap::new();
    for &m in members {
        for &(v, r) in ratings.user_ratings(m) {
            let e = tally.entry(v).or_insert((0, false));
            if r >= threshold {
                e.0 += 1;
            } else {
                e.1 = true;
            }
        }
    }
    let mut out: Vec<u32> = tally
        .into_iter()
        .filter(|&(_, (pos, bad))| !bad && pos >= min_raters)
        .map(|(v, _)| v)
        .collect();
    out.sort_unstable();
    out
}

/// Items rated ≥ `threshold` by *every* member: the unanimity positives.
pub fn unanimous_positives(ratings: &RatingTable, members: &[u32], threshold: f32) -> Vec<u32> {
    let Some((first, rest)) = members.split_first() else {
        return Vec::new();
    };
    let mut out: Vec<u32> = ratings
        .user_ratings(*first)
        .iter()
        .filter(|&&(_, r)| r >= threshold)
        .map(|&(i, _)| i)
        .collect();
    for &m in rest {
        out.retain(|&v| ratings.get(m, v).is_some_and(|r| r >= threshold));
        if out.is_empty() {
            break;
        }
    }
    out
}

/// Form `count` random groups of `size` members (MovieLens-20M-Rand
/// protocol): each group is seeded by an item and drawn uniformly from
/// the users who rated that item ≥ 4; no similarity constraint. Groups
/// with duplicate member sets are discarded.
pub fn random_groups(
    ratings: &RatingTable,
    size: usize,
    count: usize,
    min_raters: usize,
    seed: u64,
) -> Vec<FormedGroup> {
    assert!(size >= 2, "groups need at least two members");
    assert!((1..=size).contains(&min_raters), "quorum must be within the group size");
    let mut rng = SplitMix64::new(seed);
    let raters = raters_by_item(ratings);
    let candidate_items: Vec<u32> =
        raters.iter().enumerate().filter(|(_, r)| r.len() >= size).map(|(v, _)| v as u32).collect();
    let mut out = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 50 && !candidate_items.is_empty() {
        attempts += 1;
        let v = candidate_items[rng.next_below(candidate_items.len())];
        let pool = &raters[v as usize];
        let mut members: Vec<u32> =
            rng.sample_distinct(pool.len(), size).into_iter().map(|i| pool[i]).collect();
        members.sort_unstable();
        if !seen.insert(members.clone()) {
            continue;
        }
        let positives = quorum_positives(ratings, &members, POSITIVE_THRESHOLD, min_raters);
        debug_assert!(positives.contains(&v));
        out.push(FormedGroup { members, positives });
    }
    out
}

/// Form `count` similar groups of `size` members (MovieLens-20M-Simi
/// protocol): the member sets of [`similar_member_sets`], each with its
/// quorum positives.
pub fn similar_groups(
    ratings: &RatingTable,
    size: usize,
    count: usize,
    pcc_threshold: f32,
    min_raters: usize,
    seed: u64,
) -> Vec<FormedGroup> {
    assert!(size >= 2, "groups need at least two members");
    assert!((1..=size).contains(&min_raters), "quorum must be within the group size");
    similar_member_sets(ratings, size, count, pcc_threshold, seed)
        .into_iter()
        .map(|members| {
            let positives = quorum_positives(ratings, &members, POSITIVE_THRESHOLD, min_raters);
            FormedGroup { members, positives }
        })
        .collect()
}

/// Parameters of the simulated group decision process.
///
/// The paper's central modeling assumption (§III-D) is that a group
/// decision is an *influence-weighted* aggregation of member
/// preferences, where a member's weight depends both on who she is
/// (peer influence) and on how strongly she feels about the candidate
/// (self persistence) — with groups avoiding items any member strongly
/// objects to (the least-misery effect their Table II confirms). The
/// synthetic group events are generated from exactly that process, so a
/// model that can *learn* item-dependent member influence has an edge
/// over static aggregation — on real data that edge is an empirical
/// finding; here it is the hypothesis under test.
#[derive(Clone, Debug)]
pub struct GroupDecisionConfig {
    /// Candidate items considered per group (popularity-biased sample).
    pub candidates_per_group: usize,
    /// Decisions made per group, drawn uniformly from this range.
    pub choices_per_group: (usize, usize),
    /// Latent-rating floor below which a member vetoes the item.
    pub veto_floor: f32,
    /// Sharpness of the influence softmax (the `c` in
    /// `w_i ∝ exp(c·influence_i + s·affinity_i(v))`).
    pub influence_sharpness: f32,
    /// Weight of the member's own enthusiasm for the candidate in her
    /// decision weight (the `s` above) — the self-persistence effect.
    pub persistence_weight: f32,
    /// Std-dev of the noise added to the group score before ranking.
    pub decision_noise: f32,
}

impl Default for GroupDecisionConfig {
    fn default() -> Self {
        GroupDecisionConfig {
            candidates_per_group: 80,
            choices_per_group: (3, 8),
            veto_floor: 2.5,
            influence_sharpness: 1.5,
            persistence_weight: 1.0,
            decision_noise: 0.15,
        }
    }
}

/// Simulate group decision events for pre-formed member sets.
///
/// For every group, a popularity-biased candidate pool is scored with
/// influence-weighted member affinities; the top choices that survive
/// the veto rule become the group's positives, and **every member rates
/// the chosen items** (they attended), so the events also densify the
/// user–item matrix exactly as real co-consumption does.
pub fn simulate_group_choices(
    world: &mut crate::world::World,
    member_sets: &[Vec<u32>],
    config: &GroupDecisionConfig,
    seed: u64,
) -> Vec<FormedGroup> {
    let mut rng = SplitMix64::new(seed);
    // (group, chosen items, their members' affinities item-major)
    let mut planned: Vec<(usize, Vec<u32>, Vec<f32>)> = Vec::with_capacity(member_sets.len());
    // scratch buffers, reused across groups and candidates
    let mut pool: Vec<u32> = Vec::with_capacity(config.candidates_per_group);
    // (item, score, slot of its members' affinities in `kept`)
    let mut scored: Vec<(u32, f32, usize)> = Vec::with_capacity(config.candidates_per_group);
    let (mut affs, mut weights, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    for (gi, members) in member_sets.iter().enumerate() {
        assert!(!members.is_empty(), "group {gi} has no members");
        let (lo, hi) = config.choices_per_group;
        let n_choices = lo + rng.next_below(hi - lo + 1);
        // candidate pool: distinct, popularity-biased
        // half popularity-biased (what the group has heard of), half
        // uniform (niche discoveries) — keeps popularity informative but
        // not sufficient
        let n_items = world.items.len();
        pool.clear();
        let mut tries = 0usize;
        while pool.len() < config.candidates_per_group && tries < config.candidates_per_group * 10 {
            tries += 1;
            let v = if tries.is_multiple_of(2) {
                world.sample_item_by_popularity(&mut rng)
            } else {
                rng.next_below(n_items) as u32
            };
            if !pool.contains(&v) {
                pool.push(v);
            }
        }
        // score candidates: veto + influence-weighted affinity (the
        // veto stops at the first objector: affinities draw no RNG)
        scored.clear();
        kept.clear();
        'cand: for &v in &pool {
            affs.clear();
            for &m in members {
                let a = world.affinity(m, v);
                if crate::world::World::affinity_to_rating(a) < config.veto_floor {
                    continue 'cand; // somebody hates it: vetoed
                }
                affs.push(a);
            }
            // w_i ∝ exp(c·influence + s·affinity): influential members and
            // members who care about this candidate speak louder
            weights.clear();
            weights.extend(members.iter().zip(&affs).map(|(&m, &a)| {
                config.influence_sharpness * world.users[m as usize].influence
                    + config.persistence_weight * a
            }));
            let max = weights.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            weights.iter_mut().for_each(|l| *l = (*l - max).exp());
            let z: f32 = weights.iter().sum();
            let score: f32 = weights.iter().zip(&affs).map(|(&e, &a)| (e / z) * a).sum::<f32>()
                + rng.next_normal() * config.decision_noise;
            scored.push((v, score, scored.len()));
            kept.extend_from_slice(&affs);
        }
        if scored.is_empty() {
            continue; // nothing survived the veto: the outing never happened
        }
        scored.sort_by(|a, b| kgag_tensor::cmp::score_cmp(b.1, a.1));
        let chosen = &scored[..n_choices.min(scored.len())];
        let l = members.len();
        planned.push((
            gi,
            chosen.iter().map(|&(v, ..)| v).collect(),
            chosen
                .iter()
                .flat_map(|&(.., slot)| &kept[slot * l..(slot + 1) * l])
                .copied()
                .collect(),
        ));
    }
    // record the attendance ratings, reusing the scored affinities, then
    // read off the positives
    for (gi, chosen, affs) in &planned {
        let members = &member_sets[*gi];
        for (&v, affs) in chosen.iter().zip(affs.chunks_exact(members.len())) {
            for (&m, &a) in members.iter().zip(affs) {
                let noiseless = crate::world::World::affinity_to_rating(a);
                let rating = (noiseless + rng.next_normal() * 0.3).round().clamp(1.0, 5.0);
                // attendance does not erase a pre-existing opinion
                if world.ratings.get(m, v).is_none() {
                    world.ratings.set(m, v, rating);
                }
            }
        }
    }
    planned
        .into_iter()
        .map(|(gi, mut chosen, _)| {
            chosen.sort_unstable();
            chosen.dedup();
            FormedGroup { members: member_sets[gi].clone(), positives: chosen }
        })
        .collect()
}

/// Uniformly random member sets (the MovieLens-20M-Rand protocol: "a
/// set of persons without any social relations").
pub fn random_member_sets(num_users: u32, size: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
    assert!(size >= 2 && num_users as usize >= size, "not enough users for groups");
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 50 {
        attempts += 1;
        let mut members: Vec<u32> =
            rng.sample_distinct(num_users as usize, size).into_iter().map(|u| u as u32).collect();
        members.sort_unstable();
        if seen.insert(members.clone()) {
            out.push(members);
        }
    }
    out
}

/// PCC-constrained member sets (the MovieLens-20M-Simi protocol):
/// seeded from co-raters of an item so overlaps exist, grown greedily
/// under the pairwise threshold: every pair of members must have Pearson
/// correlation ≥ `pcc_threshold` (paper value: 0.27). Groups with
/// duplicate member sets are discarded.
///
/// The growth revisits the same pairs many times (at `Small` scale
/// ~13 tests per distinct pair), so each unordered pair's verdict is
/// memoised in a `PairMemo` local to the call.
pub fn similar_member_sets(
    ratings: &RatingTable,
    size: usize,
    count: usize,
    pcc_threshold: f32,
    seed: u64,
) -> Vec<Vec<u32>> {
    assert!(size >= 2, "groups need at least two members");
    let mut rng = SplitMix64::new(seed);
    let raters = raters_by_item(ratings);
    let candidate_items: Vec<u32> =
        raters.iter().enumerate().filter(|(_, r)| r.len() >= size).map(|(v, _)| v as u32).collect();
    let mut memo = PairMemo::new(ratings.num_users());
    let mut order = Vec::new();
    let mut out = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 200 && !candidate_items.is_empty() {
        attempts += 1;
        let v = candidate_items[rng.next_below(candidate_items.len())];
        let pool = &raters[v as usize];
        // greedy growth from a random seed member
        let mut members = vec![pool[rng.next_below(pool.len())]];
        order.clear();
        order.extend_from_slice(pool);
        rng.shuffle(&mut order);
        for &c in &order {
            if members.len() == size {
                break;
            }
            if members.contains(&c) {
                continue;
            }
            let similar = |m: u32| pearson(ratings, m, c).is_some_and(|p| p >= pcc_threshold);
            if members.iter().all(|&m| memo.passes(m, c, || similar(m))) {
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

/// The pairwise test's verdicts over `n` users: two bits per unordered
/// pair (bit 0 = tested, bit 1 = passed) in a triangular table of
/// `n(n−1)/8` bytes — about 80 KB at `Small` scale, 500 KB at `Medium`.
/// [`pearson`] is bitwise symmetric, so one test answers both orders.
struct PairMemo {
    words: Vec<u64>,
}

impl PairMemo {
    fn new(num_users: u32) -> Self {
        let n = num_users as usize;
        let pairs = n * n.saturating_sub(1) / 2;
        PairMemo { words: vec![0; pairs.div_ceil(32)] }
    }

    /// The verdict for `{a, b}` (`a ≠ b`): `test()` on the pair's first
    /// visit, the memo afterwards.
    fn passes(&mut self, a: u32, b: u32, test: impl FnOnce() -> bool) -> bool {
        debug_assert_ne!(a, b, "a pair needs two users");
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        let slot = hi * (hi - 1) / 2 + lo;
        let (word, shift) = (slot / 32, slot % 32 * 2);
        match self.words[word] >> shift & 0b11 {
            0b01 => false,
            0b11 => true,
            _ => {
                let pass = test();
                self.words[word] |= (0b01 | u64::from(pass) << 1) << shift;
                pass
            }
        }
    }
}

/// Users who rated each item ≥ [`POSITIVE_THRESHOLD`], indexed by item.
pub fn raters_by_item(ratings: &RatingTable) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); ratings.num_items() as usize];
    for u in 0..ratings.num_users() {
        for &(v, r) in ratings.user_ratings(u) {
            if r >= POSITIVE_THRESHOLD {
                out[v as usize].push(u);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{generate, WorldConfig};

    fn world_ratings() -> RatingTable {
        generate(&WorldConfig {
            num_users: 120,
            num_items: 100,
            ratings_per_user: (30, 40),
            ..Default::default()
        })
        .ratings
    }

    #[test]
    fn unanimous_positives_requires_all_members() {
        let mut t = RatingTable::new(3, 4);
        t.set(0, 0, 5.0);
        t.set(1, 0, 4.0);
        t.set(2, 0, 4.0);
        t.set(0, 1, 5.0);
        t.set(1, 1, 3.0); // member 1 dislikes item 1
        t.set(2, 1, 5.0);
        t.set(0, 2, 5.0);
        t.set(1, 2, 5.0); // member 2 never rated item 2
        assert_eq!(unanimous_positives(&t, &[0, 1, 2], 4.0), vec![0]);
        assert_eq!(unanimous_positives(&t, &[0, 1], 4.0), vec![0, 2]);
        assert_eq!(unanimous_positives(&t, &[], 4.0), Vec::<u32>::new());
    }

    #[test]
    fn random_groups_have_size_and_positives() {
        let ratings = world_ratings();
        let gs = random_groups(&ratings, 4, 30, 2, 7);
        assert!(!gs.is_empty(), "no groups formed");
        for g in &gs {
            assert_eq!(g.members.len(), 4);
            assert!(!g.positives.is_empty(), "group without positives");
            let mut sorted = g.members.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicate members");
        }
    }

    #[test]
    fn random_groups_are_distinct() {
        let ratings = world_ratings();
        let gs = random_groups(&ratings, 3, 40, 2, 11);
        let sets: HashSet<_> = gs.iter().map(|g| g.members.clone()).collect();
        assert_eq!(sets.len(), gs.len());
    }

    #[test]
    fn similar_groups_respect_pcc_threshold() {
        let ratings = world_ratings();
        let tau = 0.27;
        let gs = similar_groups(&ratings, 3, 15, tau, 2, 13);
        assert!(!gs.is_empty(), "no similar groups formed");
        for g in &gs {
            for (i, &a) in g.members.iter().enumerate() {
                for &b in &g.members[i + 1..] {
                    let p = pearson(&ratings, a, b).expect("pair must have defined PCC");
                    assert!(p >= tau, "pair pcc {p} below threshold");
                }
            }
        }
    }

    #[test]
    fn similar_groups_have_higher_inner_similarity_than_random() {
        let ratings = world_ratings();
        let rand = random_groups(&ratings, 3, 30, 2, 3);
        let simi = similar_groups(&ratings, 3, 15, 0.27, 2, 3);
        let mean_sim = |gs: &[FormedGroup]| {
            let vals: Vec<f32> = gs
                .iter()
                .filter_map(|g| crate::similarity::mean_pairwise_pcc(&ratings, &g.members))
                .collect();
            vals.iter().sum::<f32>() / vals.len().max(1) as f32
        };
        assert!(
            mean_sim(&simi) > mean_sim(&rand),
            "simi {} should exceed rand {}",
            mean_sim(&simi),
            mean_sim(&rand)
        );
    }

    #[test]
    fn similar_groups_have_more_positives_per_group() {
        // the paper's Simi set has ~2x the interactions/group of Rand
        let ratings = world_ratings();
        let rand = random_groups(&ratings, 3, 30, 2, 5);
        let simi = similar_groups(&ratings, 3, 15, 0.27, 2, 5);
        let mean_pos = |gs: &[FormedGroup]| {
            gs.iter().map(|g| g.positives.len()).sum::<usize>() as f64 / gs.len().max(1) as f64
        };
        assert!(
            mean_pos(&simi) > mean_pos(&rand),
            "simi {:.2} should exceed rand {:.2}",
            mean_pos(&simi),
            mean_pos(&rand)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ratings = world_ratings();
        assert_eq!(random_groups(&ratings, 3, 10, 2, 42), random_groups(&ratings, 3, 10, 2, 42));
        assert_ne!(random_groups(&ratings, 3, 10, 2, 42), random_groups(&ratings, 3, 10, 2, 43));
    }
}
