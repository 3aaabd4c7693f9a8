//! Seeded request and mutation streams. Everything the server receives
//! is generated here from the workload seed, so one seed always yields
//! the same streams; the self-tests below pin that, and that the
//! mutation stream only ever emits ops a live group store accepts.

use kgag_data::{LifecycleAck, LifecycleOp};

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive. The modulo bias is
    /// below 2^-50 for the universes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` distinct values of `0..universe`, in draw order (partial
/// Fisher–Yates).
pub fn distinct(rng: &mut Rng, universe: usize, n: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..universe as u32).collect();
    let n = n.min(universe);
    for i in 0..n {
        let j = i + rng.below(universe - i);
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

/// Closed-loop score requests for random groups of a fixed pool:
/// shortlists of `len.0..=len.1` distinct items, or the whole catalog in
/// item order, `chunk` items per request.
#[derive(Clone, Debug)]
pub struct ScoreStream {
    rng: Rng,
    groups: Vec<u32>,
    num_items: usize,
    shape: Shape,
}

#[derive(Clone, Debug)]
enum Shape {
    Shortlist {
        len: (usize, usize),
    },
    /// The group being ranked and the first item of its next chunk.
    Catalog {
        chunk: usize,
        group: u32,
        next: usize,
    },
}

impl ScoreStream {
    pub fn shortlists(
        rng: Rng,
        groups: Vec<u32>,
        num_items: usize,
        len: (usize, usize),
    ) -> ScoreStream {
        assert!(!groups.is_empty() && len.0 >= 1 && len.0 <= len.1, "empty score stream");
        ScoreStream { rng, groups, num_items, shape: Shape::Shortlist { len } }
    }

    pub fn catalog(rng: Rng, groups: Vec<u32>, num_items: usize, chunk: usize) -> ScoreStream {
        assert!(!groups.is_empty() && chunk >= 1, "empty score stream");
        ScoreStream { rng, groups, num_items, shape: Shape::Catalog { chunk, group: 0, next: 0 } }
    }

    pub fn next_request(&mut self) -> (u32, Vec<u32>) {
        match &mut self.shape {
            Shape::Shortlist { len } => {
                let group = self.groups[self.rng.below(self.groups.len())];
                let n = len.0 + self.rng.below(len.1 - len.0 + 1);
                (group, distinct(&mut self.rng, self.num_items, n))
            }
            Shape::Catalog { chunk, group, next } => {
                if *next == 0 {
                    *group = self.groups[self.rng.below(self.groups.len())];
                }
                let end = (*next + *chunk).min(self.num_items);
                let items = (*next as u32..end as u32).collect();
                *next = if end == self.num_items { 0 } else { end };
                (*group, items)
            }
        }
    }
}

/// One scheduled lifecycle op and the ack a correct server returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutation {
    pub op: LifecycleOp,
    pub expect: LifecycleAck,
    /// For a create: the static group whose roster it copies, and the
    /// candidates the twin is scored on right after it exists.
    pub twin: Option<(u32, Vec<u32>)>,
}

/// Every `TWIN_EVERY`-th op creates a twin of a read-side roster.
const TWIN_EVERY: u64 = 50;
/// Candidates a fresh twin is scored on.
const TWIN_ITEMS: usize = 20;

/// Join/leave pairs on a set of target groups, plus an occasional
/// create that copies one of the read side's rosters. The stream keeps
/// its own copy of every target's membership, so each join names a
/// non-member, each leave a member, and sizes stay at nominal or one
/// above — no op is ever rejected.
#[derive(Clone, Debug)]
pub struct MutationStream {
    rng: Rng,
    targets: Vec<(u32, Vec<u32>)>,
    twins: Vec<(u32, Vec<u32>)>,
    num_users: u32,
    num_items: usize,
    next_group: u32,
    /// Target that has had its join and still owes the paired leave.
    pending_leave: Option<usize>,
    emitted: u64,
}

impl MutationStream {
    /// `targets` and `twins` are `(group id, roster)`; created groups
    /// get ids from `num_groups` upward, as the live store assigns them.
    pub fn new(
        rng: Rng,
        targets: Vec<(u32, Vec<u32>)>,
        twins: Vec<(u32, Vec<u32>)>,
        num_users: u32,
        num_items: usize,
        num_groups: u32,
    ) -> MutationStream {
        assert!(!targets.is_empty() && !twins.is_empty(), "empty mutation stream");
        assert!(
            targets.iter().all(|(_, m)| m.len() < num_users as usize),
            "a join needs a user outside the group"
        );
        MutationStream {
            rng,
            targets,
            twins,
            num_users,
            num_items,
            next_group: num_groups,
            pending_leave: None,
            emitted: 0,
        }
    }

    pub fn next_op(&mut self) -> Mutation {
        self.emitted += 1;
        if self.emitted.is_multiple_of(TWIN_EVERY) {
            let (source, roster) = self.twins[self.rng.below(self.twins.len())].clone();
            let group = self.next_group;
            self.next_group += 1;
            let items = distinct(&mut self.rng, self.num_items, TWIN_ITEMS);
            return Mutation {
                expect: LifecycleAck { group, members: roster.len() as u32 },
                op: LifecycleOp::Create { members: roster },
                twin: Some((source, items)),
            };
        }
        match self.pending_leave.take() {
            Some(t) => {
                let (group, members) = &mut self.targets[t];
                let user = members.swap_remove(self.rng.below(members.len()));
                Mutation {
                    op: LifecycleOp::Leave { group: *group, user },
                    expect: LifecycleAck { group: *group, members: members.len() as u32 },
                    twin: None,
                }
            }
            None => {
                let t = self.rng.below(self.targets.len());
                let (group, members) = &mut self.targets[t];
                let user = loop {
                    let u = self.rng.below(self.num_users as usize) as u32;
                    if !members.contains(&u) {
                        break u;
                    }
                };
                members.push(user);
                self.pending_leave = Some(t);
                Mutation {
                    op: LifecycleOp::Join { group: *group, user },
                    expect: LifecycleAck { group: *group, members: members.len() as u32 },
                    twin: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgag_data::GroupStore;

    fn rosters(groups: usize, size: usize, users: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = Rng::new(seed, 99);
        (0..groups)
            .map(|_| {
                let mut m = distinct(&mut rng, users as usize, size);
                m.sort_unstable();
                m
            })
            .collect()
    }

    fn mutation_stream(seed: u64, groups: &[Vec<u32>], users: u32) -> MutationStream {
        let half = groups.len() / 2;
        let pick = |range: std::ops::Range<usize>| -> Vec<(u32, Vec<u32>)> {
            range.map(|g| (g as u32, groups[g].clone())).collect()
        };
        MutationStream::new(
            Rng::new(seed, 2),
            pick(0..half),
            pick(half..groups.len()),
            users,
            40,
            groups.len() as u32,
        )
    }

    #[test]
    fn distinct_draws_are_distinct_and_in_range() {
        let mut rng = Rng::new(7, 0);
        for n in [0, 1, 10, 600] {
            let mut v = distinct(&mut rng, 600, n);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < 600));
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), n, "repeated value");
        }
        assert_eq!(distinct(&mut rng, 5, 9).len(), 5, "clamped to the universe");
    }

    #[test]
    fn same_seed_same_streams() {
        let groups = rosters(20, 8, 100, 1);
        let score = |seed| {
            let mut s = ScoreStream::shortlists(Rng::new(seed, 1), vec![3, 5, 8], 600, (10, 50));
            (0..300).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        let ops = |seed| {
            let mut s = mutation_stream(seed, &groups, 100);
            (0..300).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(score(42), score(42));
        assert_eq!(ops(42), ops(42));
        assert_ne!(score(42), score(43));
        assert_ne!(ops(42), ops(43));
    }

    #[test]
    fn score_requests_respect_the_shape() {
        let mut s = ScoreStream::shortlists(Rng::new(5, 1), vec![4, 9], 600, (10, 50));
        for _ in 0..500 {
            let (g, items) = s.next_request();
            assert!(g == 4 || g == 9);
            assert!((10..=50).contains(&items.len()));
            let mut sorted = items.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), items.len(), "candidates must be distinct");
        }
        // the catalog in chunks, each group's whole catalog before the next
        let mut full = ScoreStream::catalog(Rng::new(5, 1), vec![4, 9], 600, 250);
        for _ in 0..4 {
            let requests: Vec<_> = (0..3).map(|_| full.next_request()).collect();
            assert!(requests.iter().all(|(g, _)| *g == requests[0].0), "one group per ranking");
            let items: Vec<u32> = requests.into_iter().flat_map(|(_, items)| items).collect();
            assert_eq!(items, (0..600).collect::<Vec<u32>>());
        }
    }

    /// The generator's own membership model agrees with a real group
    /// store: every op is accepted with exactly the predicted ack.
    #[test]
    fn every_generated_op_is_valid() {
        let users = 60;
        let groups = rosters(16, 8, users, 3);
        for seed in 0..4 {
            let mut store = GroupStore::new(groups.clone(), users);
            let mut stream = mutation_stream(seed, &groups, users);
            let mut creates = 0;
            for i in 0..2000 {
                let m = stream.next_op();
                let applied = store
                    .apply(&m.op)
                    .unwrap_or_else(|e| panic!("seed {seed} op {i} {:?} rejected: {e}", m.op));
                assert_eq!(applied.ack, m.expect, "seed {seed} op {i}");
                if let Some((source, items)) = &m.twin {
                    creates += 1;
                    assert_eq!(
                        store.members(applied.ack.group).unwrap(),
                        &groups[*source as usize]
                    );
                    assert_eq!(items.len(), TWIN_ITEMS);
                }
            }
            assert_eq!(creates, 2000 / TWIN_EVERY as usize);
            // reads go to the twin-source half, which is never mutated
            for g in 8..16 {
                assert_eq!(store.members(g).unwrap(), &groups[g as usize]);
            }
        }
    }
}
