//! Pins of the generated MovieLens datasets: an FNV-1a hash of each
//! variant's `groups`, `group_pos` and `user_pos` at Tiny and Small.
//!
//! Generation speed-ups must leave the data bit-identical; any change to
//! the world, the group formation or the decision events moves a hash.
//! Only these three fields are hashed: they are plain sorted vectors, so
//! their bytes do not depend on hash-map iteration order.

use kgag_data::movielens::{movielens_pair, MovieLensConfig, Scale};
use kgag_data::{GroupDataset, Interactions};

/// 64-bit FNV-1a over a stream of `u32`s (little-endian bytes).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, x: u32) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed row, so adjacent rows cannot trade elements.
    fn row(&mut self, row: &[u32]) {
        self.u32(row.len() as u32);
        row.iter().for_each(|&x| self.u32(x));
    }

    fn interactions(&mut self, y: &Interactions) {
        self.u32(y.num_users());
        self.u32(y.num_items());
        (0..y.num_users()).for_each(|u| self.row(y.items_of(u)));
    }
}

fn pin(ds: &GroupDataset) -> u64 {
    let mut h = Fnv1a::new();
    h.u32(ds.groups.len() as u32);
    ds.groups.iter().for_each(|g| h.row(g));
    h.interactions(&ds.group_pos);
    h.interactions(&ds.user_pos);
    h.0
}

fn check(scale: Scale, rand_pin: u64, simi_pin: u64) {
    let (_, rand, simi) = movielens_pair(&MovieLensConfig::at_scale(scale));
    let got = (pin(&rand), pin(&simi));
    assert_eq!(got, (rand_pin, simi_pin), "{scale:?} pins moved: (rand, simi) = {got:#018x?}");
}

#[test]
fn tiny_datasets_are_pinned() {
    check(Scale::Tiny, 0x5895_e234_ca46_3a7c, 0x7e12_a0cd_18bf_5edc);
}

#[test]
fn small_datasets_are_pinned() {
    check(Scale::Small, 0xce6d_0a61_8a9b_2727, 0xcaed_cc65_eca4_765a);
}
