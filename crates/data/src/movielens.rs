//! Synthetic MovieLens-20M-Rand and MovieLens-20M-Simi stand-ins.
//!
//! Both datasets share one world (the paper derives both from the same
//! MovieLens-20M subset: 5802 users, 3413 items) and differ only in
//! group formation: Rand draws 8 users uniformly at random (no social
//! relation), Simi draws 5 users with pairwise Pearson correlation
//! ≥ 0.27. Group positives come from simulated *group decision events*
//! (see [`crate::groups::simulate_group_choices`]): an
//! influence-weighted, veto-filtered choice among a popularity-biased
//! candidate pool — the decision process the paper's model hypothesises.

use crate::dataset::GroupDataset;
use crate::groups::{
    random_member_sets, similar_member_sets, simulate_group_choices, FormedGroup,
    GroupDecisionConfig,
};
use crate::interactions::Interactions;
use crate::world::{generate, World, WorldConfig};
use kgag_kg::triple::{EntityId, TripleStore};
use kgag_tensor::rng::derive_seed;

/// Scale presets trading fidelity for runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale (seconds end-to-end).
    Tiny,
    /// Experiment scale used by the bench binaries (minutes end-to-end).
    Small,
    /// Larger runs for when more statistical resolution is wanted.
    Medium,
}

/// Configuration of the MovieLens-style generators.
#[derive(Clone, Debug)]
pub struct MovieLensConfig {
    /// World (catalog/users/ratings) configuration.
    pub world: WorldConfig,
    /// Groups to form for the Rand variant.
    pub rand_groups: usize,
    /// Group size for the Rand variant (paper: 8).
    pub rand_group_size: usize,
    /// Groups to form for the Simi variant.
    pub simi_groups: usize,
    /// Group size for the Simi variant (paper: 5).
    pub simi_group_size: usize,
    /// Pairwise PCC threshold for Simi (paper: 0.27).
    pub pcc_threshold: f32,
    /// Decision-event parameters for Rand groups.
    pub rand_decisions: GroupDecisionConfig,
    /// Decision-event parameters for Simi groups (similar people agree
    /// more, so more choices survive — Table I's 11.19 vs 5.05).
    pub simi_decisions: GroupDecisionConfig,
}

impl MovieLensConfig {
    /// Preset for a scale.
    pub fn at_scale(scale: Scale) -> Self {
        let (users, items, ratings, rand_groups, simi_groups) = match scale {
            Scale::Tiny => (120, 100, (30, 60), 60, 40),
            Scale::Small => (800, 600, (25, 60), 1500, 1000),
            Scale::Medium => (2000, 1500, (40, 100), 4000, 2500),
        };
        MovieLensConfig {
            world: WorldConfig {
                num_users: users,
                num_items: items,
                ratings_per_user: ratings,
                // long-tailed activity: a third of users carry most of
                // the signal, the rest are near-cold (the sparsity KGAG
                // is designed to survive)
                heavy_fraction: 0.35,
                light_ratings_per_user: (4, 12),
                noise_std: 0.6,
                ..WorldConfig::default()
            },
            rand_groups,
            rand_group_size: 8,
            simi_groups,
            simi_group_size: 5,
            pcc_threshold: 0.27,
            rand_decisions: GroupDecisionConfig {
                choices_per_group: (3, 8),
                ..GroupDecisionConfig::default()
            },
            simi_decisions: GroupDecisionConfig {
                choices_per_group: (8, 16),
                ..GroupDecisionConfig::default()
            },
        }
    }
}

impl Default for MovieLensConfig {
    fn default() -> Self {
        Self::at_scale(Scale::Small)
    }
}

/// The shared world after every decision event, with each variant's
/// formed groups: `(world, rand, simi)`. Both variants' events write
/// attendance ratings into the one rating table, so either dataset
/// needs both simulated.
fn world_with_events(config: &MovieLensConfig) -> (World, Vec<FormedGroup>, Vec<FormedGroup>) {
    let mut world = generate(&config.world);
    // membership first (Simi similarity is judged on the organic,
    // pre-event ratings)
    let rand_members = random_member_sets(
        config.world.num_users,
        config.rand_group_size,
        config.rand_groups,
        derive_seed(config.world.seed, "ml-rand-members"),
    );
    let simi_members = similar_member_sets(
        &world.ratings,
        config.simi_group_size,
        config.simi_groups,
        config.pcc_threshold,
        derive_seed(config.world.seed, "ml-simi-members"),
    );
    // decision events mutate the rating table (attendance ratings)
    let rand_formed = simulate_group_choices(
        &mut world,
        &rand_members,
        &config.rand_decisions,
        derive_seed(config.world.seed, "ml-rand-events"),
    );
    let simi_formed = simulate_group_choices(
        &mut world,
        &simi_members,
        &config.simi_decisions,
        derive_seed(config.world.seed, "ml-simi-events"),
    );
    (world, rand_formed, simi_formed)
}

/// One variant's dataset over the world's KG and implicit feedback.
fn assemble(
    config: &MovieLensConfig,
    simi: bool,
    kg: TripleStore,
    item_entity: Vec<EntityId>,
    implicit: Interactions,
    formed: Vec<FormedGroup>,
) -> GroupDataset {
    let (name, group_size) = if simi {
        ("MovieLens-20M-Simi", config.simi_group_size)
    } else {
        ("MovieLens-20M-Rand", config.rand_group_size)
    };
    let (users, items) = (config.world.num_users, config.world.num_items);
    GroupDataset::from_parts(name, users, items, kg, item_entity, implicit, formed, group_size)
}

/// Generate the shared world plus both group datasets.
pub fn movielens_pair(config: &MovieLensConfig) -> (World, GroupDataset, GroupDataset) {
    let (world, rand_formed, simi_formed) = world_with_events(config);
    let implicit = world.ratings.to_implicit(crate::groups::POSITIVE_THRESHOLD);
    let (kg, item_entity) = (&world.kg, &world.item_entity);
    let rand =
        assemble(config, false, kg.clone(), item_entity.clone(), implicit.clone(), rand_formed);
    let simi = assemble(config, true, kg.clone(), item_entity.clone(), implicit, simi_formed);
    (world, rand, simi)
}

/// One variant alone, bit-identical to its half of [`movielens_pair`]:
/// both variants' events are still simulated, but only the requested
/// dataset is built, over the world's own KG.
fn movielens_one(config: &MovieLensConfig, simi: bool) -> GroupDataset {
    let (world, rand_formed, simi_formed) = world_with_events(config);
    let implicit = world.ratings.to_implicit(crate::groups::POSITIVE_THRESHOLD);
    let formed = if simi { simi_formed } else { rand_formed };
    assemble(config, simi, world.kg, world.item_entity, implicit, formed)
}

/// Generate only the Rand variant (same world and events as
/// [`movielens_pair`]).
pub fn movielens_rand(config: &MovieLensConfig) -> GroupDataset {
    movielens_one(config, false)
}

/// Generate only the Simi variant (same world and events as
/// [`movielens_pair`]).
pub fn movielens_simi(config: &MovieLensConfig) -> GroupDataset {
    movielens_one(config, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pair_builds_and_validates() {
        let cfg = MovieLensConfig::at_scale(Scale::Tiny);
        let (_, rand, simi) = movielens_pair(&cfg);
        assert!(rand.validate().is_empty(), "{:?}", rand.validate());
        assert!(simi.validate().is_empty(), "{:?}", simi.validate());
        assert!(rand.num_groups() > 0);
        assert!(simi.num_groups() > 0);
        assert_eq!(rand.group_size, 8);
        assert_eq!(simi.group_size, 5);
    }

    #[test]
    fn variants_share_the_catalog() {
        let cfg = MovieLensConfig::at_scale(Scale::Tiny);
        let (_, rand, simi) = movielens_pair(&cfg);
        assert_eq!(rand.num_items, simi.num_items);
        assert_eq!(rand.num_users, simi.num_users);
        assert_eq!(rand.kg.len(), simi.kg.len());
        assert_eq!(rand.user_pos.len(), simi.user_pos.len());
    }

    #[test]
    fn simi_has_more_interactions_per_group() {
        // Table I: Simi 11.19 vs Rand 5.05 interactions/group.
        let cfg = MovieLensConfig::at_scale(Scale::Tiny);
        let (_, rand, simi) = movielens_pair(&cfg);
        let r = rand.stats().inter_per_group;
        let s = simi.stats().inter_per_group;
        assert!(s > r, "simi {s:.2} should exceed rand {r:.2}");
    }

    #[test]
    fn individual_builders_match_pair() {
        let cfg = MovieLensConfig::at_scale(Scale::Tiny);
        let (_, rand_a, simi_a) = movielens_pair(&cfg);
        let rand_b = movielens_rand(&cfg);
        assert_eq!(rand_a.num_groups(), rand_b.num_groups());
        assert_eq!(rand_a.group_pos.len(), rand_b.group_pos.len());
        // every field but the KG's hash-ordered name maps
        let same = |a: &GroupDataset, b: &GroupDataset| {
            assert_eq!((&a.name, a.num_users, a.num_items), (&b.name, b.num_users, b.num_items));
            assert_eq!(a.kg.triples(), b.kg.triples());
            assert_eq!(a.item_entity, b.item_entity);
            assert_eq!(format!("{:?}", a.user_pos), format!("{:?}", b.user_pos));
            assert_eq!((&a.groups, a.group_size), (&b.groups, b.group_size));
            assert_eq!(format!("{:?}", a.group_pos), format!("{:?}", b.group_pos));
        };
        same(&rand_a, &rand_b);
        same(&simi_a, &movielens_simi(&cfg));
    }

    #[test]
    fn group_positives_were_rated_by_members() {
        // attendance ratings: every chosen item ends up rated by every
        // member of the group
        let cfg = MovieLensConfig::at_scale(Scale::Tiny);
        let (world, rand, _) = movielens_pair(&cfg);
        for g in 0..rand.num_groups().min(10) {
            for &v in rand.group_pos.items_of(g) {
                for &m in rand.members(g) {
                    assert!(
                        world.ratings.get(m, v).is_some(),
                        "member {m} never rated chosen item {v}"
                    );
                }
            }
        }
    }
}
