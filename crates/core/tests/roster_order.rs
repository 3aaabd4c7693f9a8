//! Roster order in cold-start scoring: [`Kgag::score_members`] scores a
//! member list in ascending user order, the order
//! `GroupStore::create` stores a roster in. Every order of the same
//! members therefore scores the same bits, and those are the bits the
//! group created from them serves. The PI tower's peer slots are
//! ordered, so without the sort another order moves the last bits.

use kgag::{Kgag, KgagConfig, ScoreCases};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::LifecycleOp;
use kgag_tensor::rng::SplitMix64;
use kgag_testkit::check::Runner;
use kgag_testkit::gen::u64_in;
use kgag_testkit::prop_assert_eq;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn any_roster_order_scores_as_the_created_group() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 1, ..Default::default() });
    model.fit(&split);
    let live = model.dynamic_scorer();
    let nominal = model.group_size();
    Runner::new("roster-order").cases(24).run(&u64_in(0..u64::MAX), |&seed| {
        let mut rng = SplitMix64::new(seed);
        // the nominal size runs the PI tower; one off it runs SP only
        let size = nominal + rng.next_below(2);
        let mut roster: Vec<u32> = (0..ds.num_users).collect();
        rng.shuffle(&mut roster);
        roster.truncate(size);
        let items: Vec<u32> =
            (0..5).map(|_| rng.next_below(ds.num_items as usize) as u32).collect();
        let want = bits(&model.score_members(&roster, &items).expect("valid roster"));
        let ack = live.apply(&LifecycleOp::Create { members: roster }).expect("create");
        let served = live.try_score_cases(&[(ack.group, items)]).remove(0).expect("created group");
        prop_assert_eq!(bits(&served), want);
        Ok(())
    });
}
