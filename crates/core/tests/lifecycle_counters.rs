//! The lifecycle counters count every applied op with telemetry off.
//!
//! `kgag serve` prints `lifecycle.groups_created`, `lifecycle.joins` and
//! `lifecycle.leaves` in its drain summary whether or not telemetry is
//! on, so [`kgag::DynamicScorer::apply`] records them unconditionally.
//! The counters are process-global, so this check has a test binary of
//! its own: no other test in the process moves them.

use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::LifecycleOp;

#[test]
fn lifecycle_counters_move_by_the_applied_ops_with_telemetry_off() {
    assert!(!kgag_obs::enabled(), "run without KGAG_TELEMETRY: the check is for telemetry off");
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    // untrained weights: the counters do not depend on a fit
    let model = Kgag::new(&ds, &split, KgagConfig::default());
    let live = model.dynamic_scorer();
    let counters =
        ["lifecycle.groups_created", "lifecycle.joins", "lifecycle.leaves"].map(kgag_obs::counter);
    let before = counters.each_ref().map(|c| c.get());

    let a = live.apply(&LifecycleOp::Create { members: vec![0, 1] }).expect("valid create");
    let b = live.apply(&LifecycleOp::Create { members: vec![2, 3, 4] }).expect("valid create");
    for (group, user) in [(a.group, 5), (a.group, 6), (b.group, 7)] {
        live.apply(&LifecycleOp::Join { group, user }).expect("valid join");
    }
    live.apply(&LifecycleOp::Leave { group: b.group, user: 2 }).expect("valid leave");
    // rejected ops change nothing, so they count for nothing
    assert!(live.apply(&LifecycleOp::Create { members: vec![0] }).is_err());
    assert!(live.apply(&LifecycleOp::Join { group: a.group, user: 5 }).is_err());
    assert!(live.apply(&LifecycleOp::Leave { group: a.group, user: 9 }).is_err());

    let moved: Vec<u64> = counters.iter().zip(before).map(|(c, b)| c.get() - b).collect();
    assert_eq!(moved, [2, 3, 1], "created, joins, leaves");
}
