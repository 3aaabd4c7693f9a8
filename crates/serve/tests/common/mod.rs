//! A stub scorer as a registry entry, shared by the test binaries that
//! serve stubs through the TCP front door.

use kgag::{RegistryModel, ScoreCases, ScoreError};
use kgag_data::{GroupLifecycle, GroupStore, LifecycleAck, LifecycleError, LifecycleOp};
use std::sync::{Arc, Mutex};

/// A stub as one live scorer: `scorer` scores, `groups` is the table
/// the lifecycle opcodes mutate and opcode 0 is bounds-checked against.
/// Stub scores never read the rosters.
struct StubEntry<S> {
    scorer: S,
    groups: Mutex<GroupStore>,
}

impl<S: ScoreCases> ScoreCases for StubEntry<S> {
    fn try_score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ScoreError>> {
        self.scorer.try_score_cases(cases)
    }
}

impl<S> GroupLifecycle for StubEntry<S> {
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        self.groups.lock().unwrap().apply(op).map(|a| a.ack)
    }

    fn group_count(&self) -> u32 {
        self.groups.lock().unwrap().num_groups()
    }
}

/// `scorer` as a registry entry over `groups`.
pub fn stub_entry(scorer: impl ScoreCases + Send + 'static, groups: GroupStore) -> RegistryModel {
    RegistryModel::new(Arc::new(StubEntry { scorer, groups: Mutex::new(groups) }), 0)
}

/// `n` bound groups of users 0 and 1 out of 10: a table under which
/// every group id below `n` is a valid score target.
pub fn pairs(n: usize) -> GroupStore {
    GroupStore::new(vec![vec![0, 1]; n], 10)
}
