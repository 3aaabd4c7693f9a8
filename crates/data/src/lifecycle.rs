//! Dynamic group lifecycle: create/join/leave mutations over the group
//! tables of a live serving instance.
//!
//! A [`GroupStore`] is the mutable membership state seeded from a
//! [`GroupDataset`](crate::GroupDataset): the dataset's groups occupy
//! ids `0..num_static` with their original member order (so scores for
//! untouched groups stay bit-identical to the read-only path), and
//! every [`create`](GroupStore::create) appends a new id — ids are
//! **monotone** and never reused, groups never dissolve (a
//! [`leave`](GroupStore::leave) that would drop membership below
//! [`MIN_MEMBERS`] is a typed error), so a group id observed by one
//! client can never silently change meaning for another.
//!
//! Mutated groups are kept in **sorted member order**. Floating-point
//! summation is order-sensitive, so the canonical order is what makes
//! "score after N mutations" and "score after rebuilding from the final
//! membership" land on the same bits — the contract the lifecycle
//! oracle suite (`crates/core/tests/lifecycle_oracle.rs`) enforces.
//!
//! Every failure is a fieldless [`LifecycleError`] (cheap to copy,
//! loss-free over the wire protocol); invalid mutations leave the store
//! untouched.

use crate::GroupDataset;

/// Smallest membership a group may have — mirrors the formation
/// protocols in [`crate::groups`], which never emit singleton groups.
pub const MIN_MEMBERS: usize = 2;

/// Typed, fieldless failure modes of lifecycle mutations. `Copy + Eq`
/// so they round-trip the wire protocol as single status bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleError {
    /// The group id names no live group.
    UnknownGroup,
    /// A user id is outside the dataset's user universe.
    UnknownUser,
    /// Join target already contains the user.
    AlreadyMember,
    /// Leave target does not contain the user.
    NotAMember,
    /// Create with fewer than [`MIN_MEMBERS`] members, or a leave that
    /// would shrink the group below it.
    TooFewMembers,
    /// Create with a repeated member id.
    DuplicateMember,
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LifecycleError::UnknownGroup => "unknown group id",
            LifecycleError::UnknownUser => "user id outside the dataset",
            LifecycleError::AlreadyMember => "user is already a member",
            LifecycleError::NotAMember => "user is not a member",
            LifecycleError::TooFewMembers => "groups need at least 2 members",
            LifecycleError::DuplicateMember => "duplicate member in create",
        })
    }
}

impl std::error::Error for LifecycleError {}

/// One lifecycle mutation, as carried by the serve wire protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LifecycleOp {
    /// Form a new group from `members` (≥ [`MIN_MEMBERS`], distinct,
    /// in-range). The new group gets the next monotone id.
    Create { members: Vec<u32> },
    /// Add `user` to `group`.
    Join { group: u32, user: u32 },
    /// Remove `user` from `group`.
    Leave { group: u32, user: u32 },
}

/// Successful-mutation receipt: which group was touched and its
/// membership count afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecycleAck {
    /// The created or mutated group's id.
    pub group: u32,
    /// Members in the group after the mutation.
    pub members: u32,
}

/// A successful mutation, as [`GroupStore::apply`] reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Applied {
    pub ack: LifecycleAck,
}

/// The live group table of a serving scorer — what the serve path
/// dispatches lifecycle opcodes through, and the group bound it checks
/// score requests against.
pub trait GroupLifecycle {
    /// Apply one mutation; the store is unchanged on `Err`.
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError>;
    /// Live groups (valid score targets are `0..group_count()`).
    fn group_count(&self) -> u32;
}

/// Mutable group membership for a live serving instance (see module
/// docs for the id and ordering contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupStore {
    groups: Vec<Vec<u32>>,
    num_users: u32,
    num_static: u32,
    version: u64,
}

impl GroupStore {
    /// A store over explicit seed groups (assumed valid — they come
    /// from a validated dataset).
    pub fn new(groups: Vec<Vec<u32>>, num_users: u32) -> Self {
        let num_static = groups.len() as u32;
        GroupStore { groups, num_users, num_static, version: 0 }
    }

    /// Seed from a dataset's group table.
    pub fn from_dataset(ds: &GroupDataset) -> Self {
        GroupStore::new(ds.groups.clone(), ds.num_users)
    }

    /// Live groups (static + created).
    pub fn num_groups(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Groups present at seed time (ids below this were never created
    /// dynamically).
    pub fn num_static(&self) -> u32 {
        self.num_static
    }

    /// The user universe mutations are validated against.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Monotone mutation counter — bumps once per *successful*
    /// mutation, so observers can cheaply detect change.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Members of one live group.
    pub fn members(&self, group: u32) -> Result<&[u32], LifecycleError> {
        self.groups.get(group as usize).map(Vec::as_slice).ok_or(LifecycleError::UnknownGroup)
    }

    /// The full membership table (rebuild-from-scratch reads this).
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// Form a new group; returns its id. Membership is canonicalised to
    /// sorted order.
    pub fn create(&mut self, members: &[u32]) -> Result<u32, LifecycleError> {
        if members.len() < MIN_MEMBERS {
            return Err(LifecycleError::TooFewMembers);
        }
        if members.iter().any(|&u| u >= self.num_users) {
            return Err(LifecycleError::UnknownUser);
        }
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(LifecycleError::DuplicateMember);
        }
        let id = self.groups.len() as u32;
        self.groups.push(sorted);
        self.version += 1;
        Ok(id)
    }

    /// Add `user` to `group`; returns the new member count.
    pub fn join(&mut self, group: u32, user: u32) -> Result<usize, LifecycleError> {
        if user >= self.num_users {
            return Err(LifecycleError::UnknownUser);
        }
        let members = self.groups.get_mut(group as usize).ok_or(LifecycleError::UnknownGroup)?;
        if members.contains(&user) {
            return Err(LifecycleError::AlreadyMember);
        }
        // canonical sorted order for every mutated group, so replaying
        // the final membership reproduces the same summation order
        members.push(user);
        members.sort_unstable();
        self.version += 1;
        Ok(self.groups[group as usize].len())
    }

    /// Remove `user` from `group`; returns the remaining member count.
    /// Groups never dissolve: shrinking below [`MIN_MEMBERS`] is an
    /// error and leaves the group unchanged.
    pub fn leave(&mut self, group: u32, user: u32) -> Result<usize, LifecycleError> {
        let members = self.groups.get_mut(group as usize).ok_or(LifecycleError::UnknownGroup)?;
        let at = members.iter().position(|&m| m == user).ok_or(LifecycleError::NotAMember)?;
        if members.len() - 1 < MIN_MEMBERS {
            return Err(LifecycleError::TooFewMembers);
        }
        members.remove(at);
        self.version += 1;
        Ok(self.groups[group as usize].len())
    }

    /// Apply one [`LifecycleOp`]; the store is unchanged on `Err`.
    pub fn apply(&mut self, op: &LifecycleOp) -> Result<Applied, LifecycleError> {
        let ack = match op {
            LifecycleOp::Create { members } => {
                let group = self.create(members)?;
                LifecycleAck { group, members: members.len() as u32 }
            }
            LifecycleOp::Join { group, user } => {
                LifecycleAck { group: *group, members: self.join(*group, *user)? as u32 }
            }
            LifecycleOp::Leave { group, user } => {
                LifecycleAck { group: *group, members: self.leave(*group, *user)? as u32 }
            }
        };
        Ok(Applied { ack })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> GroupStore {
        GroupStore::new(vec![vec![0, 1], vec![2, 3, 4]], 6)
    }

    #[test]
    fn create_appends_monotone_sorted_ids() {
        let mut s = store();
        assert_eq!(s.create(&[5, 2, 0]).unwrap(), 2);
        assert_eq!(s.members(2).unwrap(), &[0, 2, 5]);
        assert_eq!(s.create(&[1, 3]).unwrap(), 3);
        assert_eq!(s.num_groups(), 4);
        assert_eq!(s.num_static(), 2);
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn create_rejections_leave_store_unchanged() {
        let mut s = store();
        let before = s.clone();
        assert_eq!(s.create(&[0]), Err(LifecycleError::TooFewMembers));
        assert_eq!(s.create(&[]), Err(LifecycleError::TooFewMembers));
        assert_eq!(s.create(&[0, 6]), Err(LifecycleError::UnknownUser));
        assert_eq!(s.create(&[0, 1, 0]), Err(LifecycleError::DuplicateMember));
        assert_eq!(s, before, "failed create must not mutate");
    }

    #[test]
    fn join_keeps_sorted_order_and_validates() {
        let mut s = store();
        assert_eq!(s.join(0, 5).unwrap(), 3);
        assert_eq!(s.members(0).unwrap(), &[0, 1, 5]);
        assert_eq!(s.join(0, 3).unwrap(), 4);
        assert_eq!(s.members(0).unwrap(), &[0, 1, 3, 5]);
        assert_eq!(s.join(0, 3), Err(LifecycleError::AlreadyMember));
        assert_eq!(s.join(9, 3), Err(LifecycleError::UnknownGroup));
        assert_eq!(s.join(0, 7), Err(LifecycleError::UnknownUser));
    }

    #[test]
    fn leave_never_dissolves_a_group() {
        let mut s = store();
        assert_eq!(s.leave(1, 3).unwrap(), 2);
        assert_eq!(s.members(1).unwrap(), &[2, 4]);
        assert_eq!(s.leave(1, 2), Err(LifecycleError::TooFewMembers));
        assert_eq!(s.members(1).unwrap(), &[2, 4], "failed leave must not mutate");
        assert_eq!(s.leave(1, 5), Err(LifecycleError::NotAMember));
        assert_eq!(s.leave(7, 0), Err(LifecycleError::UnknownGroup));
    }

    #[test]
    fn apply_reports_acks() {
        let mut s = store();
        let a = s.apply(&LifecycleOp::Create { members: vec![5, 0] }).unwrap();
        assert_eq!(a.ack, LifecycleAck { group: 2, members: 2 });
        let a = s.apply(&LifecycleOp::Join { group: 2, user: 3 }).unwrap();
        assert_eq!(a.ack, LifecycleAck { group: 2, members: 3 });
        let a = s.apply(&LifecycleOp::Leave { group: 2, user: 0 }).unwrap();
        assert_eq!(a.ack, LifecycleAck { group: 2, members: 2 });
        assert_eq!(s.version(), 3);
    }

    #[test]
    fn errors_display_without_panicking() {
        for e in [
            LifecycleError::UnknownGroup,
            LifecycleError::UnknownUser,
            LifecycleError::AlreadyMember,
            LifecycleError::NotAMember,
            LifecycleError::TooFewMembers,
            LifecycleError::DuplicateMember,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
