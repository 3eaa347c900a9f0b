//! DSM synchronization objects: locks and barriers.
//!
//! Weak consistency models (release, entry, scope, Java) require consistency
//! actions to be taken at synchronization points, so the generic core
//! provides locks and barriers whose acquire/release events run the
//! `lock_acquire` / `lock_release` actions of every protocol in use, each on
//! its own pages only. A barrier is treated as a release followed (after
//! everyone arrived) by an acquire.
//!
//! Each lock and barrier has a *manager node*; acquiring is a blocking RPC to
//! that node whose handler thread waits until the object is available, which
//! naturally serializes contending requesters in virtual time.

use std::fmt;

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::{BlockReason, EngineCtl, SimDuration, SimHandle, SliceCell, WaitSet};

/// Identifier of a DSM lock. Values with the high bit set designate the
/// implicit lock associated with a barrier (so release-consistency protocols
/// can flush at barriers through their ordinary lock hooks).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u64);

/// Identifier of a DSM barrier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BarrierId(pub u64);

const BARRIER_BIT: u64 = 1 << 63;

impl LockId {
    /// The synthetic lock identity used when barrier `b` triggers the
    /// protocol's lock hooks.
    pub fn for_barrier(b: BarrierId) -> LockId {
        LockId(b.0 | BARRIER_BIT)
    }

    /// True if this identity denotes a barrier-induced synchronization point.
    pub fn is_barrier(self) -> bool {
        self.0 & BARRIER_BIT != 0
    }
}

impl fmt::Debug for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_barrier() {
            write!(f, "lock[barrier {}]", self.0 & !BARRIER_BIT)
        } else {
            write!(f, "lock{}", self.0)
        }
    }
}

impl fmt::Debug for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "barrier{}", self.0)
    }
}

/// Manager-side state of one DSM lock.
pub(crate) struct LockState {
    /// Node managing this lock.
    pub manager: NodeId,
    /// The node holding the lock, if any.
    holder: SliceCell<Option<NodeId>>,
    /// Handler threads waiting for the lock to be released.
    waiters: WaitSet,
}

impl LockState {
    pub fn new(manager: NodeId) -> Self {
        LockState {
            manager,
            holder: SliceCell::new(None),
            waiters: WaitSet::new(),
        }
    }

    /// Block the calling handler thread until the lock is free, then take
    /// it on behalf of `requester`.
    pub fn take(&self, sim: &mut SimHandle, requester: NodeId) {
        self.waiters.wait_until(sim, || {
            let mut holder = self.holder.borrow();
            let free = holder.is_none();
            if free {
                *holder = Some(requester);
            }
            free
        });
    }

    /// Free the lock and wake one handler thread waiting for it.
    pub fn give_back(&self, lock: LockId, ctl: &EngineCtl) {
        let holder = self.holder.borrow().take();
        assert!(
            holder.is_some(),
            "release of DSM lock {lock:?} which is not held"
        );
        self.waiters.notify_one((), ctl, SimDuration::ZERO);
    }
}

/// Manager-side state of one DSM barrier.
pub(crate) struct BarrierState {
    /// Node managing this barrier.
    pub manager: NodeId,
    /// Number of participants.
    parties: usize,
    /// (threads arrived in the current episode, episode number)
    round: SliceCell<(usize, u64)>,
    /// Handler threads waiting for the episode to complete.
    waiters: WaitSet,
}

impl BarrierState {
    pub fn new(manager: NodeId, parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one participant");
        BarrierState {
            manager,
            parties,
            round: SliceCell::new((0, 0)),
            waiters: WaitSet::new(),
        }
    }

    /// Count the calling handler thread's arrival: the last of an episode
    /// wakes the others, every other one waits for it.
    pub fn arrive(&self, sim: &mut SimHandle) {
        let (episode, last) = {
            let mut round = self.round.borrow();
            round.0 += 1;
            let episode = round.1;
            let last = round.0 == self.parties;
            if last {
                *round = (0, episode + 1);
            }
            (episode, last)
        };
        if last {
            self.waiters.notify_all((), sim.ctl(), SimDuration::ZERO);
        } else {
            let over = || self.round.borrow().1 != episode;
            self.waiters
                .wait_until_why((), sim, BlockReason::Barrier, over);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_lock_ids_are_distinguishable() {
        let l = LockId(5);
        let b = LockId::for_barrier(BarrierId(5));
        assert!(!l.is_barrier());
        assert!(b.is_barrier());
        assert_ne!(l, b);
        assert_eq!(format!("{l:?}"), "lock5");
        assert!(format!("{b:?}").contains("barrier 5"));
        assert_eq!(format!("{:?}", BarrierId(2)), "barrier2");
    }

    #[test]
    fn lock_state_starts_free() {
        let s = LockState::new(NodeId(0));
        assert_eq!(*s.holder.borrow(), None);
        assert_eq!(s.manager, NodeId(0));
        assert!(s.waiters.is_empty());
    }

    #[test]
    fn barrier_state_starts_at_round_zero() {
        let s = BarrierState::new(NodeId(1), 4);
        assert_eq!(*s.round.borrow(), (0, 0));
        assert_eq!(s.parties, 4);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_party_barrier_is_rejected() {
        BarrierState::new(NodeId(0), 0);
    }
}
