//! Observation seam for the `dsmpm2-verify` checker.
//!
//! The generic core reports three kinds of events to an optionally installed
//! [`VerifyHooks`] observer: application-level shared-memory accesses (from
//! the typed accessors of [`crate::DsmThreadCtx`]), synchronization events
//! (lock acquire/release and barrier enter/exit), and ownership-succession
//! version updates at a page's home manager. The verify crate builds a
//! happens-before race detector and a protocol invariant oracle on top of
//! this stream.
//!
//! The seam is designed to be invisible when unused: a runtime built with no
//! hooks installed pays one `Option` check per reported event and nothing
//! else, and an installed observer must never charge virtual time or mutate
//! DSM state — instrumented runs are bit-identical (memory *and* virtual
//! time) to uninstrumented ones, which `tests/verify_conformance.rs`
//! enforces.

use std::sync::{Arc, Mutex};

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::{SimTime, ThreadId};

use crate::page::{DsmAddr, PageId};
use crate::runtime::DsmRuntime;
use crate::sync::{BarrierId, LockId};

/// The consistency model a protocol promises to application code.
///
/// The paper's Table 2 classifies every built-in protocol by its model; the
/// verify layer uses the declaration to decide which unsynchronized sharing
/// patterns are findings. Under [`ConsistencyModel::Sequential`] every access
/// is globally serialized by the protocol itself, so a data race is benign by
/// definition; under the relaxed models a pair of conflicting accesses not
/// ordered by synchronization reads or clobbers stale data and is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConsistencyModel {
    /// Sequential consistency: one global serialization of all accesses.
    Sequential,
    /// Release consistency: writes propagate at release/acquire pairs.
    Release,
    /// The Java memory model variant of release consistency (monitor
    /// enter/exit, on-the-fly recorded writes).
    Java,
    /// Entry consistency: data bound to a lock is made consistent only by
    /// acquiring exactly that lock.
    Entry,
}

impl ConsistencyModel {
    /// True if the model serializes every access on its own, making
    /// unsynchronized conflicting accesses benign (no race finding).
    pub fn tolerates_unsynchronized_sharing(self) -> bool {
        matches!(self, ConsistencyModel::Sequential)
    }
}

/// One application-level access to shared memory, as observed by the typed
/// accessors after access detection has granted the required rights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// The accessing thread's local virtual time.
    pub time: SimTime,
    /// Node the access executed on (after any migration).
    pub node: NodeId,
    /// Simulated thread performing the access.
    pub thread: ThreadId,
    /// Page containing the accessed range.
    pub page: PageId,
    /// First byte of the accessed range.
    pub addr: DsmAddr,
    /// Length of the accessed range in bytes.
    pub len: usize,
    /// True for writes, false for reads.
    pub is_write: bool,
}

/// One synchronization event of an application thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// The thread acquired a DSM lock (the lock is now held).
    LockAcquired {
        /// The thread's local virtual time.
        time: SimTime,
        /// Node the thread runs on.
        node: NodeId,
        /// The acquiring thread.
        thread: ThreadId,
        /// The acquired lock.
        lock: LockId,
    },
    /// The thread is about to release a DSM lock (consistency actions and
    /// the release message follow).
    LockReleasing {
        /// The thread's local virtual time.
        time: SimTime,
        /// Node the thread runs on.
        node: NodeId,
        /// The releasing thread.
        thread: ThreadId,
        /// The released lock.
        lock: LockId,
    },
    /// The thread arrived at a DSM barrier (release half).
    BarrierEnter {
        /// The thread's local virtual time.
        time: SimTime,
        /// Node the thread runs on.
        node: NodeId,
        /// The arriving thread.
        thread: ThreadId,
        /// The barrier.
        barrier: BarrierId,
    },
    /// The thread passed a DSM barrier (acquire half; every participant has
    /// arrived).
    BarrierExit {
        /// The thread's local virtual time.
        time: SimTime,
        /// Node the thread runs on.
        node: NodeId,
        /// The exiting thread.
        thread: ThreadId,
        /// The barrier.
        barrier: BarrierId,
    },
}

impl SyncEvent {
    /// The event's virtual time.
    pub fn time(self) -> SimTime {
        match self {
            SyncEvent::LockAcquired { time, .. }
            | SyncEvent::LockReleasing { time, .. }
            | SyncEvent::BarrierEnter { time, .. }
            | SyncEvent::BarrierExit { time, .. } => time,
        }
    }

    /// The node the event happened on.
    pub fn node(self) -> NodeId {
        match self {
            SyncEvent::LockAcquired { node, .. }
            | SyncEvent::LockReleasing { node, .. }
            | SyncEvent::BarrierEnter { node, .. }
            | SyncEvent::BarrierExit { node, .. } => node,
        }
    }

    /// The thread the event belongs to.
    pub fn thread(self) -> ThreadId {
        match self {
            SyncEvent::LockAcquired { thread, .. }
            | SyncEvent::LockReleasing { thread, .. }
            | SyncEvent::BarrierEnter { thread, .. }
            | SyncEvent::BarrierExit { thread, .. } => thread,
        }
    }
}

/// Observer of the generic core's verification event stream.
///
/// Implementations receive the runtime by reference so per-step invariant
/// checkers can probe page tables and frame stores at the instant of the
/// event; they must not hold on to a strong `DsmRuntime` clone (that would
/// cycle through the runtime's own `Arc`) and must never charge virtual time
/// or mutate DSM state.
pub trait VerifyHooks: Send + Sync {
    /// An application thread completed a shared-memory access.
    fn mem_access(&self, rt: &DsmRuntime, access: MemAccess);

    /// An application thread crossed a synchronization point.
    fn sync_event(&self, rt: &DsmRuntime, event: SyncEvent);

    /// An `AcquireDone` notice updated (or was gated away from updating) the
    /// home manager's ownership-succession version for `page`: `old` is the
    /// version before the notice was processed, `new` the version after.
    /// `new < old` means the succession record was rewound — a protocol bug.
    fn owner_version_update(
        &self,
        rt: &DsmRuntime,
        time: SimTime,
        node: NodeId,
        page: PageId,
        old: u64,
        new: u64,
    );
}

static GLOBAL_HOOKS: Mutex<Option<Arc<dyn VerifyHooks>>> = Mutex::new(None);

/// Install `hooks` as the process-global observer captured by every
/// [`DsmRuntime`] constructed while the returned guard is alive.
///
/// The global is consulted once, at runtime construction; runtimes built
/// before the install or after the guard drops are unaffected. This is how
/// the verify crate instruments workloads that build their own runtimes
/// internally. Installations must not overlap — tests that use this guard
/// serialize on their own mutex.
#[must_use = "the hooks are uninstalled when the guard drops"]
pub fn install_global_verify_hooks(hooks: Arc<dyn VerifyHooks>) -> VerifyHooksGuard {
    let mut slot = GLOBAL_HOOKS.lock().expect("verify hooks lock");
    assert!(
        slot.is_none(),
        "global verify hooks are already installed; installations must not overlap"
    );
    *slot = Some(hooks);
    VerifyHooksGuard { _private: () }
}

pub(crate) fn global_verify_hooks() -> Option<Arc<dyn VerifyHooks>> {
    GLOBAL_HOOKS.lock().expect("verify hooks lock").clone()
}

/// Uninstalls the process-global verify hooks when dropped. Returned by
/// [`install_global_verify_hooks`].
pub struct VerifyHooksGuard {
    _private: (),
}

impl Drop for VerifyHooksGuard {
    fn drop(&mut self) {
        *GLOBAL_HOOKS.lock().expect("verify hooks lock") = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_model_classifies_benign_sharing() {
        assert!(ConsistencyModel::Sequential.tolerates_unsynchronized_sharing());
        assert!(!ConsistencyModel::Release.tolerates_unsynchronized_sharing());
        assert!(!ConsistencyModel::Java.tolerates_unsynchronized_sharing());
        assert!(!ConsistencyModel::Entry.tolerates_unsynchronized_sharing());
    }

    #[test]
    fn sync_event_accessors_cover_every_variant() {
        let t = SimTime::from_nanos(5);
        let mut engine = crate::Engine::new();
        let thread = engine.spawn("t", |_| {});
        engine.run().unwrap();
        let events = [
            SyncEvent::LockAcquired {
                time: t,
                node: NodeId(1),
                thread,
                lock: LockId(7),
            },
            SyncEvent::LockReleasing {
                time: t,
                node: NodeId(1),
                thread,
                lock: LockId(7),
            },
            SyncEvent::BarrierEnter {
                time: t,
                node: NodeId(1),
                thread,
                barrier: BarrierId(9),
            },
            SyncEvent::BarrierExit {
                time: t,
                node: NodeId(1),
                thread,
                barrier: BarrierId(9),
            },
        ];
        for e in events {
            assert_eq!(e.time(), t);
            assert_eq!(e.node(), NodeId(1));
            assert_eq!(e.thread(), thread);
        }
    }
}
