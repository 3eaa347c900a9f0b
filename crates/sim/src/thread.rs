//! Simulated thread identity and the worker a simulated thread runs on.
//!
//! At most one simulated thread executes at any wall-clock instant: the
//! scheduler hands control to the thread chosen by the event queue and
//! regains it when the thread parks again. That makes every run fully
//! deterministic while letting user code be written as ordinary imperative
//! Rust (the PM2 programming model).
//!
//! A simulated thread runs on a *worker*: a [`ThreadSlot`] with its
//! execution context, which the engine keeps for the whole run. A worker
//! runs one thread — its *occupant* — at a time; when the occupant's body
//! returns, the worker falls vacant and serves the next spawn, the way a
//! PM2 node serves an RPC by a pre-existing thread. The platform picks the
//! execution context ([`Backing::PLATFORM`]); both share one slot type and
//! one atomic [`Phase`] word:
//!
//! * **Continuation**, wherever [`crate::continuation`] has a stack switch
//!   (x86-64): the worker is a stackful coroutine run *on the scheduler's
//!   own OS thread* — a grant is a ~dozen-instruction stack switch into
//!   [`crate::continuation::Coro`], a park is the switch back. No OS thread
//!   wakes up, and the phase word is a record, not an arbiter.
//! * **Baton**, everywhere else: the worker is a dedicated OS thread; each
//!   side publishes its transition with one atomic store and wakes the
//!   other with one `std::thread::unpark`, spinning briefly before parking.
//!   Machine-independent, and kept honest on x86-64 by the
//!   `--cfg dsm_force_no_coro` CI lane.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::{fmt, ptr};

use crate::cell::{SliceCell, SliceRc};
use crate::continuation::{self, Coro};
use crate::engine::{BlockReason, BLOCK_REASONS};
use crate::handle::SimHandle;

/// Identifier of a simulated thread, unique within one [`crate::Engine`]:
/// ids are never reused, though workers are.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub(crate) u64);

impl ThreadId {
    /// Raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Which execution substrate backs a simulated thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Backing {
    /// Stackful coroutine resumed on the scheduler's OS thread.
    Continuation,
    /// Dedicated OS thread, futex-style atomic baton.
    Baton,
}

impl Backing {
    /// The one substrate this build uses: the stack switch where the target
    /// has one, the OS-thread baton elsewhere.
    pub const PLATFORM: Backing = if continuation::SUPPORTED {
        Backing::Continuation
    } else {
        Backing::Baton
    };
}

/// Life-cycle of a worker with respect to the scheduler grant, stored as a
/// `u32` in the slot's atomic phase word. A vacant worker is `Parked` too,
/// waiting for its next occupant's first grant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    /// OS thread spawned but has not yet reached its first park
    /// (continuation slots skip this: they are born `Parked`).
    Created = 0,
    /// Waiting for the scheduler to grant a slice.
    Parked = 1,
    /// The scheduler has granted a slice; the thread has not resumed yet
    /// (baton only).
    Granted = 2,
    /// Currently executing user code.
    Running = 3,
    /// The worker's loop has ended (teardown); it will never run again.
    Finished = 4,
}

impl Phase {
    fn from_u32(v: u32) -> Phase {
        match v {
            0 => Phase::Created,
            1 => Phase::Parked,
            2 => Phase::Granted,
            3 => Phase::Running,
            4 => Phase::Finished,
            other => unreachable!("invalid phase word {other}"),
        }
    }
}

/// Iterations of `spin_loop` a baton side burns before parking its OS
/// thread. Spinning only pays off when the peer can make progress on another
/// core; on a single-CPU host every iteration burns the quantum the peer
/// needs, so park immediately. Affects wall-clock speed only.
fn baton_spin() -> u32 {
    static SPIN: OnceLock<u32> = OnceLock::new();
    *SPIN.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 64,
        _ => 0,
    })
}

/// The scheduler's OS-thread handle, published through an `AtomicPtr` so
/// baton threads can wake it with SeqCst Dekker-style visibility: a thread
/// that stores its phase and then fails to see the handle is guaranteed the
/// scheduler has not yet read the phase, so the scheduler will observe the
/// store before parking.
pub(crate) struct SchedHandle {
    ptr: AtomicPtr<Thread>,
}

impl SchedHandle {
    pub fn new() -> Self {
        SchedHandle {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Publish the calling thread as this handle's owner. Idempotent; only
    /// ever called from the scheduler thread.
    pub fn register_current(&self) {
        if self.ptr.load(Ordering::SeqCst).is_null() {
            let boxed = Box::into_raw(Box::new(std::thread::current()));
            if self
                .ptr
                .compare_exchange(ptr::null_mut(), boxed, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                // Somebody (us, earlier) already registered.
                // SAFETY: the CAS failed, so `boxed` was never published;
                // we still hold its only pointer, fresh from Box::into_raw.
                drop(unsafe { Box::from_raw(boxed) });
            }
        }
    }

    pub(crate) fn unpark(&self) {
        let p = self.ptr.load(Ordering::SeqCst);
        if !p.is_null() {
            // SAFETY: a non-null pointer was published by `register_current`
            // from Box::into_raw and is only freed in Drop, which cannot run
            // concurrently with this call (the engine's Shared owns us).
            unsafe { &*p }.unpark();
        }
    }
}

impl Drop for SchedHandle {
    fn drop(&mut self) {
        let p = self.ptr.swap(ptr::null_mut(), Ordering::SeqCst);
        if !p.is_null() {
            // SAFETY: we own the handle exclusively in Drop; the pointer
            // came from Box::into_raw in `register_current` and the swap
            // above makes this the only reclamation.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// Value of the park-reason word while the occupant has not parked.
const NOT_PARKED: u8 = u8::MAX;

/// Value of a vacant worker's occupant word. Not a thread id.
const VACANT: u64 = u64::MAX;

/// A simulated thread's body, boxed by the spawn and run by a worker.
pub(crate) type Body = Box<dyn FnOnce(&mut SimHandle) + Send>;

/// A worker: the hand-off slot shared between the scheduler and whichever
/// simulated thread occupies it.
pub(crate) struct ThreadSlot {
    /// Position in the engine's table of workers.
    pub index: usize,
    /// Id of the occupant, [`VACANT`] between occupants. Written by the spawn
    /// that occupies the worker and by the worker when its occupant ends,
    /// read by every wake: ordered by the hand-off, so relaxed.
    occupant: AtomicU64,
    /// The occupant's name.
    name: SliceCell<SliceRc<str>>,
    /// The occupant's body, until its first grant takes it.
    body: SliceCell<Option<Body>>,
    /// Execution substrate backing this worker.
    backing: Backing,
    /// Current shard key of the occupant (updated on migration).
    shard: AtomicU64,
    /// The atomic phase word ([`Phase`] as u32).
    phase: AtomicU32,
    /// Teardown flag; checked by the thread before resuming user code.
    shutdown: AtomicBool,
    // ----- baton ------------------------------------------------------------
    /// Handle of the backing OS thread, set by that thread before its first
    /// `Parked` store (the hand-off on `phase` publishes it to the
    /// scheduler). Never set for continuation slots.
    os_thread: OnceLock<Thread>,
    /// The scheduler's handle (owned by the engine's `Shared`): whom the
    /// backing OS thread wakes when it parks or finishes. Only a baton slot
    /// holds it; a continuation parks by switching stacks.
    sched: Option<Arc<SchedHandle>>,
    // ----- continuation -----------------------------------------------------
    /// The coroutine carrying this worker's slices. Only the scheduler
    /// thread touches it — to grant or tear down — or the coroutine itself
    /// while the scheduler is suspended inside the grant.
    coro: UnsafeCell<Option<Coro>>,
    /// The [`BlockReason`] of the occupant's latest park, [`NOT_PARKED`]
    /// before its first one: what a deadlock report names. Written by the
    /// occupant itself right before it parks and cleared when it ends.
    park_reason: AtomicU8,
}

// SAFETY: every field but `coro` is Sync by construction. The `UnsafeCell`
// around the coroutine is only dereferenced by (a) the path that makes the
// worker, before the slot is shared, (b) the scheduler thread granting a
// slice — there is one scheduler thread per engine, and it grants one slot
// at a time, (c) the coroutine body itself while that grant is suspended in
// `Coro::resume`, and (d) teardown after the loop, on the scheduler thread —
// all mutually exclusive.
unsafe impl Send for ThreadSlot {}
// SAFETY: see the Send justification above — every access to the one
// non-Sync field (`coro`) happens on, or nested inside a grant of, the one
// scheduler thread.
unsafe impl Sync for ThreadSlot {}

impl ThreadSlot {
    /// A vacant worker, number `index` of its engine. A baton slot keeps a
    /// reference to `sched`; a continuation slot takes none.
    pub fn new(index: usize, backing: Backing, sched: &Arc<SchedHandle>) -> Self {
        ThreadSlot {
            index,
            occupant: AtomicU64::new(VACANT),
            name: SliceCell::new(SliceRc::from("")),
            body: SliceCell::new(None),
            backing,
            shard: AtomicU64::new(0),
            phase: AtomicU32::new(Phase::Created as u32),
            shutdown: AtomicBool::new(false),
            os_thread: OnceLock::new(),
            sched: (backing == Backing::Baton).then(|| Arc::clone(sched)),
            coro: UnsafeCell::new(None),
            park_reason: AtomicU8::new(NOT_PARKED),
        }
    }

    /// Hand this vacant worker thread `id`: its name, shard and body, which
    /// the worker takes at the thread's first grant.
    pub fn occupy(&self, id: ThreadId, name: SliceRc<str>, shard: u64, body: Body) {
        debug_assert!(self.is_vacant(), "occupied an occupied worker");
        *self.name.borrow() = name;
        *self.body.borrow() = Some(body);
        self.shard.store(shard, Ordering::Relaxed);
        self.occupant.store(id.0, Ordering::Relaxed);
    }

    /// Called by the worker when its occupant's body has returned or
    /// unwound, before it parks for the next occupant.
    pub fn vacate(&self) {
        self.park_reason.store(NOT_PARKED, Ordering::Relaxed);
        self.occupant.store(VACANT, Ordering::Relaxed);
    }

    /// The occupant's body, if its first grant has not taken it yet.
    pub fn take_body(&self) -> Option<Body> {
        self.body.borrow().take()
    }

    /// The occupant's id (meaningless while the worker is vacant).
    pub fn id(&self) -> ThreadId {
        ThreadId(self.occupant.load(Ordering::Relaxed))
    }

    /// The occupant's name.
    pub fn name(&self) -> SliceRc<str> {
        SliceRc::clone(&self.name.borrow())
    }

    /// True if the worker runs thread `id`: a wake addressed to any other
    /// thread is stale.
    pub fn runs(&self, id: ThreadId) -> bool {
        self.occupant.load(Ordering::Relaxed) == id.0
    }

    /// True between the end of one occupant and the spawn of the next.
    pub fn is_vacant(&self) -> bool {
        self.occupant.load(Ordering::Relaxed) == VACANT
    }

    /// The thread's current shard key.
    pub fn shard_key(&self) -> u64 {
        self.shard.load(Ordering::SeqCst)
    }

    /// Re-home the thread onto another shard (thread migration). Takes
    /// effect for wake-ups scheduled after this call.
    pub fn set_shard_key(&self, key: u64) {
        self.shard.store(key, Ordering::SeqCst);
    }

    /// Record why the occupant is about to park. Relaxed: the occupant is
    /// the one writer, and the one reader, the deadlock report, runs after
    /// the hand-off.
    pub fn set_park_reason(&self, reason: BlockReason) {
        self.park_reason.store(reason as u8, Ordering::Relaxed);
    }

    /// True once teardown has begun: a thread that observes it must unwind
    /// (or, if it never started, return) without running user code.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    // ----- thread side ------------------------------------------------------

    /// Called by the simulated thread: announce that we are parked and wait
    /// until the scheduler grants the next slice. Returns `false` if the
    /// engine is shutting down and the thread must unwind without running
    /// user code.
    pub fn park_and_wait(&self) -> bool {
        match self.backing {
            Backing::Continuation => {
                // SAFETY: running inside this slot's coroutine (this is its
                // park path), which is the cell's one admitted accessor
                // while the scheduler is suspended in the grant.
                let coro = unsafe { (*self.coro.get()).as_mut().expect("continuation present") };
                // SAFETY: on this coroutine's private stack — the
                // precondition of yield_to_scheduler. All phase bookkeeping
                // is on the scheduler's side of the switch.
                unsafe { coro.yield_to_scheduler() };
                // The scheduler granted a new slice — or teardown is
                // unwinding us.
                !self.shutdown_requested()
            }
            Backing::Baton => self.park_and_wait_baton(),
        }
    }

    /// The scheduler's handle, which only a baton slot holds.
    fn sched(&self) -> &SchedHandle {
        self.sched
            .as_deref()
            .expect("a baton slot holds the scheduler's handle")
    }

    fn park_and_wait_baton(&self) -> bool {
        // Publish our handle before the Parked store so the scheduler can
        // unpark us as soon as it observes the phase.
        let _ = self.os_thread.set(std::thread::current());
        self.phase.store(Phase::Parked as u32, Ordering::SeqCst);
        self.sched().unpark();
        let spin = baton_spin();
        let mut spins = 0u32;
        loop {
            let phase = self.phase.load(Ordering::SeqCst);
            if phase == Phase::Granted as u32 {
                break;
            }
            if self.shutdown_requested() {
                return false;
            }
            if spins < spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        if self.shutdown_requested() {
            return false;
        }
        self.phase.store(Phase::Running as u32, Ordering::SeqCst);
        true
    }

    /// Called by the backing OS thread of a baton slot when its worker loop
    /// has ended (a continuation's end is published by the resume that
    /// drove it there).
    pub fn mark_finished(&self) {
        self.phase.store(Phase::Finished as u32, Ordering::SeqCst);
        self.sched().unpark();
    }

    // ----- scheduler side ---------------------------------------------------

    /// Install the coroutine carrying this worker's slices. Called by the
    /// path that makes the worker, before the slot is shared with the
    /// scheduler, so the plain store is exclusive; the `Parked` store —
    /// relaxed, like every transition of a continuation's phase — makes the
    /// slot immediately grantable (continuations have no Created window).
    pub fn init_continuation(&self, coro: Coro) {
        debug_assert_eq!(self.backing, Backing::Continuation);
        // SAFETY: called before the slot is shared (worker creation), so this
        // plain store through the UnsafeCell is exclusive.
        unsafe { *self.coro.get() = Some(coro) };
        self.phase.store(Phase::Parked as u32, Ordering::Relaxed);
    }

    /// Called by the scheduler: grant a slice to the (eventually) parked
    /// worker and block until it parks again. Returns `false` if the
    /// worker's loop has already ended.
    ///
    /// For a continuation "block until it parks" is literal but OS-free: the
    /// slice executes right here, on the caller's stack frame, via a
    /// coroutine switch.
    pub fn grant_and_wait(&self) -> bool {
        match self.backing {
            Backing::Continuation => self.grant_and_wait_continuation(),
            Backing::Baton => self.grant_and_wait_baton(),
        }
    }

    /// The scheduler is the only thread that ever looks at a continuation
    /// slot's phase, so the word is a record rather than an arbiter and its
    /// transitions are relaxed.
    fn grant_and_wait_continuation(&self) -> bool {
        match Phase::from_u32(self.phase.load(Ordering::Relaxed)) {
            Phase::Finished => return false,
            Phase::Parked => {}
            other => unreachable!("continuation slot granted while {other:?}"),
        }
        self.phase.store(Phase::Running as u32, Ordering::Relaxed);
        let done = {
            // SAFETY: we are the scheduler thread and the slot is Parked, so
            // neither the coroutine nor anyone else is inside the cell.
            let coro = unsafe { (*self.coro.get()).as_mut().expect("continuation present") };
            // SAFETY: same exclusivity; a Parked slot's coroutine is
            // suspended and not done, so it is resumable.
            unsafe { coro.resume() }
        };
        self.phase.store(
            if done { Phase::Finished } else { Phase::Parked } as u32,
            Ordering::Relaxed,
        );
        true
    }

    fn grant_and_wait_baton(&self) -> bool {
        // Right after spawn the OS thread may not have reached its first
        // park yet.
        if self.await_parked_or_finished() == Phase::Finished {
            return false;
        }
        // The thread reads nothing but the phase word after observing
        // `Granted`.
        self.phase.store(Phase::Granted as u32, Ordering::SeqCst);
        self.os_thread
            .get()
            .expect("parked thread published its handle")
            .unpark();
        self.await_parked_or_finished();
        true
    }

    /// Spin-then-park (on the scheduler thread) until the backing OS thread
    /// has stored `Parked` or `Finished`, returning the phase observed. The
    /// scheduler's handle must already be registered: the thread unparks it
    /// right after either store (SeqCst pairing, see [`SchedHandle`]).
    fn await_parked_or_finished(&self) -> Phase {
        let spin = baton_spin();
        let mut spins = 0u32;
        loop {
            let phase = self.phase.load(Ordering::SeqCst);
            if phase == Phase::Parked as u32 || phase == Phase::Finished as u32 {
                return Phase::from_u32(phase);
            }
            if spins < spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }

    /// Called during teardown: release a baton thread that is still waiting
    /// for a grant so its OS thread can exit. (Continuation slots only take
    /// the flag here; their unwind is driven by `teardown_continuation`.)
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.os_thread.get() {
            thread.unpark();
        }
        // A thread that has not yet published its handle has not parked
        // either: it will observe the shutdown flag before its first park.
    }

    /// Drive a suspended continuation through its shutdown unwind and drop
    /// it. Called by engine teardown *after* the scheduler loop stopped, so
    /// the access is exclusive. Dropping the coroutine also releases a
    /// never-started worker's handle — an `Arc` back to the engine's
    /// `Shared` (the cycle must be broken here or the engine leaks).
    pub fn teardown_continuation(&self) {
        if self.backing != Backing::Continuation {
            return;
        }
        // SAFETY: teardown runs after the scheduler loop stopped, on the
        // thread that ran it, so no grant or coroutine is inside the cell.
        let cell = unsafe { &mut *self.coro.get() };
        if let Some(coro) = cell.as_mut() {
            if coro.is_started() && !coro.is_done() {
                // The shutdown flag is set: the resumed park observes it,
                // returns false, and the body unwinds via ShutdownUnwind,
                // running the destructors of every frame parked on the
                // private stack.
                // SAFETY: exclusive access (see above); the coroutine is
                // suspended, started, and not done — exactly resumable.
                let _ = unsafe { coro.resume() };
            }
        }
        *cell = None;
        self.phase.store(Phase::Finished as u32, Ordering::SeqCst);
    }

    /// True if the worker is currently parked (used for deadlock reporting).
    pub fn is_parked(&self) -> bool {
        matches!(
            Phase::from_u32(self.phase.load(Ordering::SeqCst)),
            Phase::Parked | Phase::Created
        )
    }

    /// True once the worker's loop has ended.
    #[cfg(test)]
    pub fn is_finished(&self) -> bool {
        self.phase.load(Ordering::SeqCst) == Phase::Finished as u32
    }

    /// Why the occupant last parked, for deadlock reports; `None` if it has
    /// not parked yet.
    pub fn blocked_on(&self) -> Option<BlockReason> {
        BLOCK_REASONS
            .get(usize::from(self.park_reason.load(Ordering::Relaxed)))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baton slot occupied by thread `id`, whose scheduler is the calling
    /// test thread. (The continuation path cannot be driven by a bare OS
    /// thread calling `park_and_wait`; the engine tests exercise it.)
    fn baton_slot(id: u64) -> Arc<ThreadSlot> {
        let sched = Arc::new(SchedHandle::new());
        sched.register_current();
        let slot = ThreadSlot::new(0, Backing::Baton, &sched);
        slot.occupy(ThreadId(id), "t".into(), id, Box::new(|_| {}));
        Arc::new(slot)
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(format!("{}", ThreadId(3)), "T3");
        assert_eq!(format!("{:?}", ThreadId(3)), "T3");
        assert_eq!(ThreadId(9).as_u64(), 9);
    }

    #[test]
    fn slot_handoff_roundtrip() {
        let slot = baton_slot(1);
        let s2 = slot.clone();
        let h = std::thread::spawn(move || {
            // First park, then run once, then finish.
            assert!(s2.park_and_wait());
            s2.mark_finished();
        });
        slot.await_parked_or_finished();
        assert!(slot.is_parked() || slot.is_finished());
        assert!(slot.grant_and_wait());
        assert!(slot.is_finished());
        // A second grant on a finished thread reports staleness.
        assert!(!slot.grant_and_wait());
        h.join().unwrap();
    }

    #[test]
    fn shutdown_releases_parked_thread() {
        let slot = baton_slot(2);
        let s2 = slot.clone();
        let h = std::thread::spawn(move || {
            let resumed = s2.park_and_wait();
            assert!(!resumed);
            s2.mark_finished();
        });
        slot.await_parked_or_finished();
        slot.request_shutdown();
        h.join().unwrap();
        assert!(slot.is_finished());
    }

    #[test]
    fn many_handoffs_roundtrip_quickly() {
        let slot = baton_slot(3);
        let s2 = slot.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..10_000 {
                if !s2.park_and_wait() {
                    break;
                }
            }
            s2.mark_finished();
        });
        for _ in 0..10_000 {
            assert!(slot.grant_and_wait());
        }
        slot.request_shutdown();
        let _ = slot.grant_and_wait();
        h.join().unwrap();
    }

    #[test]
    fn shard_key_is_updatable() {
        let slot = baton_slot(7);
        assert_eq!(slot.shard_key(), 7);
        slot.set_shard_key(2);
        assert_eq!(slot.shard_key(), 2);
    }

    #[test]
    fn a_worker_runs_one_occupant_at_a_time() {
        let slot = baton_slot(4);
        assert!(slot.runs(ThreadId(4)) && !slot.is_vacant());
        assert_eq!((slot.id(), &*slot.name()), (ThreadId(4), "t"));
        assert!(slot.take_body().is_some() && slot.take_body().is_none());
        assert_eq!(slot.blocked_on(), None);
        slot.set_park_reason(BlockReason::PageFault);
        assert_eq!(slot.blocked_on(), Some(BlockReason::PageFault));
        slot.vacate();
        assert!(slot.is_vacant() && !slot.runs(ThreadId(4)));
        assert_eq!(slot.blocked_on(), None);
        slot.occupy(ThreadId(5), "u".into(), 1, Box::new(|_| {}));
        assert!(slot.runs(ThreadId(5)) && !slot.runs(ThreadId(4)));
        assert_eq!((&*slot.name(), slot.shard_key()), ("u", 1));
    }
}
