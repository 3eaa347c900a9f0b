//! Simulated thread identity and the scheduler/thread hand-off slot.
//!
//! At most one simulated thread *per scheduler worker* executes at any
//! wall-clock instant: the granting side (a worker, or the coordinator
//! itself on single-shard instants) hands control to the thread chosen by
//! the event queue and regains it when the thread parks again. With the
//! default single worker this makes every run fully deterministic while
//! letting user code be written as ordinary imperative Rust (the PM2
//! programming model); with several workers, determinism is preserved by
//! the engine's canonical effect merge (see [`crate::Engine`]).
//!
//! Three hand-off implementations ([`crate::HandoffMode`]) share one slot
//! type and one atomic [`Phase`] machine:
//!
//! * **Continuation** (default): the thread's slices run as a stackful
//!   coroutine *on the granting side's own OS thread* — a grant is a
//!   ~dozen-instruction stack switch into [`crate::continuation::Coro`],
//!   a park is the switch back. No OS thread wakes up on the hot path;
//!   the phase word only arbitrates racing same-instant granters.
//! * **Baton** (PR 3 futex-style): the thread is backed by a dedicated OS
//!   thread; each side publishes its transition with one atomic store and
//!   wakes the other with one `std::thread::unpark`, spinning briefly
//!   before parking. Kept as the per-thread fallback for bodies a
//!   fixed-size private stack cannot carry (deep recursion).
//! * **Legacy Condvar**: the original Mutex+Condvar protocol on
//!   `std::sync` (the pre-PR 3 substrate), kept selectable so the
//!   conformance matrix can assert all hand-offs produce bit-identical
//!   runs and so `sched_handoff` measures the true historical baseline.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::{fmt, ptr, sync};

use crate::continuation::Coro;
use crate::engine::{
    set_instant_ctx, BlockReason, InstantCtx, SliceOutcome, SpinMap, BLOCK_REASONS,
};
use crate::time::SimTime;

/// Identifier of a simulated thread, unique within one [`crate::Engine`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub(crate) u64);

impl ThreadId {
    /// Raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuild a thread id from the raw value of [`ThreadId::as_u64`].
    ///
    /// The verify layer uses this to key recorded schedules and access logs
    /// by thread across replays; an id that never came from `as_u64` simply
    /// won't match any live thread.
    pub fn from_u64(raw: u64) -> ThreadId {
        ThreadId(raw)
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

/// Which execution substrate backs one simulated thread. Derived from the
/// effective [`crate::HandoffMode`] at spawn time (engine tuning, or a
/// per-thread [`crate::SpawnOptions`] override).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Backing {
    /// Stackful coroutine resumed on the granting side's OS thread.
    Continuation,
    /// Dedicated OS thread, futex-style atomic baton.
    Baton,
    /// Dedicated OS thread, Mutex+Condvar baton.
    LegacyCondvar,
}

impl Backing {
    /// True when a dedicated OS thread backs the simulated thread (the
    /// granting side then waits for *another OS thread* at each hand-off,
    /// which is what makes spinning worthwhile — see [`SpinMap`]).
    pub fn is_os_backed(self) -> bool {
        !matches!(self, Backing::Continuation)
    }
}

/// Life-cycle of a simulated thread with respect to the scheduler grant.
/// Stored as a plain enum in the legacy path and as a `u32` in the atomic
/// word of the futex/continuation paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    /// OS thread spawned but has not yet reached its first park
    /// (continuation slots skip this: they are born `Parked`).
    Created = 0,
    /// Waiting for the scheduler to grant a slice.
    Parked = 1,
    /// The scheduler has granted the baton; the thread has not resumed yet
    /// (OS-backed paths only).
    Granted = 2,
    /// Currently executing user code.
    Running = 3,
    /// The thread body returned (or panicked); it will never run again.
    Finished = 4,
    /// A granter won the `Parked -> Granting` CAS and is publishing the
    /// grant context; other granters keep waiting. This makes the context
    /// stores (and the coroutine resume) exclusive even if two same-instant
    /// wakes for one thread race from different workers.
    Granting = 5,
}

impl Phase {
    fn from_u32(v: u32) -> Phase {
        match v {
            0 => Phase::Created,
            1 => Phase::Parked,
            2 => Phase::Granted,
            3 => Phase::Running,
            4 => Phase::Finished,
            5 => Phase::Granting,
            other => unreachable!("invalid phase word {other}"),
        }
    }
}

pub(crate) struct SlotState {
    pub phase: Phase,
    /// Set when the engine is tearing down; a granted thread must unwind
    /// instead of resuming user code.
    pub shutdown: bool,
}

/// A granting side's OS-thread handle, published (once per worker) through
/// an `AtomicPtr` so simulated threads can wake their granter with SeqCst
/// Dekker-style visibility: a thread that stores its phase and then fails to
/// see the handle is guaranteed the granter has not yet read the phase, so
/// the granter will observe the store before parking.
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
    /// ever called from the owning (coordinator or worker) thread.
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

/// The granting side of a hand-off: its wake-up handle and how long it
/// spins before parking while waiting for the thread.
///
/// A source lives for a whole *burst* of grants (the coordinator's event
/// loop iteration, or one `drain_instant` on a worker), not a single grant,
/// so per-granter bookkeeping — handle registration, the sole-granter
/// claim — is paid once per burst instead of once per grant. Same-shard
/// wake bursts (a barrier release draining dozens of wakes in one instant)
/// are exactly the runs this batching targets.
pub(crate) struct GrantSource<'a> {
    /// The granter's [`SchedHandle`] — must be owned by the engine's
    /// `Shared` so the raw granter pointer stored in the slot stays valid
    /// for the lifetime of every simulated thread.
    pub handle: &'a SchedHandle,
    /// Spin iterations before parking.
    pub spin: u32,
    /// True when the caller is provably the *only* thread that can grant
    /// for the duration of this source's burst (the coordinator's inline
    /// paths: single-shard mode, and single-active-shard rounds while every
    /// worker is idle). Continuation grants then skip the whole arbitration
    /// protocol — no `Granting` CAS, no granter-pointer publication, no
    /// serializing phase stores.
    pub solo: bool,
    /// Whether `handle` is already published as the current OS thread's
    /// wake-up handle. Set once by the first registration of the burst;
    /// later grants skip the atomic probe entirely.
    pub registered: Cell<bool>,
}

impl<'a> GrantSource<'a> {
    /// A source for a burst of arbitrated grants (racing granters possible).
    pub fn new(handle: &'a SchedHandle, spin: u32) -> Self {
        GrantSource {
            handle,
            spin,
            solo: false,
            registered: Cell::new(false),
        }
    }

    /// A source for a sole-granter burst: the caller guarantees no other
    /// thread can grant any slot until this source is dropped, and that
    /// `handle` is already registered to the calling OS thread.
    pub fn solo(handle: &'a SchedHandle, spin: u32) -> Self {
        GrantSource {
            handle,
            spin,
            solo: true,
            registered: Cell::new(true),
        }
    }

    /// Publish the calling OS thread as the wake-up target of `handle`,
    /// at most once per burst.
    fn register(&self) {
        if !self.registered.get() {
            self.handle.register_current();
            self.registered.set(true);
        }
    }
}

/// Sentinel for "granted inline by the coordinator" in the worker index slot.
pub(crate) const NO_WORKER: usize = usize::MAX;

/// Sentinel for "no slice outcome recorded yet".
const OUTCOME_NONE: u32 = u32::MAX;

/// Hand-off slot shared between the scheduler and one simulated thread.
pub(crate) struct ThreadSlot {
    pub id: ThreadId,
    pub name: Arc<str>,
    /// Execution substrate backing this thread.
    backing: Backing,
    /// Per-worker spin budgets (owned by the engine's `Shared`); read on
    /// every OS-backed park, so migrations and finished threads re-tune
    /// the budget without touching existing slots.
    spin_map: Arc<SpinMap>,
    /// Identity of the owning engine (for the instant context).
    engine_token: usize,
    /// Current shard key of the thread (updated on migration).
    shard: AtomicU64,
    // ----- futex/continuation path ------------------------------------------
    /// The atomic phase word ([`Phase`] as u32).
    phase: AtomicU32,
    /// Teardown flag; checked by the thread before resuming user code.
    shutdown: AtomicBool,
    /// Handle of the backing OS thread, set by that thread before its first
    /// `Parked` store (the release/acquire hand-off on `phase` publishes it
    /// to the scheduler). Never set for continuation slots.
    os_thread: OnceLock<Thread>,
    /// Handle used to wake the granting side before any grant happened (the
    /// coordinator's engine-wide handle).
    default_sched: Arc<SchedHandle>,
    /// The most recent granter's handle; null means "use `default_sched`".
    /// Points into the engine's `Shared` (worker handles), which outlives
    /// every simulated thread: the spawn closure holds an `Arc<Shared>`.
    granter: AtomicPtr<SchedHandle>,
    // ----- continuation path ------------------------------------------------
    /// The coroutine carrying this thread's slices. Exclusivity is enforced
    /// by the phase machine: only the granter that won the `Parked ->
    /// Granting` CAS (or teardown, after the scheduler stopped) touches it.
    coro: UnsafeCell<Option<Coro>>,
    // ----- grant context (published exclusively by the CAS-winning granter
    // between the `Granting` and `Granted`/`Running` phase stores) -----------
    grant_worker: AtomicUsize,
    grant_time: AtomicU64,
    grant_seq: AtomicU64,
    grant_defer: AtomicBool,
    // ----- slice outcome (reified yield site, written by the thread itself
    // right before it parks — single writer, racing readers see a torn pair
    // at worst, which profiling tolerates) -----------------------------------
    outcome_kind: AtomicU32,
    outcome_arg: AtomicU64,
    // ----- legacy Condvar path (std::sync, the pre-PR 3 substrate) ----------
    state: sync::Mutex<SlotState>,
    cond: sync::Condvar,
}

// SAFETY: every field but `coro` is Sync by construction. The `UnsafeCell`
// around the coroutine is only dereferenced by (a) the spawn path before the
// slot is shared, (b) the single granter admitted by the `Parked ->
// Granting` CAS, (c) the coroutine body itself while that granter is
// blocked in `Coro::resume`, and (d) engine teardown/reaping after the
// scheduler loop stopped — all mutually exclusive by the phase machine.
unsafe impl Send for ThreadSlot {}
// SAFETY: see the Send justification above — the phase machine serializes
// every access to the one non-Sync field (`coro`).
unsafe impl Sync for ThreadSlot {}

impl ThreadSlot {
    pub fn new(
        id: ThreadId,
        name: Arc<str>,
        backing: Backing,
        spin_map: Arc<SpinMap>,
        default_sched: Arc<SchedHandle>,
        engine_token: usize,
        shard: u64,
    ) -> Self {
        if backing.is_os_backed() {
            // Tell the spin auto-tuner an OS thread is now homed on this
            // shard's worker (undone in `mark_finished`).
            spin_map.home_os_thread(shard);
        }
        ThreadSlot {
            id,
            name,
            backing,
            spin_map,
            engine_token,
            shard: AtomicU64::new(shard),
            phase: AtomicU32::new(Phase::Created as u32),
            shutdown: AtomicBool::new(false),
            os_thread: OnceLock::new(),
            default_sched,
            granter: AtomicPtr::new(ptr::null_mut()),
            coro: UnsafeCell::new(None),
            grant_worker: AtomicUsize::new(NO_WORKER),
            grant_time: AtomicU64::new(0),
            grant_seq: AtomicU64::new(0),
            grant_defer: AtomicBool::new(false),
            outcome_kind: AtomicU32::new(OUTCOME_NONE),
            outcome_arg: AtomicU64::new(0),
            state: sync::Mutex::new(SlotState {
                phase: Phase::Created,
                shutdown: false,
            }),
            cond: sync::Condvar::new(),
        }
    }

    /// This thread's execution substrate.
    pub fn backing(&self) -> Backing {
        self.backing
    }

    /// The thread's current shard key.
    pub fn shard_key(&self) -> u64 {
        self.shard.load(Ordering::SeqCst)
    }

    /// Re-home the thread onto another shard (thread migration). Takes
    /// effect for wake-ups scheduled after this call; OS-backed threads
    /// also re-tune the spin budgets of the two affected workers.
    pub fn set_shard_key(&self, key: u64) {
        let old = self.shard.swap(key, Ordering::SeqCst);
        if self.backing.is_os_backed() && old != key {
            self.spin_map.rehome_os_thread(old, key);
        }
    }

    /// Record the reified outcome of the current slice (the thread is about
    /// to yield). Relaxed: single writer (the thread itself), and readers
    /// only profile.
    pub fn record_outcome(&self, outcome: SliceOutcome) {
        let (kind, arg) = match outcome {
            SliceOutcome::Yielded(t) => (0, t.as_nanos()),
            SliceOutcome::Blocked(r) => (1, r as u64),
            SliceOutcome::Done => (2, 0),
        };
        self.outcome_arg.store(arg, Ordering::Relaxed);
        self.outcome_kind.store(kind, Ordering::Relaxed);
    }

    /// The most recently recorded slice outcome, if any.
    pub fn last_outcome(&self) -> Option<SliceOutcome> {
        let arg = self.outcome_arg.load(Ordering::Relaxed);
        match self.outcome_kind.load(Ordering::Relaxed) {
            0 => Some(SliceOutcome::Yielded(SimTime::from_nanos(arg))),
            1 => Some(SliceOutcome::Blocked(
                BLOCK_REASONS[(arg as usize).min(BLOCK_REASONS.len() - 1)],
            )),
            2 => Some(SliceOutcome::Done),
            _ => None,
        }
    }

    /// Wake whoever granted us last (or the coordinator before any grant).
    fn wake_granter(&self) {
        let p = self.granter.load(Ordering::SeqCst);
        if p.is_null() {
            self.default_sched.unpark();
        } else {
            // SAFETY: non-null granter pointers reference the per-worker
            // `SchedHandle`s inside the engine's `Shared`, which the spawn
            // closure keeps alive (Arc) for this slot's whole lifetime.
            unsafe { &*p }.unpark();
        }
    }

    /// Lock the legacy slot state, transparently recovering from poisoning
    /// (a simulated thread that panicked mid-hand-off must not wedge the
    /// scheduler).
    fn legacy_state(&self) -> sync::MutexGuard<'_, SlotState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn legacy_wait<'a>(
        &self,
        guard: sync::MutexGuard<'a, SlotState>,
    ) -> sync::MutexGuard<'a, SlotState> {
        match self.cond.wait(guard) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    // ----- continuation backing ---------------------------------------------

    /// Install the coroutine carrying this thread's slices. Called by the
    /// spawn path before the slot is shared with the scheduler, so the
    /// plain store is exclusive; the `Parked` store makes the slot
    /// immediately grantable (continuations have no Created window).
    pub fn init_continuation(&self, coro: Coro) {
        debug_assert_eq!(self.backing, Backing::Continuation);
        // SAFETY: called before the slot is shared (spawn path), so this
        // plain store through the UnsafeCell is exclusive.
        unsafe { *self.coro.get() = Some(coro) };
        self.phase.store(Phase::Parked as u32, Ordering::SeqCst);
    }

    /// Switch from the coroutine's private stack back to the resumer.
    ///
    /// # Safety
    /// Must be called from *inside* this slot's coroutine.
    unsafe fn coro_yield(&self) {
        // SAFETY: we are the running coroutine (caller contract), i.e. the
        // phase machine's single admitted accessor of the cell right now.
        let coro = unsafe { (*self.coro.get()).as_mut().expect("continuation present") };
        // SAFETY: on this coroutine's private stack — the precondition of
        // yield_to_scheduler — per this function's own contract.
        unsafe { coro.yield_to_scheduler() };
    }

    /// First entry of a continuation body: the granter has already published
    /// the grant context and switched onto our stack. Returns `false` when
    /// the engine is tearing down (the body must return without running
    /// user code).
    pub fn continuation_first_grant(&self) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        self.install_grant_ctx();
        true
    }

    fn park_and_wait_continuation(&self) -> bool {
        // SAFETY: running inside this slot's coroutine (this is its park
        // path). All phase bookkeeping is on the granting side: it stores
        // `Parked` only after our stack is quiescent (i.e. after this
        // switch-out completes inside `Coro::resume`), so a racing granter
        // can never resume a half-saved continuation.
        unsafe { self.coro_yield() };
        // Somebody granted us a new slice — or teardown is unwinding us.
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// Drive a suspended continuation through its shutdown unwind and drop
    /// it. Called by engine teardown *after* the scheduler loop (and worker
    /// pool) stopped, so the access is exclusive. Dropping the coroutine
    /// also releases a never-started body's captured state — which includes
    /// an `Arc` back to the engine's `Shared` (the cycle must be broken
    /// here or the engine leaks).
    pub fn teardown_continuation(&self) {
        if self.backing != Backing::Continuation {
            return;
        }
        // SAFETY: teardown runs after the scheduler loop and worker pool
        // stopped, so no granter or coroutine can touch the cell anymore.
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

    /// Reclaim the stack buffer of a finished (or never-started)
    /// continuation for reuse by a future spawn; drops the coroutine.
    /// Returns `None` for OS-backed slots and continuations still live.
    /// Only called with exclusive access (reaping between events, or
    /// teardown).
    pub fn reclaim_stack(&self) -> Option<Vec<u8>> {
        if self.backing != Backing::Continuation {
            return None;
        }
        // SAFETY: per this function's contract, callers hold exclusive
        // access (reaping between events on the scheduler, or teardown).
        let cell = unsafe { &mut *self.coro.get() };
        let reclaimable = cell
            .as_ref()
            .is_some_and(|c| c.is_done() || !c.is_started());
        if !reclaimable {
            return None;
        }
        Some(cell.take().expect("checked above").take_stack())
    }

    // ----- shared entry points ----------------------------------------------

    /// Install the instant context of the granting event, so pushes made by
    /// user code route to the right worker outbox.
    fn install_grant_ctx(&self) {
        set_instant_ctx(Some(InstantCtx {
            engine: self.engine_token,
            worker: match self.grant_worker.load(Ordering::SeqCst) {
                NO_WORKER => 0,
                w => w,
            },
            parent_time: self.grant_time.load(Ordering::SeqCst),
            parent_seq: self.grant_seq.load(Ordering::SeqCst),
            shard: self.shard.load(Ordering::SeqCst),
            defer: self.grant_defer.load(Ordering::SeqCst),
            sub: 0,
        }));
    }

    /// Called by the simulated thread: announce that we are parked and wait
    /// until the scheduler grants the next slice. Returns `false` if the
    /// engine is shutting down and the thread must unwind without running
    /// user code. On `true`, the instant context of the granting event has
    /// been installed in the executing OS thread's thread-local slot.
    pub fn park_and_wait(&self) -> bool {
        // We are about to stop executing the current event.
        set_instant_ctx(None);
        let granted = match self.backing {
            Backing::Continuation => self.park_and_wait_continuation(),
            Backing::Baton => self.park_and_wait_futex(),
            Backing::LegacyCondvar => self.park_and_wait_legacy(),
        };
        if !granted {
            return false;
        }
        // Resuming on behalf of the granting event.
        self.install_grant_ctx();
        true
    }

    fn park_and_wait_futex(&self) -> bool {
        // Publish our handle before the Parked store so the scheduler can
        // unpark us as soon as it observes the phase.
        let _ = self.os_thread.set(std::thread::current());
        self.phase.store(Phase::Parked as u32, Ordering::SeqCst);
        self.wake_granter();
        let spin = self.spin_map.for_key(self.shard.load(Ordering::SeqCst));
        let mut spins = 0u32;
        loop {
            let phase = self.phase.load(Ordering::SeqCst);
            if phase == Phase::Granted as u32 {
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if spins < spin {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        self.phase.store(Phase::Running as u32, Ordering::SeqCst);
        true
    }

    fn park_and_wait_legacy(&self) -> bool {
        let mut st = self.legacy_state();
        st.phase = Phase::Parked;
        self.cond.notify_all();
        while st.phase != Phase::Granted {
            if st.shutdown {
                return false;
            }
            st = self.legacy_wait(st);
        }
        if st.shutdown {
            return false;
        }
        st.phase = Phase::Running;
        true
    }

    /// Spin-then-park (on the granting thread) until the slot's phase is
    /// `Parked` or `Finished`, returning the phase observed.
    ///
    /// Parks are unbounded only while the slot's granter pointer is *ours*:
    /// the party that publishes `Parked`/`Finished` (the thread's OS thread
    /// on the baton paths, the winning granter on the continuation path)
    /// notifies exactly the granter recorded in that pointer, so a granter
    /// that is not (or no longer) the recorded one — because a concurrent
    /// same-instant wake from another shard raced it — is off the wake-up
    /// path and must poll with bounded parks instead.
    fn await_parked_or_finished(&self, source: &GrantSource<'_>) -> Phase {
        // Make sure the simulated thread can wake us before we decide to
        // sleep (SeqCst pairing with the thread's phase store). Registered
        // once per grant burst, not per grant.
        source.register();
        let me = source.handle as *const SchedHandle as *mut SchedHandle;
        let mut spins = 0u32;
        loop {
            let phase = self.phase.load(Ordering::SeqCst);
            if phase == Phase::Parked as u32 || phase == Phase::Finished as u32 {
                return Phase::from_u32(phase);
            }
            if spins < source.spin {
                spins += 1;
                std::hint::spin_loop();
            } else if self.granter.load(Ordering::SeqCst) == me {
                std::thread::park();
            } else {
                std::thread::park_timeout(std::time::Duration::from_micros(50));
            }
        }
    }

    /// Called by the granting side: wait until the thread has reached its
    /// first park (right after spawn, an OS-backed thread may not have
    /// started yet).
    #[cfg(test)]
    pub fn wait_until_parked_or_finished(&self, source: &GrantSource<'_>) {
        if self.backing == Backing::LegacyCondvar {
            let mut st = self.legacy_state();
            while st.phase != Phase::Parked && st.phase != Phase::Finished {
                st = self.legacy_wait(st);
            }
            return;
        }
        self.await_parked_or_finished(source);
    }

    /// Called by the granting side: grant a slice to the (eventually)
    /// parked thread and block until it parks again or finishes. `worker`,
    /// `parent_time`/`parent_seq` and `defer` describe the granting event;
    /// the resumed thread installs them as its instant context. Returns
    /// `false` if the thread was already finished (stale wake event).
    ///
    /// On the continuation path "block until it parks" is literal but
    /// OS-free: the slice executes right here, on the caller's stack frame,
    /// via a coroutine switch.
    pub fn grant_and_wait(
        &self,
        source: &GrantSource<'_>,
        worker: usize,
        parent_time: u64,
        parent_seq: u64,
        defer: bool,
    ) -> bool {
        match self.backing {
            Backing::Continuation => {
                self.grant_and_wait_continuation(source, worker, parent_time, parent_seq, defer)
            }
            Backing::Baton => {
                self.grant_and_wait_futex(source, worker, parent_time, parent_seq, defer)
            }
            Backing::LegacyCondvar => {
                self.grant_and_wait_legacy(source, worker, parent_time, parent_seq, defer)
            }
        }
    }

    fn grant_and_wait_futex(
        &self,
        source: &GrantSource<'_>,
        worker: usize,
        parent_time: u64,
        parent_seq: u64,
        defer: bool,
    ) -> bool {
        let me = source.handle as *const SchedHandle as *mut SchedHandle;
        // Publish ourselves as the granter *before* waiting for the park, so
        // a freshly spawned thread's first `Parked` store wakes us and not
        // the engine-wide default handle. A concurrent granter may overwrite
        // this; await_parked_or_finished then degrades to bounded parks.
        self.granter.store(me, Ordering::SeqCst);
        loop {
            if self.await_parked_or_finished(source) == Phase::Finished {
                return false;
            }
            // Win the grant first; publish the context only as the winner.
            if self
                .phase
                .compare_exchange(
                    Phase::Parked as u32,
                    Phase::Granting as u32,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break;
            }
        }
        // Exclusive between the Granting and Granted stores: the thread only
        // reads these after observing Granted, so the payload stores can be
        // Relaxed — the SeqCst `Granted` store orders them (and SeqCst
        // stores are serializing on x86, each one a full fence). Re-store
        // the granter pointer in case a racing granter's early store
        // overwrote it.
        self.granter.store(me, Ordering::SeqCst);
        self.grant_worker.store(worker, Ordering::Relaxed);
        self.grant_time.store(parent_time, Ordering::Relaxed);
        self.grant_seq.store(parent_seq, Ordering::Relaxed);
        self.grant_defer.store(defer, Ordering::Relaxed);
        self.phase.store(Phase::Granted as u32, Ordering::SeqCst);
        self.os_thread
            .get()
            .expect("parked thread published its handle")
            .unpark();
        self.await_parked_or_finished(source);
        true
    }

    fn grant_and_wait_continuation(
        &self,
        source: &GrantSource<'_>,
        worker: usize,
        parent_time: u64,
        parent_seq: u64,
        defer: bool,
    ) -> bool {
        // Sole-granter fast path: on the coordinator's inline rounds no
        // racing granter can exist, so the phase word is a record rather
        // than an arbiter — the `Granting` CAS handshake, the
        // granter-pointer publication and the serializing phase stores of
        // the arbitrated path below all collapse into relaxed transitions.
        // A same-shard wake burst (a barrier release draining N wakes in
        // one instant) pays two relaxed stores per grant instead of five
        // full-fence operations.
        if source.solo {
            match Phase::from_u32(self.phase.load(Ordering::Relaxed)) {
                Phase::Finished => return false,
                Phase::Parked => {
                    self.grant_worker.store(worker, Ordering::Relaxed);
                    self.grant_time.store(parent_time, Ordering::Relaxed);
                    self.grant_seq.store(parent_seq, Ordering::Relaxed);
                    self.grant_defer.store(defer, Ordering::Relaxed);
                    self.phase.store(Phase::Running as u32, Ordering::Relaxed);
                    let done = {
                        // SAFETY: the caller vouches (`source.solo`) that no
                        // other thread can grant until its burst ends, so
                        // this access is exclusive until the phase store
                        // below — the same guarantee the Granting CAS gives
                        // the arbitrated path.
                        let coro =
                            unsafe { (*self.coro.get()).as_mut().expect("continuation present") };
                        // SAFETY: same exclusivity; the slot was Parked, so
                        // the coroutine is suspended and resumable.
                        unsafe { coro.resume() }
                    };
                    if done {
                        self.record_outcome(SliceOutcome::Done);
                    }
                    self.phase.store(
                        if done { Phase::Finished } else { Phase::Parked } as u32,
                        Ordering::Relaxed,
                    );
                    return true;
                }
                // Any other phase means the solo claim cannot actually hold
                // for this slot (e.g. a mid-migration race): fall through to
                // the arbitrated path, which copes with every interleaving.
                _ => {}
            }
        }
        let me = source.handle as *const SchedHandle as *mut SchedHandle;
        // As in the futex path: publish ourselves so the winning granter's
        // post-slice `Parked` store wakes us if we lose the race.
        self.granter.store(me, Ordering::SeqCst);
        loop {
            if self.await_parked_or_finished(source) == Phase::Finished {
                return false;
            }
            // Winning this CAS grants exclusive ownership of the coroutine
            // until we store `Parked`/`Finished` below.
            if self
                .phase
                .compare_exchange(
                    Phase::Parked as u32,
                    Phase::Granting as u32,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break;
            }
        }
        // The coroutine reads the grant context on *this same OS thread*
        // after the resume below — program order alone suffices, so the
        // payload stores are Relaxed. Only the phase store (observed by
        // racing granters on other workers) stays SeqCst.
        //
        // The granter pointer is usually already `me` (stored above, before
        // the CAS); skip the serializing re-store then. Missing a racing
        // granter's concurrent overwrite is benign either way: the
        // post-slice wake below reloads the pointer and unparks whoever it
        // names.
        if self.granter.load(Ordering::SeqCst) != me {
            self.granter.store(me, Ordering::SeqCst);
        }
        self.grant_worker.store(worker, Ordering::Relaxed);
        self.grant_time.store(parent_time, Ordering::Relaxed);
        self.grant_seq.store(parent_seq, Ordering::Relaxed);
        self.grant_defer.store(defer, Ordering::Relaxed);
        self.phase.store(Phase::Running as u32, Ordering::SeqCst);
        // Run the slice right here: switch onto the coroutine's stack. It
        // reads the grant context itself (continuation_first_grant /
        // park_and_wait) and clears the thread-local instant context before
        // switching back.
        let done = {
            // SAFETY: we won the Granting CAS; nobody else touches the coro
            // until the phase store below.
            let coro = unsafe { (*self.coro.get()).as_mut().expect("continuation present") };
            // SAFETY: same exclusivity (Granting CAS won); the coroutine is
            // suspended and not done, so it is resumable.
            unsafe { coro.resume() }
        };
        if done {
            self.record_outcome(SliceOutcome::Done);
        }
        // Publish the slice's end only now, when the coroutine stack is
        // quiescent — a racing granter CAS-ing `Parked` any earlier could
        // resume a continuation whose switch-out had not completed.
        self.phase.store(
            if done { Phase::Finished } else { Phase::Parked } as u32,
            Ordering::SeqCst,
        );
        // Wake a raced granter that overwrote our pointer while the slice
        // ran: it is parked (bounded) waiting for exactly this store.
        let g = self.granter.load(Ordering::SeqCst);
        if g != me && !g.is_null() {
            // SAFETY: granter pointers reference per-worker SchedHandles in
            // the engine's Shared, alive for this slot's whole lifetime.
            unsafe { &*g }.unpark();
        }
        true
    }

    fn grant_and_wait_legacy(
        &self,
        source: &GrantSource<'_>,
        worker: usize,
        parent_time: u64,
        parent_seq: u64,
        defer: bool,
    ) -> bool {
        let _ = source;
        let mut st = self.legacy_state();
        // Wait for the thread to park (it may not have started yet, or a
        // concurrent granter may be mid-hand-off — the condvar broadcast on
        // every transition keeps all waiting granters live).
        while st.phase != Phase::Parked && st.phase != Phase::Finished {
            st = self.legacy_wait(st);
        }
        if st.phase == Phase::Finished {
            return false;
        }
        // Publish the grant context under the slot lock, exclusive with any
        // concurrent granter by construction.
        self.granter.store(
            source.handle as *const SchedHandle as *mut SchedHandle,
            Ordering::SeqCst,
        );
        self.grant_worker.store(worker, Ordering::SeqCst);
        self.grant_time.store(parent_time, Ordering::SeqCst);
        self.grant_seq.store(parent_seq, Ordering::SeqCst);
        self.grant_defer.store(defer, Ordering::SeqCst);
        st.phase = Phase::Granted;
        self.cond.notify_all();
        while st.phase != Phase::Parked && st.phase != Phase::Finished {
            st = self.legacy_wait(st);
        }
        true
    }

    /// Called by the backing OS thread when its body has returned or
    /// panicked (OS-backed paths only; the continuation path's completion
    /// is published by the granter that drove the final slice).
    pub fn mark_finished(&self) {
        set_instant_ctx(None);
        self.record_outcome(SliceOutcome::Done);
        if self.backing.is_os_backed() {
            // Undo this thread's contribution to the spin auto-tuning.
            self.spin_map
                .unhome_os_thread(self.shard.load(Ordering::SeqCst));
        }
        if self.backing == Backing::LegacyCondvar {
            let mut st = self.legacy_state();
            st.phase = Phase::Finished;
            self.cond.notify_all();
            return;
        }
        self.phase.store(Phase::Finished as u32, Ordering::SeqCst);
        self.wake_granter();
    }

    /// Called during teardown: release any thread that is still waiting for
    /// the baton so its OS thread can exit. (Continuation slots only take
    /// the flag here; their unwind is driven by `teardown_continuation`.)
    pub fn request_shutdown(&self) {
        if self.backing == Backing::LegacyCondvar {
            let mut st = self.legacy_state();
            st.shutdown = true;
            self.cond.notify_all();
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.os_thread.get() {
            thread.unpark();
        }
        // A thread that has not yet published its handle has not parked
        // either: it will observe the shutdown flag before its first park.
    }

    /// True if the thread is currently parked (used for deadlock reporting).
    pub fn is_parked(&self) -> bool {
        if self.backing == Backing::LegacyCondvar {
            return matches!(self.legacy_state().phase, Phase::Parked | Phase::Created);
        }
        matches!(
            Phase::from_u32(self.phase.load(Ordering::SeqCst)),
            Phase::Parked | Phase::Created
        )
    }

    /// True if the thread has finished.
    pub fn is_finished(&self) -> bool {
        if self.backing == Backing::LegacyCondvar {
            return self.legacy_state().phase == Phase::Finished;
        }
        self.phase.load(Ordering::SeqCst) == Phase::Finished as u32
    }

    /// A blocked-on label for diagnostics (deadlock reports).
    pub fn blocked_on(&self) -> Option<BlockReason> {
        match self.last_outcome() {
            Some(SliceOutcome::Blocked(r)) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimTuning;

    fn spin_map() -> Arc<SpinMap> {
        let tuning = SimTuning::default();
        Arc::new(SpinMap::new(
            tuning.handoff_spin,
            1,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ))
    }

    fn slot(id: u64, backing: Backing, sched: &Arc<SchedHandle>) -> Arc<ThreadSlot> {
        Arc::new(ThreadSlot::new(
            ThreadId(id),
            "t".into(),
            backing,
            spin_map(),
            Arc::clone(sched),
            0,
            id,
        ))
    }

    /// The two OS-backed substrates (the continuation path cannot be driven
    /// by a bare OS thread calling `park_and_wait` — it is exercised through
    /// the engine tests instead).
    fn os_backings() -> [Backing; 2] {
        [Backing::Baton, Backing::LegacyCondvar]
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(format!("{}", ThreadId(3)), "T3");
        assert_eq!(format!("{:?}", ThreadId(3)), "T3");
        assert_eq!(ThreadId(9).as_u64(), 9);
    }

    #[test]
    fn slot_handoff_roundtrip() {
        for backing in os_backings() {
            let sched = Arc::new(SchedHandle::new());
            let source = GrantSource::new(&sched, 0);
            let slot = slot(1, backing, &sched);
            let s2 = slot.clone();
            let h = std::thread::spawn(move || {
                // First park, then run once, then finish.
                assert!(s2.park_and_wait());
                s2.mark_finished();
            });
            slot.wait_until_parked_or_finished(&source);
            assert!(slot.is_parked() || slot.is_finished());
            assert!(slot.grant_and_wait(&source, NO_WORKER, 0, 0, false));
            assert!(slot.is_finished());
            // A second grant on a finished thread reports staleness.
            assert!(!slot.grant_and_wait(&source, NO_WORKER, 0, 0, false));
            h.join().unwrap();
        }
    }

    #[test]
    fn shutdown_releases_parked_thread() {
        for backing in os_backings() {
            let sched = Arc::new(SchedHandle::new());
            let source = GrantSource::new(&sched, 0);
            let slot = slot(2, backing, &sched);
            let s2 = slot.clone();
            let h = std::thread::spawn(move || {
                let resumed = s2.park_and_wait();
                assert!(!resumed);
                s2.mark_finished();
            });
            slot.wait_until_parked_or_finished(&source);
            slot.request_shutdown();
            h.join().unwrap();
            assert!(slot.is_finished());
        }
    }

    #[test]
    fn many_handoffs_roundtrip_quickly() {
        for backing in os_backings() {
            let sched = Arc::new(SchedHandle::new());
            let source = GrantSource::new(&sched, 0);
            let slot = slot(3, backing, &sched);
            let s2 = slot.clone();
            let h = std::thread::spawn(move || {
                for _ in 0..10_000 {
                    if !s2.park_and_wait() {
                        break;
                    }
                }
                s2.mark_finished();
            });
            for seq in 0..10_000 {
                assert!(slot.grant_and_wait(&source, NO_WORKER, 0, seq, false));
            }
            slot.request_shutdown();
            let _ = slot.grant_and_wait(&source, NO_WORKER, 0, 10_000, false);
            h.join().unwrap();
        }
    }

    #[test]
    fn shard_key_is_updatable() {
        let sched = Arc::new(SchedHandle::new());
        let slot = slot(7, Backing::Baton, &sched);
        assert_eq!(slot.shard_key(), 7);
        slot.set_shard_key(2);
        assert_eq!(slot.shard_key(), 2);
    }

    #[test]
    fn outcome_roundtrips_through_the_slot() {
        let sched = Arc::new(SchedHandle::new());
        let slot = slot(9, Backing::Baton, &sched);
        assert_eq!(slot.last_outcome(), None);
        slot.record_outcome(SliceOutcome::Yielded(SimTime::from_nanos(42)));
        assert_eq!(
            slot.last_outcome(),
            Some(SliceOutcome::Yielded(SimTime::from_nanos(42)))
        );
        slot.record_outcome(SliceOutcome::Blocked(BlockReason::PageFault));
        assert_eq!(slot.blocked_on(), Some(BlockReason::PageFault));
        slot.record_outcome(SliceOutcome::Done);
        assert_eq!(slot.last_outcome(), Some(SliceOutcome::Done));
    }
}
