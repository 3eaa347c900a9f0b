//! The per-thread handle through which simulated code interacts with the
//! virtual clock and the scheduler.
//!
//! A [`SimHandle`] is passed (by mutable reference) into every simulated
//! thread body. It is intentionally *not* `Clone`: it belongs to one worker
//! for the worker's whole life, and each simulated thread the worker runs
//! borrows it for the length of its body, mirroring how a PM2 thread owns
//! its Marcel descriptor.

use std::panic;
use std::sync::Arc;

use crate::cell::SliceRc;
use crate::engine::{EngineCtl, Shared, ShutdownUnwind};
use crate::thread::{ThreadId, ThreadSlot};
use crate::time::{SimDuration, SimTime};
use crate::wait::Waiter;

/// Handle owned by a simulated thread.
pub struct SimHandle {
    /// The engine, as every other holder of a controller sees it.
    pub(crate) ctl: EngineCtl,
    /// The worker's slot: also what a wait set keeps, with [`Self::id`], to
    /// wake this thread.
    pub(crate) slot: SliceRc<ThreadSlot>,
    /// The occupant's name, copied from the slot when its body starts.
    pub(crate) name: SliceRc<str>,
    /// Locally accumulated compute time not yet reflected in the global
    /// clock; the worker clears it when an occupant's body ends.
    pub(crate) pending: SimDuration,
}

impl SimHandle {
    pub(crate) fn new(ctl: EngineCtl, slot: SliceRc<ThreadSlot>) -> Self {
        SimHandle {
            ctl,
            name: slot.name(),
            slot,
            pending: SimDuration::ZERO,
        }
    }

    /// The identity of this simulated thread.
    pub fn id(&self) -> ThreadId {
        self.slot.id()
    }

    /// The name this thread was spawned with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The thread's local view of virtual time: the global clock plus any
    /// compute charged since the last yield.
    pub fn now(&self) -> SimTime {
        self.shared().now() + self.pending
    }

    /// The global clock, excluding locally pending compute.
    pub fn global_now(&self) -> SimTime {
        self.shared().now()
    }

    /// Compute time charged locally but not yet flushed to the global clock.
    pub fn pending(&self) -> SimDuration {
        self.pending
    }

    /// Charge `d` of local compute time. The charge is folded into the global
    /// clock at the next yield point (a sleep, a flush, the start of a wait),
    /// so hot loops pay no scheduler round-trip per charge.
    #[inline]
    pub fn charge(&mut self, d: SimDuration) {
        self.pending += d;
    }

    /// Force pending compute into the global clock by yielding.
    pub fn flush(&mut self) {
        if !self.pending.is_zero() {
            self.sleep(SimDuration::ZERO);
        }
    }

    /// The shard key this thread is currently bound to: all its wake-ups
    /// carry it. Defaults to the key it was spawned with (the spawner's
    /// shard, or the thread id).
    pub fn shard(&self) -> u64 {
        self.slot.shard_key()
    }

    /// Re-home this thread onto shard `key`. Layers call this when a thread
    /// migrates between cluster nodes, *before* the migration's sleep, so
    /// the post-migration wake-up already belongs to the destination node.
    pub fn set_shard(&mut self, key: u64) {
        self.slot.set_shard_key(key);
        self.shared().set_executing_shard(key);
    }

    /// Advance virtual time by `d` (plus any pending compute), yielding to the
    /// scheduler so other threads and messages can make progress.
    pub fn sleep(&mut self, d: SimDuration) {
        let wake_at = self.shared().now() + self.pending + d;
        self.pending = SimDuration::ZERO;
        self.shared()
            .schedule_wake(SliceRc::clone(&self.slot), self.id(), wake_at);
        self.park_raw();
    }

    /// Yield the slice without advancing time (other events scheduled at the
    /// current instant get a chance to run first).
    pub fn yield_now(&mut self) {
        self.sleep(SimDuration::ZERO);
    }

    /// Park this thread in a wait, with `waiter` attached to its worker: the
    /// engine checks it at each of the thread's wakes and grants a slice only
    /// once it holds. Only [`crate::WaitSet::wait_until_why`] calls this.
    /// Compute still pending is slept off first, with the thread in no set
    /// (a notify landing meanwhile would cut the charge short), and the wake
    /// at its end is the first check.
    pub(crate) fn wait(&mut self, waiter: &mut (dyn Waiter + Send + '_)) {
        if !self.pending.is_zero() {
            let wake_at = self.shared().now() + self.pending;
            self.pending = SimDuration::ZERO;
            self.shared()
                .schedule_wake(SliceRc::clone(&self.slot), self.id(), wake_at);
        }
        // SAFETY: the record is borrowed for this whole call, from a frame
        // of the caller that outlives it, and nothing here touches it. It is
        // detached as soon as the park returns; if the park unwinds instead
        // (teardown), the worker vacating clears it.
        unsafe { self.slot.attach_waiter(waiter) };
        self.park_raw();
        self.slot.detach_waiter();
    }

    fn park_raw(&mut self) {
        if !self.slot.park_and_wait() {
            // Engine teardown: unwind the user stack quietly. resume_unwind
            // (rather than panic!) skips the panic hook, so teardown does not
            // spam stderr with backtraces.
            panic::resume_unwind(Box::new(ShutdownUnwind));
        }
    }

    /// Spawn a new simulated thread that becomes runnable at this thread's
    /// current local time, on this thread's shard.
    pub fn spawn<F>(&mut self, name: impl Into<SliceRc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let key = self.slot.shard_key();
        self.spawn_on(key, name, f)
    }

    /// Spawn a new simulated thread bound to an explicit shard (see
    /// [`crate::Engine::spawn_on`]), runnable at this thread's local time.
    pub fn spawn_on<F>(&mut self, shard_key: u64, name: impl Into<SliceRc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let start_at = self.now();
        self.shared()
            .spawn_thread(name.into(), start_at, Some(shard_key), f)
    }

    /// Schedule a closure to run on the scheduler, on shard `shard_key`,
    /// after `delay` from this thread's local time.
    pub fn call_after_on<F>(&self, shard_key: u64, delay: SimDuration, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared()
            .schedule_call(self.now() + delay, Some(shard_key), Box::new(f));
    }

    /// The controller over the engine this thread runs on. Clone it to keep
    /// one in a shared data structure (channels, wait queues, RPC reply
    /// slots) or in a scheduled closure.
    pub fn ctl(&self) -> &EngineCtl {
        &self.ctl
    }

    fn shared(&self) -> &Arc<Shared> {
        &self.ctl.shared
    }
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimHandle({} '{}' now={})",
            self.id(),
            self.name(),
            self.now()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn handle_reports_identity() {
        let mut engine = Engine::new();
        engine.spawn("alpha", |h| {
            assert_eq!(h.name(), "alpha");
            assert_eq!(h.id().as_u64(), 0);
            assert_eq!(h.pending(), SimDuration::ZERO);
        });
        engine.run().unwrap();
    }

    #[test]
    fn call_after_runs_relative_to_local_time() {
        let mut engine = Engine::new();
        let when = Arc::new(AtomicU64::new(0));
        let w = when.clone();
        engine.spawn("t", move |h| {
            h.charge(SimDuration::from_micros(5));
            let w2 = w.clone();
            h.call_after_on(0, SimDuration::from_micros(10), move |ctl| {
                w2.store(ctl.now().as_nanos(), Ordering::SeqCst);
            });
            h.flush();
        });
        engine.run().unwrap();
        assert_eq!(when.load(Ordering::SeqCst), 15_000);
    }
}
