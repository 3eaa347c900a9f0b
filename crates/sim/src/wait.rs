//! Wait sets: the one way a simulated thread blocks.
//!
//! A [`WaitSet`] records the simulated threads blocked until some condition
//! holds, each under a *key*: `()` for a lock, a barrier or a channel, the
//! coherence unit for a page table, the call id for RPC replies. A notify
//! names the key it wakes. Every blocking primitive — channel receives,
//! page faults, acknowledgement rounds, RPC replies, locks, barriers — waits
//! through [`WaitSet::wait_until_why`]. A waiting thread parks with a
//! *waiter record* on its own stack: its condition, its set, its key and the
//! [`BlockReason`] it books a park to. The engine runs that condition at each
//! of the thread's wakes before it grants a slice, so a wake whose wait is
//! not over costs an event but no switch. The order is this:
//!
//! * **Check on the thread, if nothing is pending.** With no compute charged
//!   since the last yield, the thread checks its condition itself: true, and
//!   the wait returns at once; false, and it registers at the back of the set
//!   under its key, books the park and parks.
//! * **Otherwise sleep the charge off first, unregistered.** A thread that
//!   charged compute it has not slept off is ahead of the global clock. Were
//!   it registered across that sleep, a notify landing meanwhile would resume
//!   it at the notify's instant and the rest of its charge would be lost. So
//!   it parks, with its record, on a wake at the end of its charge and in no
//!   set: no notify can reach it before then.
//! * **At every wake, the engine checks.** The wake that ends the charge, and
//!   each notify's wake after it, runs the condition before the slice: true,
//!   and the thread is granted its slice and the wait returns; false, and the
//!   engine registers the thread again at the back of its set and books the
//!   park, granting nothing. That is exactly where the thread would have
//!   registered had it run — nothing else runs between a wake event and the
//!   first instructions of the slice it grants — so the order of every set
//!   and the count of every [`BlockReason`] are what they were when the
//!   thread checked on its own stack.
//!
//! Each check and the registration after a false one are one step, on a
//! flushed clock: nothing between them yields, and one piece of simulated
//! code runs at a time, so no notify can fall in between and the lost
//! wake-up cannot occur. A notify while the condition is still false (a
//! spurious wake-up) is harmless: the engine checks again and re-registers.
//! A thread registers only through this path, and parking is private to this
//! crate, so no other crate can get the order wrong.
//!
//! The set takes no lock. Slices wait and notify; scheduler events (a
//! message's arrival, a wake's check) notify and register; the host thread
//! may look before and after [`crate::Engine::run`] — all ordered by the
//! hand-off, so the queue sits in a [`SliceCell`]. No borrow of it outlives
//! the method that took it: a waiter is out of the queue before its wake is
//! submitted (a wake event only joins the engine's queue; nobody's code runs
//! meanwhile), and nothing is held while a condition runs or a thread parks.
//!
//! Waiters of a key are woken in registration order. One piece of code
//! registers at a time and the engine executes events in the order they were
//! submitted, so that FIFO is a pure function of the program.

use std::collections::VecDeque;

use crate::cell::{SliceCell, SliceRc};
use crate::engine::{BlockReason, EngineCtl, Shared};
use crate::handle::SimHandle;
use crate::thread::{ThreadId, ThreadSlot};
use crate::time::SimDuration;

/// A set of blocked simulated threads, each waiting under a key of type `K`,
/// FIFO in registration order.
pub struct WaitSet<K = ()> {
    /// Waiters, oldest first, by key, thread and the worker it runs on: a
    /// wake-up goes straight to the worker, on the shard the thread is on
    /// then, with no lookup, addressed to the thread.
    pub(crate) waiters: SliceCell<VecDeque<(K, ThreadId, SliceRc<ThreadSlot>)>>,
}

impl<K> Default for WaitSet<K> {
    fn default() -> Self {
        WaitSet {
            waiters: SliceCell::new(VecDeque::new()),
        }
    }
}

impl<K: Copy + PartialEq> WaitSet<K> {
    /// Creates an empty wait set.
    pub fn new() -> Self {
        WaitSet::default()
    }

    /// Number of registered waiters, under any key.
    pub fn len(&self) -> usize {
        self.waiters.borrow().len()
    }

    /// True if no thread is registered.
    pub fn is_empty(&self) -> bool {
        self.waiters.borrow().is_empty()
    }

    /// Wake the oldest waiter under `key` (if any) after `delay`, removing it
    /// from the set: the wake event takes over the set's reference to its
    /// slot. Returns the thread that was woken.
    pub fn notify_one(&self, key: K, ctl: &EngineCtl, delay: SimDuration) -> Option<ThreadId> {
        let (_, id, slot) = {
            let mut waiters = self.waiters.borrow();
            let at = waiters.iter().position(|(k, ..)| *k == key)?;
            waiters.remove(at)?
        };
        ctl.shared.schedule_wake(slot, id, ctl.now() + delay);
        Some(id)
    }

    /// Wake every waiter under `key` after `delay`, oldest first, removing
    /// them in place — the set's buffer stays for the next round of waiters —
    /// and handing each slot to its wake event. Returns the number of threads
    /// woken.
    pub fn notify_all(&self, key: K, ctl: &EngineCtl, delay: SimDuration) -> usize {
        let at = ctl.now() + delay;
        let mut waiters = self.waiters.borrow();
        let mut woken = 0;
        let mut i = 0;
        // Submitting a wake runs nobody's code, so the queue may stay
        // borrowed meanwhile.
        while i < waiters.len() {
            if waiters[i].0 == key {
                let (_, id, slot) = waiters.remove(i).expect("index in range");
                ctl.shared.schedule_wake(slot, id, at);
                woken += 1;
            } else {
                i += 1;
            }
        }
        woken
    }

    /// Block the calling thread under `key` until `condition` returns true,
    /// booking each park to `reason` so the engine's block profile attributes
    /// it to what the wait models (a page fault, an ack round, a barrier...).
    /// The thread checks the condition itself only when it has no compute
    /// pending; every later check is the engine's, at one of the thread's
    /// wakes and before the slice (see the module documentation for the
    /// order). The condition is `Send` because that check may run on
    /// another OS thread than the waiting one (the baton lane).
    pub fn wait_until_why<F: FnMut() -> bool + Send>(
        &self,
        key: K,
        handle: &mut SimHandle,
        reason: BlockReason,
        condition: F,
    ) where
        K: Send,
    {
        let mut record = Waiting {
            set: self,
            key,
            reason,
            condition,
        };
        if handle.pending.is_zero() && record.check(handle.id(), &handle.slot, &handle.ctl.shared) {
            return;
        }
        handle.wait(&mut record);
        // The engine granted the slice on a true check, and a thread is woken
        // only by a notify that took its entry out of the set, or by the end
        // of a charge it slept off in none.
        debug_assert!(self
            .waiters
            .borrow()
            .iter()
            .all(|&(_, id, _)| id != handle.id()));
    }
}

/// A parked thread's wait, as the engine checks it at the thread's wake:
/// implemented by the record [`WaitSet::wait_until_why`] keeps on the
/// waiting thread's stack.
pub(crate) trait Waiter {
    /// Run the condition of thread `id`, parked on worker `slot`. True: the
    /// wait is over. False: the thread is registered again at the back of
    /// its set, and the park is booked to its reason — in the engine's
    /// block profile and as what a deadlock report names.
    fn check(&mut self, id: ThreadId, slot: &SliceRc<ThreadSlot>, shared: &Shared) -> bool;
}

/// The record of one wait: what the engine needs to check it and, while it
/// is not over, to register the thread again.
struct Waiting<'a, K, F> {
    set: &'a WaitSet<K>,
    key: K,
    reason: BlockReason,
    condition: F,
}

impl<K: Copy, F: FnMut() -> bool> Waiter for Waiting<'_, K, F> {
    fn check(&mut self, id: ThreadId, slot: &SliceRc<ThreadSlot>, shared: &Shared) -> bool {
        if (self.condition)() {
            return true;
        }
        self.set
            .waiters
            .borrow()
            .push_back((self.key, id, SliceRc::clone(slot)));
        slot.set_park_reason(self.reason);
        shared.record_block(self.reason);
        false
    }
}

impl WaitSet {
    /// [`WaitSet::wait_until_why`] for a set without keys, booked as a
    /// generic [`BlockReason::WaitSet`].
    pub fn wait_until<F: FnMut() -> bool + Send>(&self, handle: &mut SimHandle, condition: F) {
        self.wait_until_why((), handle, BlockReason::WaitSet, condition);
    }
}

impl<K> std::fmt::Debug for WaitSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WaitSet({} waiters)", self.waiters.borrow().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunReport};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn wait_until_blocks_until_condition() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let done_at = Arc::new(AtomicUsize::new(0));

        let ws2 = ws.clone();
        let flag2 = flag.clone();
        let done2 = done_at.clone();
        engine.spawn("waiter", move |h| {
            ws2.wait_until(h, || flag2.load(Ordering::SeqCst));
            done2.store(h.global_now().as_nanos() as usize, Ordering::SeqCst);
        });

        let ws3 = ws.clone();
        engine.spawn("setter", move |h| {
            h.sleep(SimDuration::from_micros(40));
            flag.store(true, Ordering::SeqCst);
            ws3.notify_one((), h.ctl(), SimDuration::ZERO);
        });

        engine.run().unwrap();
        assert_eq!(done_at.load(Ordering::SeqCst), 40_000);
        assert!(ws.is_empty());
    }

    /// A thread that charged compute and then waits is not resumed before
    /// its charge has elapsed, however early the notify comes: the loop
    /// sleeps the charge off before the thread is in the set.
    #[test]
    fn a_notify_during_a_pending_charge_does_not_cut_it_short() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let resumed_at = Arc::new(AtomicU64::new(0));
        let (w, f, r) = (ws.clone(), flag.clone(), resumed_at.clone());
        engine.spawn("waiter", move |h| {
            h.charge(SimDuration::from_micros(100));
            w.wait_until(h, || f.load(Ordering::SeqCst));
            r.store(h.now().as_nanos(), Ordering::SeqCst);
        });
        engine.spawn("notifier", move |h| {
            h.sleep(SimDuration::from_micros(30));
            flag.store(true, Ordering::SeqCst);
            ws.notify_one((), h.ctl(), SimDuration::ZERO);
        });
        engine.run().unwrap();
        assert_eq!(resumed_at.load(Ordering::SeqCst), 100_000);
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let woken = Arc::new(AtomicUsize::new(0));

        for i in 0..5 {
            let ws = ws.clone();
            let flag = flag.clone();
            let woken = woken.clone();
            engine.spawn(format!("waiter{i}"), move |h| {
                ws.wait_until(h, || flag.load(Ordering::SeqCst));
                woken.fetch_add(1, Ordering::SeqCst);
            });
        }
        let ws2 = ws.clone();
        engine.spawn("broadcaster", move |h| {
            h.sleep(SimDuration::from_micros(10));
            flag.store(true, Ordering::SeqCst);
            ws2.notify_all((), h.ctl(), SimDuration::ZERO);
        });
        engine.run().unwrap();
        assert_eq!(woken.load(Ordering::SeqCst), 5);
    }

    /// A notify while the condition is still false wakes the waiter, which
    /// checks, finds it false and waits again.
    #[test]
    fn spurious_wakeup_is_harmless() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (checks, done_at) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));

        let (ws2, flag2, c, d) = (ws.clone(), flag.clone(), checks.clone(), done_at.clone());
        engine.spawn("waiter", move |h| {
            ws2.wait_until(h, || {
                c.fetch_add(1, Ordering::SeqCst);
                flag2.load(Ordering::SeqCst)
            });
            d.store(h.now().as_nanos(), Ordering::SeqCst);
        });

        engine.spawn("noisy", move |h| {
            h.sleep(SimDuration::from_micros(5));
            ws.notify_one((), h.ctl(), SimDuration::ZERO);
            h.sleep(SimDuration::from_micros(5));
            flag.store(true, Ordering::SeqCst);
            ws.notify_one((), h.ctl(), SimDuration::ZERO);
        });

        engine.run().unwrap();
        // Before parking, after the spurious wake, after the real one.
        assert_eq!(checks.load(Ordering::SeqCst), 3);
        assert_eq!(done_at.load(Ordering::SeqCst), 10_000);
    }

    #[test]
    fn registration_order_follows_execution_order_across_instants() {
        // "late" is spawned first (its wake event gets the lower sequence
        // number) but sleeps longer, so "early" registers first in execution
        // order. notify_one must wake "early", not the thread with the
        // smaller event sequence number.
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        for (name, sleep_us) in [("late", 100u64), ("early", 50)] {
            let ws = ws.clone();
            let order = order.clone();
            engine.spawn(name, move |h| {
                h.sleep(SimDuration::from_micros(sleep_us));
                // False once: park until the first wake-up.
                let mut woken = false;
                ws.wait_until(h, || std::mem::replace(&mut woken, true));
                order.lock().unwrap().push(name);
            });
        }
        let ws2 = ws.clone();
        engine.spawn("notifier", move |h| {
            h.sleep(SimDuration::from_micros(200));
            ws2.notify_one((), h.ctl(), SimDuration::ZERO);
            h.sleep(SimDuration::from_micros(10));
            ws2.notify_one((), h.ctl(), SimDuration::ZERO);
        });
        engine.run().unwrap();
        assert_eq!(order.lock().unwrap().clone(), vec!["early", "late"]);
    }

    /// A thread that returns from a wait leaves no entry behind, and a
    /// thread the same notify woke in vain registers again.
    #[test]
    fn a_returning_waiter_leaves_only_the_others_registered() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let released = Arc::new(AtomicU64::new(0));
        for i in 1..=2 {
            let (ws, released) = (ws.clone(), released.clone());
            engine.spawn(format!("waiter{i}"), move |h| {
                ws.wait_until(h, || released.load(Ordering::SeqCst) >= i);
            });
        }
        let ws2 = ws.clone();
        engine.spawn("releaser", move |h| {
            for i in 1..=2 {
                h.sleep(SimDuration::from_micros(1));
                // Both registered, then only the one still waiting.
                assert_eq!(ws2.len(), 3 - i as usize);
                released.store(i, Ordering::SeqCst);
                ws2.notify_all((), h.ctl(), SimDuration::ZERO);
            }
        });
        engine.run().unwrap();
        assert!(ws.is_empty());
    }

    /// A notify wakes only the waiters of its key, and `notify_one` the
    /// oldest of them.
    #[test]
    fn a_notify_wakes_only_its_key() {
        let mut engine = Engine::new();
        let ws: Arc<WaitSet<u64>> = Arc::new(WaitSet::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        for (name, key) in [("a1", 1u64), ("b1", 2), ("a2", 1), ("b2", 2)] {
            let (ws, order) = (ws.clone(), order.clone());
            engine.spawn(name, move |h| {
                let mut woken = false;
                ws.wait_until_why(key, h, BlockReason::WaitSet, || {
                    std::mem::replace(&mut woken, true)
                });
                order.lock().unwrap().push((name, h.now().as_nanos()));
            });
        }
        engine.spawn("notifier", move |h| {
            h.sleep(SimDuration::from_micros(1));
            assert_eq!(ws.notify_one(3, h.ctl(), SimDuration::ZERO), None);
            assert!(ws.notify_one(2, h.ctl(), SimDuration::ZERO).is_some());
            h.sleep(SimDuration::from_micros(1));
            assert_eq!(ws.notify_all(1, h.ctl(), SimDuration::ZERO), 2);
            assert_eq!(ws.len(), 1);
            h.sleep(SimDuration::from_micros(1));
            assert_eq!(ws.notify_all(2, h.ctl(), SimDuration::ZERO), 1);
        });
        engine.run().unwrap();
        assert_eq!(
            order.lock().unwrap().clone(),
            [("b1", 1_000), ("a1", 2_000), ("a2", 2_000), ("b2", 3_000)]
        );
    }

    /// Parks booked to [`BlockReason::WaitSet`] so far.
    fn waitset_parks(engine: &Engine) -> u64 {
        engine.block_profile()[BlockReason::WaitSet as usize].1
    }

    /// Two threads wait on a flag; a notifier wakes them, once in vain if
    /// `spurious`, then one at a time once the flag is up.
    fn two_waiters(spurious: bool) -> (RunReport, u64, Vec<(&'static str, u64)>) {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        for name in ["first", "second"] {
            let (ws, flag, order) = (ws.clone(), flag.clone(), order.clone());
            engine.spawn(name, move |h| {
                ws.wait_until(h, || flag.load(Ordering::SeqCst));
                order.lock().unwrap().push((name, h.now().as_nanos()));
            });
        }
        engine.spawn("notifier", move |h| {
            h.sleep(SimDuration::from_micros(1));
            if spurious {
                assert_eq!(ws.notify_all((), h.ctl(), SimDuration::ZERO), 2);
            }
            h.sleep(SimDuration::from_micros(1));
            // Both registered again, in their first order.
            assert_eq!(ws.len(), 2);
            flag.store(true, Ordering::SeqCst);
            ws.notify_one((), h.ctl(), SimDuration::ZERO);
            h.sleep(SimDuration::from_micros(1));
            ws.notify_one((), h.ctl(), SimDuration::ZERO);
        });
        let report = engine.run().unwrap();
        let parks = waitset_parks(&engine);
        let order = order.lock().unwrap().clone();
        (report, parks, order)
    }

    /// A wake whose condition is still false runs no slice: the engine checks
    /// the condition, registers the waiter again at the back of its set and
    /// books the park. The waiters still leave in registration order.
    #[test]
    fn a_notify_whose_condition_is_false_runs_no_slice() {
        let (quiet, quiet_parks, quiet_order) = two_waiters(false);
        let (noisy, noisy_parks, noisy_order) = two_waiters(true);
        assert_eq!(noisy.context_switches, quiet.context_switches);
        assert_eq!(noisy.events, quiet.events + 2);
        assert_eq!((quiet_parks, noisy_parks), (2, 4));
        assert_eq!(quiet_order, [("first", 2_000), ("second", 3_000)]);
        assert_eq!(noisy_order, quiet_order);
    }

    /// A waiter with a charge pending sleeps it off in no set, so nothing can
    /// wake it early, and registers at the instant the charge ends, when the
    /// engine finds its condition false.
    #[test]
    fn a_charged_waiter_registers_when_its_charge_ends() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (checks, resumed_at) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (w, f, c, r) = (ws.clone(), flag.clone(), checks.clone(), resumed_at.clone());
        engine.spawn("waiter", move |h| {
            h.charge(SimDuration::from_micros(100));
            w.wait_until(h, || {
                c.fetch_add(1, Ordering::SeqCst);
                f.load(Ordering::SeqCst)
            });
            r.store(h.now().as_nanos(), Ordering::SeqCst);
        });
        let c = checks.clone();
        engine.spawn("observer", move |h| {
            h.sleep(SimDuration::from_micros(99));
            assert_eq!((ws.len(), c.load(Ordering::SeqCst)), (0, 0));
            // Queued after the waiter's wake for the same instant.
            h.sleep(SimDuration::from_micros(1));
            assert_eq!((ws.len(), c.load(Ordering::SeqCst)), (1, 1));
            h.sleep(SimDuration::from_micros(20));
            flag.store(true, Ordering::SeqCst);
            ws.notify_one((), h.ctl(), SimDuration::ZERO);
        });
        let report = engine.run().unwrap();
        assert_eq!(resumed_at.load(Ordering::SeqCst), 120_000);
        assert_eq!(checks.load(Ordering::SeqCst), 2);
        assert_eq!(waitset_parks(&engine), 1);
        // The waiter's first and last slices, the observer's four.
        assert_eq!((report.events, report.context_switches), (7, 6));
    }
}
