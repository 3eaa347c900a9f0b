//! Wait sets: the one way a simulated thread blocks.
//!
//! A [`WaitSet`] records the simulated threads blocked until some condition
//! holds, each under a *key*: `()` for a lock, a barrier or a channel, the
//! coherence unit for a page table, the call id for RPC replies. A notify
//! names the key it wakes. Every blocking primitive — channel receives,
//! page faults, acknowledgement rounds, RPC replies, locks, barriers — waits
//! through [`WaitSet::wait_until_why`], whose loop is *flush, check,
//! register, park* (the notify that wakes a waiter takes it out of the set):
//!
//! * **Flush first.** A thread that charged compute it has not slept off is
//!   ahead of the global clock, and sleeping it off is itself a yield. A
//!   thread registered across that yield can be notified while it sleeps: it
//!   resumes at the notify's instant and the rest of its charge is lost. So
//!   the loop sleeps the charge off before the thread enters any set, and
//!   the park asserts that nothing is pending.
//! * **Check, register, park is atomic.** On a flushed clock nothing between
//!   the check and the park yields, and at most one simulated thread runs at
//!   a time, so no notify can fall in between: the lost-wake-up race cannot
//!   occur. A notify while the condition is still false (a spurious wake-up)
//!   is harmless, because the loop checks again.
//!
//! A thread registers only inside that loop, and parking is private to this
//! crate, so no other crate can get the order wrong.
//!
//! The set takes no lock. Slices wait and notify; scheduler events (a
//! message's arrival) notify; the host thread may look before and after
//! [`crate::Engine::run`] — all ordered by the hand-off, so the queue sits in
//! a [`SliceCell`]. No borrow of it outlives the method that took it: a
//! waiter is out of the queue before its wake is submitted (a wake event only
//! joins the engine's queue; nobody's code runs meanwhile), and nothing is
//! held while the caller checks its condition or parks.
//!
//! Waiters of a key are woken in registration order. One thread registers at
//! a time and the engine executes events in the order they were submitted,
//! so that FIFO is a pure function of the program.

use std::collections::VecDeque;

use crate::cell::{SliceCell, SliceRc};
use crate::engine::{BlockReason, EngineCtl};
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
    /// The loop flushes pending compute, checks the condition, registers and
    /// parks (see the module documentation for why in that order); the
    /// condition is checked again after every wake-up.
    pub fn wait_until_why<F: FnMut() -> bool>(
        &self,
        key: K,
        handle: &mut SimHandle,
        reason: BlockReason,
        mut condition: F,
    ) {
        loop {
            handle.flush();
            if condition() {
                return;
            }
            self.waiters
                .borrow()
                .push_back((key, handle.id(), SliceRc::clone(&handle.slot)));
            handle.park(reason);
            // A parked thread runs again only through a notify's wake event,
            // and the notify took its entry out of the set.
            debug_assert!(self
                .waiters
                .borrow()
                .iter()
                .all(|&(_, id, _)| id != handle.id()));
        }
    }
}

impl WaitSet {
    /// [`WaitSet::wait_until_why`] for a set without keys, booked as a
    /// generic [`BlockReason::WaitSet`].
    pub fn wait_until<F: FnMut() -> bool>(&self, handle: &mut SimHandle, condition: F) {
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
    use crate::engine::Engine;
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
}
