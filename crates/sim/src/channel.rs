//! Virtual-time message channels.
//!
//! A channel ([`channel`]) is an unbounded MPMC queue living in virtual time:
//! senders may attach a delivery delay, and receivers block in virtual time
//! until a message is available. A send schedules one delivery event at the
//! message's delivery time, and the message travels inside it; the event
//! runs [`SimSender::deliver`], which appends the message to the queue and
//! wakes one receiver. The engine pops events in (time, sequence) order, so
//! messages become visible in (delivery time, send order).
//!
//! The module also provides [`TickOutbox`], the per-tick accumulator behind
//! message batching: items addressed to the same key within one virtual-time
//! tick are collected and handed back as one unit when the tick ends.
//!
//! Neither takes a lock. A channel's queue is touched by receiving slices,
//! by the delivery event of each message, and by the host thread outside
//! [`crate::Engine::run`]; an outbox by whoever pushes and by the flush
//! event — all ordered by the hand-off, so the state sits in a
//! [`SliceCell`] that is released before a wake-up is submitted and before
//! the receiver parks.

use std::collections::VecDeque;

use crate::cell::{SliceCell, SliceRc};
use crate::engine::{BlockReason, EngineCtl};
use crate::handle::SimHandle;
use crate::time::{SimDuration, SimTime};
use crate::wait::WaitSet;

struct Inner<T> {
    /// Messages delivered and not yet received, in delivery order.
    ready: SliceCell<VecDeque<T>>,
    waiters: WaitSet,
    /// Shard the delivery events run on — the receivers' shard, so that
    /// deliveries serialize with the receiving node's other events.
    shard: u64,
    ctl: EngineCtl,
}

/// Sending half of a simulation channel. Cheap to clone: one plain count
/// (a [`SliceRc`]), which each send's delivery event takes.
pub struct SimSender<T> {
    inner: SliceRc<Inner<T>>,
}

/// Receiving half of a simulation channel. Cheap to clone (multiple consumers
/// are allowed; each message is delivered to exactly one receiver).
pub struct SimReceiver<T> {
    inner: SliceRc<Inner<T>>,
}

impl<T> Clone for SimSender<T> {
    fn clone(&self) -> Self {
        SimSender {
            inner: SliceRc::clone(&self.inner),
        }
    }
}

impl<T> Clone for SimReceiver<T> {
    fn clone(&self) -> Self {
        SimReceiver {
            inner: SliceRc::clone(&self.inner),
        }
    }
}

/// Create a new channel bound to the engine behind `ctl`, on shard 0.
/// Receivers should live on the channel's shard; multi-node layers use
/// [`channel_on`] with the receiving node's shard key.
pub fn channel<T: Send + 'static>(ctl: EngineCtl) -> (SimSender<T>, SimReceiver<T>) {
    channel_on(ctl, 0)
}

/// Create a new channel whose delivery events run on shard `shard_key`
/// (the shard of the receiving side).
pub fn channel_on<T: Send + 'static>(
    ctl: EngineCtl,
    shard_key: u64,
) -> (SimSender<T>, SimReceiver<T>) {
    let inner = SliceRc::new(Inner {
        ready: SliceCell::new(VecDeque::new()),
        waiters: WaitSet::new(),
        shard: shard_key,
        ctl,
    });
    (
        SimSender {
            inner: SliceRc::clone(&inner),
        },
        SimReceiver { inner },
    )
}

impl<T: Send + 'static> SimSender<T> {
    /// Send a message that becomes visible immediately (at the sender's
    /// current local time).
    pub fn send(&self, handle: &SimHandle, value: T) {
        self.send_delayed(handle, value, SimDuration::ZERO);
    }

    /// Send a message that becomes visible `delay` after the sender's current
    /// local time. Used to model network transfer times.
    pub fn send_delayed(&self, handle: &SimHandle, value: T, delay: SimDuration) {
        self.deliver_at(handle.now() + delay, value);
    }

    /// Send from outside any simulated thread (scheduler callbacks, setup
    /// code): the message becomes visible `delay` after the global clock.
    pub fn send_from_ctl(&self, ctl: &EngineCtl, value: T, delay: SimDuration) {
        self.deliver_at(ctl.now() + delay, value);
    }

    /// Make `value` visible now: append it to the queue and wake one waiting
    /// receiver. What every delivery event runs, on the receivers' shard;
    /// a layer that owns its own arrival event calls it there directly.
    pub fn deliver(&self, ctl: &EngineCtl, value: T) {
        self.inner.ready.borrow().push_back(value);
        self.inner.waiters.notify_one((), ctl, SimDuration::ZERO);
    }

    fn deliver_at(&self, at: SimTime, value: T) {
        let sender = self.clone();
        let inner = &self.inner;
        inner
            .ctl
            .call_at_on(inner.shard, at, move |ctl| sender.deliver(ctl, value));
    }
}

impl<T: Send + 'static> SimReceiver<T> {
    /// Receive the next message, blocking in virtual time until one is
    /// available — after the caller's pending compute, like every wait.
    /// Blocks forever (deadlock, detected by the engine) if no message ever
    /// arrives.
    pub fn recv(&self, handle: &mut SimHandle) -> T {
        let mut received = None;
        self.inner
            .waiters
            .wait_until_why((), handle, BlockReason::Channel, || {
                received = self.inner.ready.borrow().pop_front();
                received.is_some()
            });
        received.expect("the wait ends on a message")
    }
}

/// Per-tick accumulator used to batch messages.
///
/// Items pushed for the same `key` at the same virtual-time `tick` land in
/// one bucket. [`TickOutbox::push`] tells the caller when it opened a new
/// bucket — that is the moment to schedule exactly one flush for it, at
/// `tick` (e.g. with [`crate::EngineCtl::call_at`]); the flush drains every
/// bucket of the key with [`TickOutbox::take_all`] and forwards each as a
/// single unit. A caller may also flush a key early, before the scheduled
/// flush runs, which then finds nothing to drain. Items pushed for the same
/// (key, tick) *after* a flush simply open a fresh bucket, so no item is ever
/// lost — a tick may occasionally produce two batches, never zero.
///
/// Within a bucket, items keep the order they were pushed in. A bucket that
/// holds one item keeps it inline, and draining a key with one bucket
/// allocates nothing, so a lone item costs no allocation on its way through.
pub struct TickOutbox<K, T> {
    /// Open buckets as `(key, tick, items)`. Scanned: a bucket lives from its
    /// first push to the end of its tick, so there are a handful at a time.
    pending: SliceCell<Vec<(K, u64, TickBucket<T>)>>,
}

/// The items of one [`TickOutbox`] bucket, in push order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TickBucket<T> {
    /// The bucket's only item.
    One(T),
    /// Two or more items.
    Many(Vec<T>),
}

impl<T> TickBucket<T> {
    fn push(&mut self, item: T) {
        *self = match std::mem::replace(self, TickBucket::Many(Vec::new())) {
            TickBucket::One(first) => TickBucket::Many(vec![first, item]),
            TickBucket::Many(mut items) => {
                items.push(item);
                TickBucket::Many(items)
            }
        };
    }
}

impl<K: Eq + Copy, T> TickOutbox<K, T> {
    /// An empty outbox.
    pub fn new() -> Self {
        TickOutbox {
            pending: SliceCell::new(Vec::new()),
        }
    }

    /// Append `item` to the bucket for (`key`, `tick`). Returns `true` when
    /// this opened the bucket: the caller must schedule a flush at `tick`.
    pub fn push(&self, key: K, tick: SimTime, item: T) -> bool {
        let tick = tick.as_nanos();
        let mut pending = self.pending.borrow();
        match pending.iter_mut().find(|(k, t, _)| *k == key && *t == tick) {
            Some((_, _, bucket)) => {
                bucket.push(item);
                false
            }
            None => {
                pending.push((key, tick, TickBucket::One(item)));
                true
            }
        }
    }

    /// Drain every unflushed bucket for `key`, oldest tick first; empty if
    /// they were already flushed. The outbox is released before this
    /// returns, so whoever forwards the buckets may push and drain again.
    pub fn take_all(&self, key: K) -> impl Iterator<Item = (SimTime, TickBucket<T>)> {
        let mut pending = self.pending.borrow();
        // The oldest bucket is kept aside; only a second one needs a list.
        let mut oldest: Option<(SimTime, TickBucket<T>)> = None;
        let mut later = Vec::new();
        let mut at = 0;
        while at < pending.len() {
            if pending[at].0 != key {
                at += 1;
                continue;
            }
            // Order among the open buckets does not matter: a (key, tick)
            // names at most one.
            let (_, tick, items) = pending.swap_remove(at);
            let taken = (SimTime::from_nanos(tick), items);
            match &mut oldest {
                None => oldest = Some(taken),
                Some(kept) if taken.0 < kept.0 => later.push(std::mem::replace(kept, taken)),
                Some(_) => later.push(taken),
            }
        }
        later.sort_by_key(|(tick, _)| *tick);
        oldest.into_iter().chain(later)
    }

    /// True when no bucket is waiting for its flush: what a caller on a hot
    /// path asks before it prepares anything for [`TickOutbox::take_all`].
    pub fn is_empty(&self) -> bool {
        self.pending.borrow().is_empty()
    }
}

impl<K: Eq + Copy, T> Default for TickOutbox<K, T> {
    fn default() -> Self {
        TickOutbox::new()
    }
}

impl<K, T> std::fmt::Debug for TickOutbox<K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TickOutbox({} buckets)", self.pending.borrow().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn send_recv_roundtrip() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let got = Arc::new(StdAtomicU64::new(0));
        let g = got.clone();
        engine.spawn("receiver", move |h| {
            let v = rx.recv(h);
            g.store(v as u64, Ordering::SeqCst);
        });
        engine.spawn("sender", move |h| {
            h.sleep(SimDuration::from_micros(3));
            tx.send(h, 17);
        });
        engine.run().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn delayed_send_delivers_at_the_right_time() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<&'static str>(engine.ctl());
        let when = Arc::new(StdAtomicU64::new(0));
        let w = when.clone();
        engine.spawn("receiver", move |h| {
            let _ = rx.recv(h);
            w.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        engine.spawn("sender", move |h| {
            tx.send_delayed(h, "page", SimDuration::from_micros(138));
        });
        engine.run().unwrap();
        assert_eq!(when.load(Ordering::SeqCst), 138_000);
    }

    #[test]
    fn messages_arrive_in_delivery_time_order() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        engine.spawn("receiver", move |h| {
            for _ in 0..3 {
                o.lock().unwrap().push(rx.recv(h));
            }
        });
        engine.spawn("sender", move |h| {
            // Sent in one order, delivered in delay order.
            tx.send_delayed(h, 3, SimDuration::from_micros(30));
            tx.send_delayed(h, 1, SimDuration::from_micros(10));
            tx.send_delayed(h, 2, SimDuration::from_micros(20));
        });
        engine.run().unwrap();
        assert_eq!(order.lock().unwrap().clone(), vec![1, 2, 3]);
    }

    #[test]
    fn equal_delivery_times_preserve_send_order() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        engine.spawn("receiver", move |h| {
            for _ in 0..4 {
                o.lock().unwrap().push(rx.recv(h));
            }
        });
        engine.spawn("sender", move |h| {
            for i in 0..4 {
                tx.send_delayed(h, i, SimDuration::from_micros(5));
            }
        });
        engine.run().unwrap();
        assert_eq!(order.lock().unwrap().clone(), vec![0, 1, 2, 3]);
    }

    /// A receiver that charged compute and then receives is not resumed
    /// before its charge has elapsed, however early the message arrives.
    #[test]
    fn a_message_during_a_pending_charge_does_not_cut_it_short() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let received_at = Arc::new(StdAtomicU64::new(0));
        let r = received_at.clone();
        engine.spawn("receiver", move |h| {
            h.charge(SimDuration::from_micros(100));
            assert_eq!(rx.recv(h), 7);
            r.store(h.now().as_nanos(), Ordering::SeqCst);
        });
        engine.spawn("sender", move |h| {
            h.sleep(SimDuration::from_micros(30));
            tx.send(h, 7);
        });
        engine.run().unwrap();
        assert_eq!(received_at.load(Ordering::SeqCst), 100_000);
    }

    #[test]
    fn multiple_receivers_each_get_one_message() {
        let mut engine = Engine::new();
        let (tx, rx) = channel::<u32>(engine.ctl());
        let total = Arc::new(StdAtomicU64::new(0));
        for i in 0..3 {
            let rx = rx.clone();
            let total = total.clone();
            engine.spawn(format!("recv{i}"), move |h| {
                let v = rx.recv(h);
                total.fetch_add(v as u64, Ordering::SeqCst);
            });
        }
        engine.spawn("sender", move |h| {
            for v in [1, 10, 100] {
                tx.send(h, v);
            }
        });
        engine.run().unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 111);
    }

    /// Everything `take_all` drained for `key`, in order.
    fn drained<K: Eq + Copy, T>(
        outbox: &TickOutbox<K, T>,
        key: K,
    ) -> Vec<(SimTime, TickBucket<T>)> {
        outbox.take_all(key).collect()
    }

    #[test]
    fn tick_outbox_groups_by_key_and_tick() {
        use TickBucket::{Many, One};
        let outbox: TickOutbox<u32, &'static str> = TickOutbox::new();
        let t0 = SimTime::from_micros(10);
        let t1 = SimTime::from_micros(20);
        assert!(outbox.push(1, t0, "a"), "first item opens the bucket");
        assert!(!outbox.push(1, t0, "b"), "second item joins it");
        assert!(outbox.push(2, t0, "c"), "different key, own bucket");
        assert!(outbox.push(1, t1, "d"), "different tick, own bucket");
        assert_eq!(
            drained(&outbox, 1),
            vec![(t0, Many(vec!["a", "b"])), (t1, One("d"))]
        );
        assert!(drained(&outbox, 1).is_empty(), "drained");
        assert!(!outbox.is_empty(), "the other key's bucket is still parked");
        // A push after the flush opens a fresh bucket for the same slot.
        assert!(outbox.push(1, t0, "late"));
        assert_eq!(drained(&outbox, 1), vec![(t0, One("late"))]);
        assert_eq!(drained(&outbox, 2), vec![(t0, One("c"))]);
        assert!(outbox.is_empty());
    }

    #[test]
    fn tick_outbox_take_all_drains_a_key_in_tick_order() {
        use TickBucket::One;
        let outbox: TickOutbox<u32, u32> = TickOutbox::new();
        let (t0, t1, t2) = (
            SimTime::from_micros(30),
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        outbox.push(1, t0, 100);
        outbox.push(2, t0, 300);
        outbox.push(1, t1, 200);
        outbox.push(1, t2, 400);
        let drained_in_order = vec![(t1, One(200)), (t2, One(400)), (t0, One(100))];
        assert_eq!(drained(&outbox, 1), drained_in_order);
        assert!(drained(&outbox, 1).is_empty());
        assert!(!outbox.is_empty(), "other keys untouched");
        assert_eq!(drained(&outbox, 2), vec![(t0, One(300))]);
        assert!(outbox.is_empty() && drained(&outbox, 2).is_empty());
    }

    #[test]
    fn tick_outbox_flush_via_call_at_sees_all_same_tick_items() {
        // Two threads push for the same destination at the same virtual time;
        // the flush scheduled by the bucket opener collects both items.
        let mut engine = Engine::new();
        let outbox: Arc<TickOutbox<u8, u32>> = Arc::new(TickOutbox::new());
        let flushed = Arc::new(Mutex::new(Vec::new()));
        for v in [1u32, 2] {
            let outbox = outbox.clone();
            let flushed = flushed.clone();
            engine.spawn(format!("pusher{v}"), move |h| {
                h.sleep(SimDuration::from_micros(5));
                let tick = h.now();
                if outbox.push(7, tick, v) {
                    let outbox = outbox.clone();
                    let flushed = flushed.clone();
                    h.ctl().call_at(tick, move |_ctl| {
                        flushed.lock().unwrap().push(drained(&outbox, 7));
                    });
                }
            });
        }
        engine.run().unwrap();
        let tick = SimTime::from_micros(5);
        assert_eq!(
            flushed.lock().unwrap().clone(),
            vec![vec![(tick, TickBucket::Many(vec![1, 2]))]]
        );
        assert!(outbox.is_empty());
    }

    /// A message nobody receives keeps no thread alive: the run finishes
    /// once its delivery event has run.
    #[test]
    fn an_unreceived_message_keeps_no_thread_alive() {
        let mut engine = Engine::new();
        let (tx, _rx) = channel::<u32>(engine.ctl());
        engine.spawn("sender", move |h| {
            tx.send_delayed(h, 1, SimDuration::from_micros(1000));
        });
        let report = engine.run().unwrap();
        assert_eq!(report.final_time, SimTime::from_micros(1000));
        assert_eq!((report.events, report.threads_spawned), (2, 1));
    }
}
