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
//! A channel takes no lock. Its queue is touched by receiving slices, by
//! the delivery event of each message, and by the host thread outside
//! [`crate::Engine::run`] — all ordered by the hand-off, so the queue sits
//! in a [`SliceCell`] that is released before a wake-up is submitted and
//! before the receiver parks.

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
