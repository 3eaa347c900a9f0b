//! The engine's pending events and the queue that orders them.
//!
//! Events leave the queue in ascending `(time, seq)` order. Few are pending
//! at once (a handful on a message-driven run, a few dozen at a release
//! storm), so the earliest of them sit in a short sorted `Vec` — a pop is a
//! `Vec::pop`, a push a scan of a few slots — and only what does not fit
//! goes to a binary heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cell::SliceRc;
use crate::engine::EngineCtl;
use crate::thread::{ThreadId, ThreadSlot};

pub(crate) enum EventKind {
    /// Hand a slice to the parked simulated thread [`Event::to`], on the
    /// worker it runs on: stale once the worker runs another thread.
    Wake(SliceRc<ThreadSlot>),
    /// Execute a closure on the scheduler (used for delayed message delivery).
    Call(Box<dyn FnOnce(&EngineCtl) + Send>),
}

/// 48 bytes, a multiple of the alignment: the queue moves events on every
/// push and pop, and at 40 bytes one slot in two straddled a 16-byte
/// boundary. Unpadded, a yield (`sim.yield_ns`) took about a fifth longer on
/// a 2-vCPU Xeon host, back when every event went through a binary heap.
#[repr(align(16))]
pub(crate) struct Event {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    /// Shard key the event was scheduled with (inherited by key-less pushes
    /// made while it executes).
    pub(crate) shard: u64,
    /// The thread a `Wake` is for ([`NO_THREAD`] for a `Call`). A field of
    /// its own, in what was padding: in the `Wake` variant it made the kind
    /// 24 bytes with a tag word, and two threads' yields to each other
    /// 16–24 % slower on the same host.
    pub(crate) to: ThreadId,
    pub(crate) kind: EventKind,
}

/// What a `Call` event is addressed to: no thread.
pub(crate) const NO_THREAD: ThreadId = ThreadId(u64::MAX);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// How many of the earliest pending events the sorted window holds. The
/// five benchmark workloads find 2 to 18 events pending at a push on
/// average, 47 at most (EXPERIMENTS.md "PR 53"): 32 holds every one of
/// four of them, and 95 % of `diff_release`'s pushes stay out of the heap.
/// The bound keeps an insert short when thousands are pending; 48 and 64
/// measured no different.
const WINDOW: usize = 32;

/// The pending events, popped in ascending `(time, seq)` order: what a
/// `BinaryHeap<Reverse<Event>>` pops, at a `Vec` pop and a short scan per
/// event while few are pending.
pub(crate) struct EventQueue {
    /// At most [`WINDOW`] pending events sorted by descending `(time, seq)`:
    /// the last one is the window's earliest.
    window: Vec<Event>,
    /// Every other pending event: pushed past a full window, or evicted from
    /// it by an earlier push.
    overflow: BinaryHeap<Reverse<Event>>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            window: Vec::with_capacity(WINDOW),
            overflow: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, event: Event) {
        let window = &mut self.window;
        if window.len() == WINDOW && window[0] < event {
            self.overflow.push(Reverse(event));
            return;
        }
        // Past every event due after it, scanning from the pop end.
        let mut at = window.len();
        while at > 0 && window[at - 1] < event {
            at -= 1;
        }
        if window.len() < WINDOW {
            window.insert(at, event);
        } else {
            // Full: the window's latest event makes room.
            let latest = std::mem::replace(&mut window[0], event);
            window[..at].rotate_left(1);
            self.overflow.push(Reverse(latest));
        }
    }

    /// Whether the next event is the overflow's head rather than the
    /// window's.
    fn overflow_first(&self) -> bool {
        match (self.window.last(), self.overflow.peek()) {
            (Some(w), Some(Reverse(o))) => o < w,
            (w, _) => w.is_none(),
        }
    }

    pub(crate) fn peek(&self) -> Option<&Event> {
        if self.overflow_first() {
            self.overflow.peek().map(|Reverse(e)| e)
        } else {
            self.window.last()
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Event> {
        if self.overflow_first() {
            self.overflow.pop().map(|Reverse(e)| e)
        } else {
            self.window.pop()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 48);
    }

    /// SplitMix64: a seeded stream of test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// An `EventQueue` beside the `BinaryHeap` of `(time, seq)` it must pop
    /// exactly like.
    struct Pair {
        queue: EventQueue,
        reference: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
        /// Time of the last pop: pushes are never earlier, as in the engine.
        now: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                queue: EventQueue::new(),
                reference: BinaryHeap::new(),
                seq: 0,
                now: 0,
            }
        }

        fn len(&self) -> usize {
            self.reference.len()
        }

        fn push_keyed(&mut self, time: u64, seq: u64) {
            self.queue.push(Event {
                time,
                seq,
                shard: 0,
                to: NO_THREAD,
                kind: EventKind::Call(Box::new(|_| {})),
            });
            self.reference.push(Reverse((time, seq)));
        }

        /// Push at `now + delay` with the next sequence number.
        fn push(&mut self, delay: u64) {
            self.seq += 1;
            self.push_keyed(self.now + delay, self.seq);
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let got = self.queue.pop().map(|e| (e.time, e.seq));
            assert_eq!(got, self.reference.pop().map(|Reverse(k)| k));
            if let Some((time, _)) = got {
                self.now = time;
            }
            got
        }

        /// What `pop_controlled` does: drain every event of the head instant,
        /// run one of them and push the rest back.
        fn drain_and_repush(&mut self, rng: &mut Rng) {
            let Some(head) = self.queue.peek().map(|e| e.time) else {
                return;
            };
            let mut batch = Vec::new();
            while self.queue.peek().is_some_and(|e| e.time == head) {
                batch.push(self.pop().expect("peeked"));
            }
            assert!(batch.windows(2).all(|w| w[0].1 < w[1].1));
            batch.swap_remove(rng.below(batch.len() as u64) as usize);
            for (time, seq) in batch {
                self.push_keyed(time, seq);
            }
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }
    }

    /// One random step towards about `target` pending events: a push of one
    /// of the kinds the engine makes, or a few pops.
    fn step(pair: &mut Pair, rng: &mut Rng, target: usize) {
        let push_chance = if pair.len() < target { 80 } else { 20 };
        if rng.below(100) >= push_chance {
            for _ in 0..1 + rng.below(8) {
                pair.pop();
            }
        } else {
            match rng.below(5) {
                // The current instant.
                0 => pair.push(0),
                // The near future: a message's latency, a short charge.
                1 => pair.push(1 + rng.below(50)),
                // The far future: a long sleep.
                2 => pair.push(10_000 + rng.below(1_000_000)),
                // A descending run: each event due before the one pushed
                // just ahead of it.
                3 => {
                    let top = 1 + rng.below(200);
                    for d in (0..=top).rev().step_by(1 + rng.below(7) as usize) {
                        pair.push(d);
                    }
                }
                // A burst at one instant, often more than the window holds.
                _ => {
                    let at = rng.below(3);
                    for _ in 0..rng.below(2 * WINDOW as u64) {
                        pair.push(at);
                    }
                }
            }
        }
    }

    #[test]
    fn pops_in_the_order_of_a_binary_heap() {
        for seed in 0..40 {
            let mut rng = Rng(seed);
            let mut pair = Pair::new();
            for round in 0..12 {
                // Fewer pending than the window holds, about as many, more.
                let target = [4, 16, WINDOW, 2 * WINDOW, 200][(seed + round) as usize % 5];
                for _ in 0..250 {
                    if rng.below(30) == 0 {
                        pair.drain_and_repush(&mut rng);
                    } else {
                        step(&mut pair, &mut rng, target);
                    }
                }
            }
            pair.drain();
        }
    }

    #[test]
    fn pops_in_the_order_of_a_binary_heap_far_beyond_the_window() {
        let mut rng = Rng(7);
        let mut pair = Pair::new();
        while pair.len() < 100_000 {
            step(&mut pair, &mut rng, 100_000);
        }
        pair.drain_and_repush(&mut rng);
        // Half of it out, under the same mix, then every event.
        while pair.len() > 50_000 {
            step(&mut pair, &mut rng, 50_000);
        }
        pair.drain();
    }

    /// Events of one instant split between the window and the overflow, the
    /// overflow's with the lower sequence numbers: a queue that compared the
    /// two heads by time alone would run the window's first.
    #[test]
    fn an_instant_split_across_window_and_overflow_pops_in_sequence_order() {
        let mut pair = Pair::new();
        for _ in 0..WINDOW {
            pair.push(10);
        }
        // Evicts the latest of the window into the overflow.
        pair.push(5);
        pair.pop();
        // Room in the window again, for a later sequence number at 10.
        pair.push(5);
        pair.drain();
    }
}
