//! Communication statistics.
//!
//! PM2 ships post-mortem monitoring tools; this module provides the
//! communication-side counters that feed the monitoring reports and the
//! benchmark harness (message counts, transferred volumes, per-link
//! breakdowns).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use dsmpm2_sim::SimDuration;

use crate::topology::NodeId;

/// Aggregated communication counters for one [`crate::Network`].
#[derive(Default)]
pub struct NetStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    per_link: Mutex<HashMap<(NodeId, NodeId), LinkCounters>>,
}

/// Counters for one directed (source, destination) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Number of messages sent on this link.
    pub messages: u64,
    /// Total payload bytes sent on this link.
    pub bytes: u64,
}

/// A point-in-time snapshot of network statistics.
#[derive(Clone, Debug, Default)]
pub struct NetStatsSnapshot {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Per-directed-link counters.
    pub per_link: HashMap<(NodeId, NodeId), LinkCounters>,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message of `bytes` payload bytes from `from` to `to`.
    pub fn record(&self, from: NodeId, to: NodeId, bytes: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let mut links = self.per_link.lock();
        let entry = links.entry((from, to)).or_default();
        entry.messages += 1;
        entry.bytes += bytes as u64;
    }

    /// Total number of messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Counters for one directed link.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkCounters {
        self.per_link
            .lock()
            .get(&(from, to))
            .copied()
            .unwrap_or_default()
    }

    /// A consistent snapshot of every counter.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            messages: self.messages(),
            bytes: self.bytes(),
            per_link: self.per_link.lock().clone(),
        }
    }

    /// Reset every counter to zero (used between benchmark iterations).
    pub fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.per_link.lock().clear();
    }
}

/// Wire-level counters of one transport backend (as opposed to the
/// message-level [`NetStats`], which count what the layers above put on the
/// wire regardless of how the backend carries it).
#[derive(Default)]
pub struct WireStats {
    fifo_stall_ns: AtomicU64,
    egress_stall_ns: AtomicU64,
    ingress_stall_ns: AtomicU64,
    drops: AtomicU64,
    retransmits: AtomicU64,
    duplicates: AtomicU64,
    envelopes: AtomicU64,
    envelope_bytes: AtomicU64,
    messages: AtomicU64,
    message_bytes: AtomicU64,
    hook_consumed: AtomicU64,
    hook_delivered: AtomicU64,
}

/// A point-in-time snapshot of [`WireStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStatsSnapshot {
    /// Virtual time messages spent stretched by the per-link FIFO guarantee.
    pub fifo_stall_ns: u64,
    /// Virtual time frames waited for the sender's egress NIC.
    pub egress_stall_ns: u64,
    /// Virtual time frames waited for the receiver's ingress NIC.
    pub ingress_stall_ns: u64,
    /// Wire attempts dropped by the lossy backend.
    pub drops: u64,
    /// Retransmissions triggered by drops.
    pub retransmits: u64,
    /// Duplicate frames discarded by the sequence-number check.
    pub duplicates: u64,
    /// Wire envelopes submitted to the transport. One envelope may carry
    /// several logical messages (the per-tick coherence batcher coalesces
    /// same-destination messages into one).
    pub envelopes: u64,
    /// Total accounted bytes of those envelopes (payload plus per-message
    /// wire headers).
    pub envelope_bytes: u64,
    /// Logical messages carried by the submitted envelopes.
    pub messages: u64,
    /// Accounted bytes attributed to logical messages. Equal to
    /// `envelope_bytes` (the envelope's bytes are exactly its messages'
    /// bytes); reported separately so `messages`/`message_bytes` and
    /// `envelopes`/`envelope_bytes` form comparable per-message and
    /// per-envelope averages.
    pub message_bytes: u64,
    /// Envelopes the delivery hook answered in place at their arrival
    /// instant (one-sided read fetches served directly from the home's
    /// frame) — these were never dispatched.
    pub hook_consumed: u64,
    /// Envelopes the installed delivery hook saw and did not answer in place:
    /// dispatched by the upper layer or enqueued on the node's incoming
    /// queue. Zero when no hook is installed.
    pub hook_delivered: u64,
}

impl WireStatsSnapshot {
    /// Total virtual time spent stalled on NICs (egress + ingress).
    pub fn contention_stall_ns(&self) -> u64 {
        self.egress_stall_ns + self.ingress_stall_ns
    }

    /// Average accounted bytes per wire envelope.
    pub fn bytes_per_envelope(&self) -> f64 {
        if self.envelopes == 0 {
            0.0
        } else {
            self.envelope_bytes as f64 / self.envelopes as f64
        }
    }

    /// Average logical messages per wire envelope (> 1 under batching).
    pub fn messages_per_envelope(&self) -> f64 {
        if self.envelopes == 0 {
            0.0
        } else {
            self.messages as f64 / self.envelopes as f64
        }
    }
}

impl WireStats {
    /// Account FIFO stretching of one message.
    pub fn add_fifo_stall(&self, d: SimDuration) {
        self.fifo_stall_ns
            .fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    /// Account egress-NIC waiting of one frame.
    pub fn add_egress_stall(&self, d: SimDuration) {
        self.egress_stall_ns
            .fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    /// Account ingress-NIC waiting of one frame.
    pub fn add_ingress_stall(&self, d: SimDuration) {
        self.ingress_stall_ns
            .fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    /// Count one dropped wire attempt.
    pub fn incr_drop(&self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one retransmission.
    pub fn incr_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one discarded duplicate frame.
    pub fn incr_duplicate(&self) {
        self.duplicates.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one wire envelope of `bytes` accounted bytes carrying
    /// `messages` logical messages.
    pub fn add_envelope(&self, bytes: u64, messages: u64) {
        self.envelopes.fetch_add(1, Ordering::Relaxed);
        self.envelope_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.message_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one envelope the delivery hook answered in place.
    pub fn incr_hook_consumed(&self) {
        self.hook_consumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one envelope the delivery hook saw and did not answer in place.
    pub fn incr_hook_delivered(&self) {
        self.hook_delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent snapshot of every counter.
    pub fn snapshot(&self) -> WireStatsSnapshot {
        WireStatsSnapshot {
            fifo_stall_ns: self.fifo_stall_ns.load(Ordering::Relaxed),
            egress_stall_ns: self.egress_stall_ns.load(Ordering::Relaxed),
            ingress_stall_ns: self.ingress_stall_ns.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            envelopes: self.envelopes.load(Ordering::Relaxed),
            envelope_bytes: self.envelope_bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            message_bytes: self.message_bytes.load(Ordering::Relaxed),
            hook_consumed: self.hook_consumed.load(Ordering::Relaxed),
            hook_delivered: self.hook_delivered.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_stats_accumulate_and_snapshot() {
        let w = WireStats::default();
        w.add_egress_stall(SimDuration::from_micros(2));
        w.add_ingress_stall(SimDuration::from_micros(3));
        w.incr_drop();
        w.incr_retransmit();
        w.incr_duplicate();
        let s = w.snapshot();
        assert_eq!(s.contention_stall_ns(), 5_000);
        assert_eq!((s.drops, s.retransmits, s.duplicates), (1, 1, 1));
    }

    #[test]
    fn envelope_and_message_accounting() {
        let w = WireStats::default();
        w.add_envelope(100, 1);
        w.add_envelope(500, 4); // a batched envelope carrying 4 messages
        w.incr_hook_consumed();
        w.incr_hook_delivered();
        let s = w.snapshot();
        assert_eq!(s.envelopes, 2);
        assert_eq!(s.envelope_bytes, 600);
        assert_eq!(s.messages, 5);
        assert_eq!(s.message_bytes, 600);
        assert_eq!(s.bytes_per_envelope(), 300.0);
        assert_eq!(s.messages_per_envelope(), 2.5);
        assert_eq!((s.hook_consumed, s.hook_delivered), (1, 1));
        assert_eq!(WireStatsSnapshot::default().bytes_per_envelope(), 0.0);
    }

    #[test]
    fn record_accumulates_totals_and_links() {
        let s = NetStats::new();
        s.record(NodeId(0), NodeId(1), 100);
        s.record(NodeId(0), NodeId(1), 50);
        s.record(NodeId(1), NodeId(0), 10);
        assert_eq!(s.messages(), 3);
        assert_eq!(s.bytes(), 160);
        assert_eq!(
            s.link(NodeId(0), NodeId(1)),
            LinkCounters {
                messages: 2,
                bytes: 150
            }
        );
        assert_eq!(s.link(NodeId(2), NodeId(3)), LinkCounters::default());
    }

    #[test]
    fn snapshot_and_reset() {
        let s = NetStats::new();
        s.record(NodeId(0), NodeId(1), 4096);
        let snap = s.snapshot();
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.bytes, 4096);
        assert_eq!(snap.per_link.len(), 1);
        s.reset();
        assert_eq!(s.messages(), 0);
        assert_eq!(s.bytes(), 0);
        assert!(s.snapshot().per_link.is_empty());
    }
}
