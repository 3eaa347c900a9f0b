//! Communication statistics.
//!
//! PM2 ships post-mortem monitoring tools; this module provides the
//! communication-side counters that feed the monitoring reports and the
//! benchmark harness (message counts, transferred volumes, per-link
//! breakdowns).

use std::collections::HashMap;

use dsmpm2_sim::{SimDuration, SliceCell};

use crate::topology::NodeId;

/// Aggregated communication counters for one [`crate::Network`]. Bumped by
/// whoever sends (a slice, or a scheduler event flushing a batch) and read
/// by the host thread outside the run, so — like every per-message counter
/// of this crate — they are plain words in a [`SliceCell`], not atomics.
pub struct NetStats {
    num_nodes: usize,
    counters: SliceCell<NetCounters>,
}

struct NetCounters {
    messages: u64,
    bytes: u64,
    /// One row per directed link, at `from * num_nodes + to`.
    per_link: Vec<LinkCounters>,
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
    /// Per-directed-link counters, for the links that carried a message.
    pub per_link: HashMap<(NodeId, NodeId), LinkCounters>,
}

impl NetStats {
    /// Zeroed statistics for the links of a cluster of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        NetStats {
            num_nodes,
            counters: SliceCell::new(NetCounters {
                messages: 0,
                bytes: 0,
                per_link: vec![LinkCounters::default(); num_nodes * num_nodes],
            }),
        }
    }

    /// Row of `from -> to`, `None` for a node outside the cluster.
    fn row(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let n = self.num_nodes;
        (from.index() < n && to.index() < n).then(|| from.index() * n + to.index())
    }

    /// Record one message of `bytes` payload bytes from `from` to `to`.
    ///
    /// # Panics
    /// Panics if either node is outside the cluster.
    pub fn record(&self, from: NodeId, to: NodeId, bytes: usize) {
        let row = self
            .row(from, to)
            .unwrap_or_else(|| panic!("message between unknown nodes {from} -> {to}"));
        let mut counters = self.counters.borrow();
        counters.messages += 1;
        counters.bytes += bytes as u64;
        let link = &mut counters.per_link[row];
        link.messages += 1;
        link.bytes += bytes as u64;
    }

    /// Total number of messages sent so far.
    pub fn messages(&self) -> u64 {
        self.counters.borrow().messages
    }

    /// Total payload bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.counters.borrow().bytes
    }

    /// Counters for one directed link (zero if it never carried a message).
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkCounters {
        self.row(from, to)
            .map(|row| self.counters.borrow().per_link[row])
            .unwrap_or_default()
    }

    /// A consistent snapshot of every counter.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        let counters = self.counters.borrow();
        let links = counters.per_link.iter().enumerate();
        NetStatsSnapshot {
            messages: counters.messages,
            bytes: counters.bytes,
            per_link: links
                .filter(|(_, link)| link.messages > 0)
                .map(|(row, link)| {
                    let (from, to) = (row / self.num_nodes, row % self.num_nodes);
                    ((NodeId(from), NodeId(to)), *link)
                })
                .collect(),
        }
    }

    /// Reset every counter to zero (used between benchmark iterations).
    pub fn reset(&self) {
        let mut counters = self.counters.borrow();
        counters.messages = 0;
        counters.bytes = 0;
        counters.per_link.fill(LinkCounters::default());
    }
}

/// Wire-level counters of one transport backend (as opposed to the
/// message-level [`NetStats`], which count what the layers above put on the
/// wire regardless of how the backend carries it).
#[derive(Default)]
pub struct WireStats(SliceCell<WireStatsSnapshot>);

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
    /// Envelopes the installed delivery hook saw: dispatched by the upper
    /// layer or enqueued on the node's incoming queue. Zero when no hook is
    /// installed.
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
        self.0.borrow().fifo_stall_ns += d.as_nanos();
    }

    /// Account egress-NIC waiting of one frame.
    pub fn add_egress_stall(&self, d: SimDuration) {
        self.0.borrow().egress_stall_ns += d.as_nanos();
    }

    /// Account ingress-NIC waiting of one frame.
    pub fn add_ingress_stall(&self, d: SimDuration) {
        self.0.borrow().ingress_stall_ns += d.as_nanos();
    }

    /// Count one dropped wire attempt.
    pub fn incr_drop(&self) {
        self.0.borrow().drops += 1;
    }

    /// Count one retransmission.
    pub fn incr_retransmit(&self) {
        self.0.borrow().retransmits += 1;
    }

    /// Count one discarded duplicate frame.
    pub fn incr_duplicate(&self) {
        self.0.borrow().duplicates += 1;
    }

    /// Account one wire envelope of `bytes` accounted bytes carrying
    /// `messages` logical messages.
    pub fn add_envelope(&self, bytes: u64, messages: u64) {
        let mut stats = self.0.borrow();
        stats.envelopes += 1;
        stats.envelope_bytes += bytes;
        stats.messages += messages;
        stats.message_bytes += bytes;
    }

    /// Count one envelope the delivery hook saw.
    pub fn incr_hook_delivered(&self) {
        self.0.borrow().hook_delivered += 1;
    }

    /// A consistent snapshot of every counter.
    pub fn snapshot(&self) -> WireStatsSnapshot {
        *self.0.borrow()
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
        w.incr_hook_delivered();
        let s = w.snapshot();
        assert_eq!(s.envelopes, 2);
        assert_eq!(s.envelope_bytes, 600);
        assert_eq!(s.messages, 5);
        assert_eq!(s.message_bytes, 600);
        assert_eq!(s.bytes_per_envelope(), 300.0);
        assert_eq!(s.messages_per_envelope(), 2.5);
        assert_eq!(s.hook_delivered, 1);
        assert_eq!(WireStatsSnapshot::default().bytes_per_envelope(), 0.0);
    }

    #[test]
    fn record_accumulates_totals_and_links() {
        let s = NetStats::new(2);
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
        // A link that never carried a message reads zero, inside the
        // cluster and outside it.
        assert_eq!(s.link(NodeId(1), NodeId(1)), LinkCounters::default());
        assert_eq!(s.link(NodeId(2), NodeId(3)), LinkCounters::default());
    }

    #[test]
    fn snapshot_and_reset() {
        let s = NetStats::new(2);
        s.record(NodeId(0), NodeId(1), 4096);
        let snap = s.snapshot();
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.bytes, 4096);
        // Only the link that carried something has a row.
        let rows: Vec<_> = snap.per_link.keys().copied().collect();
        assert_eq!(rows, [(NodeId(0), NodeId(1))]);
        s.reset();
        assert_eq!(s.messages(), 0);
        assert_eq!(s.bytes(), 0);
        assert!(s.snapshot().per_link.is_empty());
    }
}
