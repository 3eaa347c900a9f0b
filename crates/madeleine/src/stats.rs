//! Communication statistics.
//!
//! PM2 ships post-mortem monitoring tools; this module provides the
//! communication-side counters that feed the monitoring reports and the
//! benchmark harness: message counts, transferred volumes and per-link
//! breakdowns, and the wire-level totals of the transport backend (envelopes,
//! logical messages, NIC and FIFO stalls, drops, duplicates). One
//! [`NetStats`] holds all of them for one [`crate::Network`]; the network
//! counts each envelope once, and its backend adds what the wire did to it.

use std::collections::HashMap;

use dsmpm2_sim::SliceCell;

use crate::topology::NodeId;

/// Every communication counter of one [`crate::Network`]. Bumped by whoever
/// sends (a slice, or a scheduler event flushing a batch), by the backend's
/// wire events, and read by the host thread outside the run, so they are
/// plain words in a [`SliceCell`], not atomics.
pub struct NetStats {
    num_nodes: usize,
    counters: SliceCell<NetCounters>,
}

struct NetCounters {
    messages: u64,
    bytes: u64,
    /// One row per directed link, at `from * num_nodes + to`.
    per_link: Vec<LinkCounters>,
    wire: WireStatsSnapshot,
}

/// Counters for one directed (source, destination) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Number of messages sent on this link.
    pub messages: u64,
    /// Total payload bytes sent on this link.
    pub bytes: u64,
}

/// A point-in-time snapshot of the per-link statistics.
#[derive(Clone, Debug, Default)]
pub struct NetStatsSnapshot {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Per-directed-link counters, for the links that carried a message.
    pub per_link: HashMap<(NodeId, NodeId), LinkCounters>,
}

/// The wire-level totals of a [`crate::Network`] (as opposed to the
/// per-link rows of [`NetStats`], which also count thread migrations).
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
}

impl WireStatsSnapshot {
    /// Total virtual time spent stalled on NICs (egress + ingress).
    pub fn contention_stall_ns(&self) -> u64 {
        self.egress_stall_ns + self.ingress_stall_ns
    }
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
                wire: WireStatsSnapshot::default(),
            }),
        }
    }

    /// Row of `from -> to`, `None` for a node outside the cluster.
    fn row(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let n = self.num_nodes;
        (from.index() < n && to.index() < n).then(|| from.index() * n + to.index())
    }

    /// Record one message of `bytes` payload bytes from `from` to `to` on
    /// its link row (a thread migration records only this).
    ///
    /// # Panics
    /// Panics if either node is outside the cluster.
    pub fn record(&self, from: NodeId, to: NodeId, bytes: usize) {
        self.record_link(&mut self.counters.borrow(), from, to, bytes);
    }

    fn record_link(&self, counters: &mut NetCounters, from: NodeId, to: NodeId, bytes: usize) {
        let row = self
            .row(from, to)
            .unwrap_or_else(|| panic!("message between unknown nodes {from} -> {to}"));
        counters.messages += 1;
        counters.bytes += bytes as u64;
        let link = &mut counters.per_link[row];
        link.messages += 1;
        link.bytes += bytes as u64;
    }

    /// Record one wire envelope of `bytes` accounted bytes carrying
    /// `messages` logical messages: its link row and the wire totals.
    pub(crate) fn record_envelope(&self, from: NodeId, to: NodeId, bytes: usize, messages: u32) {
        let mut counters = self.counters.borrow();
        self.record_link(&mut counters, from, to, bytes);
        let wire = &mut counters.wire;
        wire.envelopes += 1;
        wire.envelope_bytes += bytes as u64;
        wire.messages += u64::from(messages);
    }

    /// Add what the wire did to a frame (a stall, a drop, a duplicate) to
    /// the wire totals.
    pub(crate) fn wire_event(&self, event: impl FnOnce(&mut WireStatsSnapshot)) {
        event(&mut self.counters.borrow().wire);
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

    /// The wire-level totals so far.
    pub fn wire(&self) -> WireStatsSnapshot {
        self.counters.borrow().wire
    }

    /// A consistent snapshot of every per-link counter.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_events_accumulate_and_snapshot() {
        let s = NetStats::new(2);
        s.wire_event(|w| w.egress_stall_ns += 2_000);
        s.wire_event(|w| w.ingress_stall_ns += 3_000);
        s.wire_event(|w| {
            w.drops += 1;
            w.retransmits += 1;
        });
        s.wire_event(|w| w.duplicates += 1);
        let w = s.wire();
        assert_eq!(w.contention_stall_ns(), 5_000);
        assert_eq!((w.drops, w.retransmits, w.duplicates), (1, 1, 1));
        assert_eq!(s.messages(), 0, "a wire event is no message");
    }

    #[test]
    fn an_envelope_counts_once_on_its_link_and_in_the_wire_totals() {
        let s = NetStats::new(2);
        s.record_envelope(NodeId(0), NodeId(1), 100, 1);
        s.record_envelope(NodeId(1), NodeId(0), 500, 4); // a batch of 4
        s.record(NodeId(0), NodeId(1), 64); // a migration: its link only
        let w = s.wire();
        assert_eq!((w.envelopes, w.envelope_bytes, w.messages), (2, 600, 5));
        assert_eq!((s.messages(), s.bytes()), (3, 664));
        let link = s.link(NodeId(0), NodeId(1));
        assert_eq!((link.messages, link.bytes), (2, 164));
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
    fn snapshot_lists_the_links_that_carried_a_message() {
        let s = NetStats::new(2);
        s.record(NodeId(0), NodeId(1), 4096);
        let snap = s.snapshot();
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.bytes, 4096);
        let rows: Vec<_> = snap.per_link.keys().copied().collect();
        assert_eq!(rows, [(NodeId(0), NodeId(1))]);
    }
}
