//! Communication statistics.
//!
//! PM2 ships post-mortem monitoring tools; this module provides the
//! communication-side counters that feed the monitoring reports and the
//! benchmark harness: message counts and transferred volumes, and the
//! wire-level totals of the transport backend (envelopes, logical messages,
//! NIC and FIFO stalls, drops, duplicates). One [`NetStats`] holds all of
//! them for one [`crate::Network`]; the network counts each envelope once,
//! and its backend adds what the wire did to it.

use dsmpm2_sim::SliceCell;

/// Every communication counter of one [`crate::Network`]. Bumped by whoever
/// sends (a slice), by the backend's wire events, and read by the host
/// thread outside the run, so they are
/// plain words in a [`SliceCell`], not atomics.
#[derive(Default)]
pub struct NetStats {
    counters: SliceCell<NetCounters>,
}

#[derive(Default)]
struct NetCounters {
    messages: u64,
    bytes: u64,
    wire: WireStatsSnapshot,
}

/// The wire-level totals of a [`crate::Network`] (as opposed to
/// [`NetStats::messages`] and [`NetStats::bytes`], which also count thread
/// migrations).
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
    /// several logical messages (a DSM routine's burst of coherence messages
    /// to one node leaves as one).
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
    /// Record one message of `bytes` payload bytes in the totals (a thread
    /// migration records only this).
    pub fn record(&self, bytes: usize) {
        let mut counters = self.counters.borrow();
        counters.messages += 1;
        counters.bytes += bytes as u64;
    }

    /// Record one wire envelope of `bytes` accounted bytes carrying
    /// `messages` logical messages: the message totals and the wire totals.
    pub(crate) fn record_envelope(&self, bytes: usize, messages: u32) {
        let mut counters = self.counters.borrow();
        counters.messages += 1;
        counters.bytes += bytes as u64;
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

    /// The wire-level totals so far.
    pub fn wire(&self) -> WireStatsSnapshot {
        self.counters.borrow().wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_events_accumulate_and_snapshot() {
        let s = NetStats::default();
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
    fn an_envelope_counts_once_in_the_message_and_wire_totals() {
        let s = NetStats::default();
        s.record_envelope(100, 1);
        s.record_envelope(500, 4); // a batch of 4
        s.record(64); // a migration: the totals only
        let w = s.wire();
        assert_eq!((w.envelopes, w.envelope_bytes, w.messages), (2, 600, 5));
        assert_eq!((s.messages(), s.bytes()), (3, 664));
    }
}
