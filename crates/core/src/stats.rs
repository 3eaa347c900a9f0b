//! DSM-level statistics.
//!
//! Typed counters of the DSM layer, next to each RPC service's own
//! ([`dsmpm2_pm2::Pm2Cluster::rpc_report`]): the
//! benchmark harness uses them to report fault counts, transferred pages,
//! invalidations and diffs per experiment, and the tests use them to check
//! protocol behaviour (e.g. "no page is ever transferred by the
//! thread-migration protocol").

use dsmpm2_sim::SliceCell;

use crate::page_table::PageTable;

/// Counters collected by the DSM generic core. Every bump comes from
/// simulated code, which the engine runs one piece at a time, so the counters
/// are plain integers in [`SliceCell`]s: a bump is a load and a store, not
/// an atomic read-modify-write. A hit's two, `local_accesses` and
/// `inline_checks`, sit in its node's page-table cell, which the hit holds
/// borrowed anyway; the others in one cell of the runtime.
#[derive(Clone, Copy, Debug)]
pub struct DsmStats<'a> {
    counters: &'a SliceCell<DsmStatsSnapshot>,
    nodes: &'a [PageTable],
}

/// A plain-value snapshot of [`DsmStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsmStatsSnapshot {
    /// Read page faults taken.
    pub read_faults: u64,
    /// Write page faults taken.
    pub write_faults: u64,
    /// Full pages transferred between nodes.
    pub page_transfers: u64,
    /// Bytes of page data transferred.
    pub page_bytes: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Invalidation acknowledgements received.
    pub invalidation_acks: u64,
    /// Diff messages sent to home nodes.
    pub diffs_sent: u64,
    /// Bytes of diff payload sent.
    pub diff_bytes: u64,
    /// Twins created by multiple-writer protocols.
    pub twins_created: u64,
    /// DSM lock acquisitions.
    pub lock_acquires: u64,
    /// DSM lock releases.
    pub lock_releases: u64,
    /// Barrier episodes completed (per participant).
    pub barriers: u64,
    /// Thread migrations triggered by DSM protocols.
    pub thread_migrations: u64,
    /// Accesses served entirely locally (fast path), summed over nodes.
    pub local_accesses: u64,
    /// Explicit inline locality checks performed, summed over nodes.
    pub inline_checks: u64,
    /// Page requests forwarded along the probable-owner chain.
    pub request_forwards: u64,
    /// Batched envelopes put on the wire by the per-tick message batcher.
    pub coherence_batches: u64,
    /// Coherence messages that travelled inside a batched envelope (each
    /// batch carries at least two).
    pub coherence_batched_messages: u64,
    /// Always 0: kept only because the frozen `benchmark/` reads it;
    /// direction 5(ii) deletes it.
    pub one_sided_serves: u64,
    /// Always 0: kept only because the frozen `benchmark/` reads it;
    /// direction 5(ii) deletes it.
    pub fetch_handler_wakes: u64,
}

macro_rules! counter_methods {
    ($($field:ident => $inc:ident),*; $($sum:ident => $add:ident),*) => {
        impl DsmStats<'_> {
            $(
                /// Increment the corresponding counter.
                #[inline]
                pub fn $inc(&self) {
                    self.counters.borrow().$field += 1;
                }
            )*
            $(
                /// Add `n` to the corresponding counter.
                pub fn $add(&self, n: u64) {
                    self.counters.borrow().$sum += n;
                }
            )*
        }
    };
}

counter_methods!(
    read_faults => incr_read_fault,
    write_faults => incr_write_fault,
    page_transfers => incr_page_transfer,
    invalidations => incr_invalidation,
    invalidation_acks => incr_invalidation_ack,
    diffs_sent => incr_diff_sent,
    twins_created => incr_twin_created,
    lock_acquires => incr_lock_acquire,
    lock_releases => incr_lock_release,
    barriers => incr_barrier,
    thread_migrations => incr_thread_migration,
    request_forwards => incr_request_forward,
    coherence_batches => incr_coherence_batch;
    page_bytes => add_page_bytes,
    diff_bytes => add_diff_bytes,
    coherence_batched_messages => add_coherence_batched_messages
);

impl<'a> DsmStats<'a> {
    /// The counters in `counters`, with the hit counters of `nodes`.
    pub(crate) fn new(counters: &'a SliceCell<DsmStatsSnapshot>, nodes: &'a [PageTable]) -> Self {
        DsmStats { counters, nodes }
    }

    /// A copy of every counter, the hit counters summed over nodes.
    pub fn snapshot(&self) -> DsmStatsSnapshot {
        let mut snapshot = *self.counters.borrow();
        for node in self.nodes.iter().map(|table| table.slots.borrow()) {
            snapshot.local_accesses += node.local_accesses;
            snapshot.inline_checks += node.inline_checks;
        }
        snapshot
    }
}

impl DsmStatsSnapshot {
    /// Total page faults (read + write).
    pub fn total_faults(&self) -> u64 {
        self.read_faults + self.write_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmpm2_madeleine::NodeId;

    #[test]
    fn counters_increment_independently() {
        let counters = SliceCell::default();
        let nodes = [PageTable::new(NodeId(0)), PageTable::new(NodeId(1))];
        let s = DsmStats::new(&counters, &nodes);
        s.incr_read_fault();
        s.incr_read_fault();
        s.incr_write_fault();
        s.incr_page_transfer();
        s.add_page_bytes(4096);
        s.incr_thread_migration();
        nodes[0].slots.borrow().inline_checks += 1;
        nodes[1].slots.borrow().inline_checks += 2;
        nodes[1].slots.borrow().local_accesses += 5;
        let snap = s.snapshot();
        assert_eq!(snap.read_faults, 2);
        assert_eq!(snap.write_faults, 1);
        assert_eq!(snap.total_faults(), 3);
        assert_eq!(snap.page_transfers, 1);
        assert_eq!(snap.page_bytes, 4096);
        assert_eq!(snap.thread_migrations, 1);
        assert_eq!(snap.inline_checks, 3, "summed over nodes");
        assert_eq!(snap.local_accesses, 5);
        assert_eq!(snap.invalidations, 0);
    }

    #[test]
    fn snapshot_is_plain_data() {
        let counters = SliceCell::default();
        let s = DsmStats::new(&counters, &[]);
        s.incr_lock_acquire();
        let a = s.snapshot();
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(b.lock_acquires, 1);
    }

    #[test]
    fn diff_accounting() {
        let counters = SliceCell::default();
        let s = DsmStats::new(&counters, &[]);
        s.incr_diff_sent();
        s.add_diff_bytes(120);
        s.incr_twin_created();
        let snap = s.snapshot();
        assert_eq!(snap.diffs_sent, 1);
        assert_eq!(snap.diff_bytes, 120);
        assert_eq!(snap.twins_created, 1);
    }
}
