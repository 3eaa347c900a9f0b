//! `erc_sw` — eager release consistency, MRSW, dynamic distributed manager.
//!
//! Page management follows the same dynamic-distributed-manager scheme as
//! `li_hudak` (page replication on read faults, ownership migration on write
//! faults), but coherence actions are deferred to synchronization points:
//! copies of the pages written inside a critical section are invalidated
//! *eagerly at lock release* rather than at every write fault.

use dsmpm2_core::protolib;
use dsmpm2_core::{
    Access, ConsistencyModel, DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, LockId,
    PageRequest, PageTransfer, ServerCtx,
};

/// The `erc_sw` protocol (eager release consistency, single writer).
#[derive(Debug, Default)]
pub struct ErcSw;

impl ErcSw {
    /// Create the protocol.
    pub fn new() -> Self {
        ErcSw
    }
}

impl DsmProtocol for ErcSw {
    fn name(&self) -> &str {
        "erc_sw"
    }

    fn consistency(&self) -> ConsistencyModel {
        // Eager release consistency: writes propagate at release; an
        // unsynchronized conflicting access pair reads stale data.
        ConsistencyModel::Release
    }

    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Read);
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Write);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        protolib::serve_or_forward(ctx.sim, ctx.local_node, rt, &req);
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        protolib::serve_or_forward(ctx.sim, ctx.local_node, rt, &req);
    }

    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::apply_invalidation(ctx.sim, node, rt, &inv);
    }

    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        // Ownership (and the copyset) moves with the page, but the copies in
        // the copyset are NOT invalidated here: invalidation is deferred to
        // the next lock release.
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::install_received_page(ctx.sim, node, rt, transfer);
    }

    fn lock_acquire(&self, _ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {
        // Eager RC pushes all coherence work to the release side.
    }

    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        let table = rt.page_table(node);
        // Invalidate every remote copy of the units this node wrote (and
        // owns) since the previous release. The invalidations of all units
        // go out first and the acknowledgements are awaited together: the
        // rounds overlap instead of serializing unit by unit, and
        // invalidations for copies held by the same node leave in one
        // batched envelope.
        let mut in_flight = Vec::new();
        for unit in table.modified_units() {
            let (owned, targets, version) = table.read(unit, |e| {
                let targets: Vec<_> = e.copyset.iter().copied().filter(|&n| n != node).collect();
                (e.owned, targets, e.version)
            });
            if !owned {
                // Ownership already moved away; the new owner is responsible.
                table.update(unit, |e| e.modified_since_release = false);
                continue;
            }
            let sim = &mut *ctx.pm2.sim;
            protolib::send_copyset_invalidations(
                sim,
                node,
                &rt,
                unit,
                &targets,
                Some(node),
                version,
            );
            // Remove the condemned copies from the copyset *before* any
            // blocking (there is no yield point since the send): a target
            // that refetches while the ack wait below blocks is re-inserted
            // by this node's server and survives, whereas a post-wait retain
            // could not tell that fresh copy apart from the original
            // membership and would leave it stale forever.
            table.update(unit, |e| {
                e.copyset.retain(|n| !targets.contains(n));
                e.copyset.insert(node);
            });
            in_flight.push(unit);
        }
        for unit in in_flight {
            protolib::await_invalidation_acks(ctx.pm2.sim, node, &rt, unit);
            // The modified flag is only cleared once the acknowledgements
            // are in: the release is not complete until every stale copy is
            // provably gone.
            table.update(unit, |e| e.modified_since_release = false);
        }
    }

    fn supports_subpage(&self) -> bool {
        // Fault routing, ownership migration and release-time invalidation
        // all operate on the faulting line; `modified_units` keeps the
        // release rounds line-scoped.
        true
    }
}
