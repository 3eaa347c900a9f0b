//! Hybrid protocols built out of library routines (§2.3 of the paper).
//!
//! The paper's "mixed approach" combines existing library routines in an
//! ad-hoc way, e.g. page replication on read faults (as in `li_hudak`) with
//! thread migration on write faults (as in `migrate_thread`). This module
//! writes exactly that protocol the way user code does, as the
//! `custom_protocol` example does, for the crate's tests of the
//! protocol-library routines it combines.

use dsmpm2_core::protolib;
use dsmpm2_core::{DsmProtocol, DsmThreadCtx, FaultInfo, PageRequest, ServerCtx};

/// The hybrid protocol: read faults replicate the page from its owner,
/// write faults migrate the faulting thread to the owner.
///
/// As the paper notes, the user is responsible for combining routines into a
/// *valid* protocol: this hybrid keeps writes sequentially consistent (they
/// all execute on the owning node) but read replicas are only refreshed when
/// they are re-fetched, so it is best suited to mostly-read shared data.
pub struct ReplicateReadMigrateWrite;

impl DsmProtocol for ReplicateReadMigrateWrite {
    fn name(&self) -> &str {
        "hybrid_rw"
    }

    // A writer already on the owning node reclaims the write access that
    // handing out read replicas took away, by invalidating them.
    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        protolib::migrate_thread_to_page(ctx, fault.unit);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        if rt.page_table(node).read(req.unit, |e| e.owned) {
            protolib::serve_read_copy(ctx.sim, node, rt, &req);
        } else {
            protolib::forward_request(ctx.sim, node, rt, &req);
        }
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        // Writes never generate requests (they migrate); a write request
        // indicates the protocol is being combined inconsistently.
        panic!(
            "hybrid_rw: unexpected write request for {} from {}",
            req.unit.page, ctx.from_node
        );
    }
}
