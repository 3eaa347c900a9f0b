//! `migrate_thread` — sequential consistency through thread migration.
//!
//! On a page fault (read or write) the faulting thread is simply migrated to
//! the node owning the page, as specified by the local page table (fixed
//! distributed manager: the owner is the page's home node and never changes).
//! Pages are never replicated and never move, so all threads that access a
//! non-local page end up executing on the owning node — which makes the
//! protocol extremely simple but very sensitive to the distribution of the
//! shared data, as the paper's TSP experiment (Figure 4) shows. With one
//! copy of each page there is nothing to make consistent at a lock.

use dsmpm2_core::protolib;
use dsmpm2_core::{
    DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, PageRequest, PageTransfer, ServerCtx,
};

/// The `migrate_thread` protocol (Figure 3 of the paper).
#[derive(Debug, Default)]
pub struct MigrateThread;

impl MigrateThread {
    /// Create the protocol.
    pub fn new() -> Self {
        MigrateThread
    }
}

impl DsmProtocol for MigrateThread {
    fn name(&self) -> &str {
        "migrate_thread"
    }

    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        protolib::migrate_thread_to_page(ctx, fault.unit);
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        protolib::migrate_thread_to_page(ctx, fault.unit);
    }

    fn read_server(&self, _ctx: &mut ServerCtx<'_>, req: PageRequest) {
        panic!(
            "migrate_thread never requests pages, yet a read request for {} arrived",
            req.unit.page
        );
    }

    fn write_server(&self, _ctx: &mut ServerCtx<'_>, req: PageRequest) {
        panic!(
            "migrate_thread never requests pages, yet a write request for {} arrived",
            req.unit.page
        );
    }

    fn invalidate_server(&self, _ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        panic!(
            "migrate_thread never replicates pages, yet an invalidation for {} arrived",
            inv.unit.page
        );
    }

    fn receive_page_server(&self, _ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        panic!(
            "migrate_thread never transfers pages, yet {} arrived",
            transfer.unit.page
        );
    }
}
