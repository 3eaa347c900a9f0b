//! `li_hudak` — sequential consistency, MRSW, dynamic distributed manager.
//!
//! The protocol is a multithreaded adaptation (following Mueller's
//! DSM-Threads variant) of the dynamic distributed manager algorithm of Li &
//! Hudak: pages are replicated on read faults and migrate (together with
//! ownership and the copyset) on write faults; requests are routed along
//! probable-owner chains. The "single writer" is a *node*, not a thread: all
//! threads of the owning node share the same writable copy and may write it
//! concurrently. Sequential consistency needs no action at synchronization
//! points, so the lock hooks keep their defaults.

use dsmpm2_core::protolib;
use dsmpm2_core::{
    Access, DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, PageRequest, PageTransfer,
    ServerCtx,
};

/// The `li_hudak` protocol (see Table 2 of the paper).
#[derive(Debug, Default)]
pub struct LiHudak;

impl LiHudak {
    /// Create the protocol.
    pub fn new() -> Self {
        LiHudak
    }
}

impl DsmProtocol for LiHudak {
    fn name(&self) -> &str {
        "li_hudak"
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
        let rt = ctx.runtime;
        let node = ctx.local_node;
        if transfer.grant == Access::Write {
            protolib::install_write_ownership(ctx.sim, node, rt, transfer);
        } else {
            protolib::install_received_page(ctx.sim, node, rt, transfer);
        }
    }
}
