//! `li_hudak` — sequential consistency, MRSW, dynamic distributed manager.
//!
//! The protocol is a multithreaded adaptation (following Mueller's
//! DSM-Threads variant) of the dynamic distributed manager algorithm of Li &
//! Hudak: pages are replicated on read faults and migrate (together with
//! ownership and the copyset) on write faults; requests are routed along
//! probable-owner chains. The "single writer" is a *node*, not a thread: all
//! threads of the owning node share the same writable copy and may write it
//! concurrently.

use dsmpm2_core::protolib;
use dsmpm2_core::{
    Access, DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, LockId, PageRequest, PageTransfer,
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
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.page, Access::Read);
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.page, Access::Write);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        protolib::defer_while_fetching(ctx.sim, node, &rt, &req);
        if rt.page_table(node).read(req.page, |e| e.owned) {
            protolib::serve_read_copy(ctx.sim, node, &rt, &req);
        } else {
            protolib::forward_request(ctx.sim, node, &rt, &req);
        }
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        protolib::defer_while_fetching(ctx.sim, node, &rt, &req);
        if rt.page_table(node).read(req.page, |e| e.owned) {
            protolib::serve_write_transfer(ctx.sim, node, &rt, &req);
        } else {
            protolib::forward_request(ctx.sim, node, &rt, &req);
        }
    }

    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        protolib::apply_invalidation(ctx.sim, node, &rt, &inv);
    }

    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        if transfer.grant == Access::Write {
            // Becoming the single writer: install the data, invalidate every
            // other copy, and only then grant write access to local threads.
            rt.frames(node)
                .install(transfer.page, transfer.data.clone());
            let targets: Vec<_> = transfer
                .copyset
                .iter()
                .copied()
                .filter(|&n| n != node)
                .collect();
            protolib::invalidate_copyset_and_wait(
                ctx.sim,
                node,
                &rt,
                transfer.page,
                &targets,
                Some(node),
                transfer.version,
            );
            rt.page_table(node).update(transfer.page, |e| {
                e.access = Access::Write;
                e.owned = true;
                e.prob_owner = node;
                e.queue_tail = None;
                e.copyset.clear();
                e.copyset.insert(node);
                e.version = transfer.version;
                e.owner_version = e.owner_version.max(transfer.version);
                e.pending_fetch = false;
            });
            ctx.sim.charge(rt.costs().install_overhead);
            protolib::notify_home_acquired(ctx.sim, node, &rt, transfer.page, transfer.version);
            rt.page_table(node)
                .waiters(transfer.page)
                .notify_all(&ctx.sim.ctl(), dsmpm2_core::SimDuration::ZERO);
        } else {
            protolib::install_received_page(ctx.sim, node, &rt, &transfer);
        }
    }

    fn lock_acquire(&self, _ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {
        // Sequential consistency needs no action at synchronization points.
    }

    fn lock_release(&self, _ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {}
}
