//! `li_hudak_fixed` — sequential consistency, MRSW, *fixed* distributed manager.
//!
//! The paper's page manager was explicitly "designed to be generic enough so
//! that it could be exploited to implement protocols which need a fixed page
//! manager, as well as protocols based on a dynamic page manager" (§2.2,
//! citing the Li & Hudak classification). `li_hudak` uses the *dynamic*
//! distributed manager (probable-owner chains with path compression); this
//! protocol is the *fixed* one, built from the same library routines and
//! serving requests with the same `protolib::serve_or_forward`. A page's
//! manager is its home node, which always knows the current owner. A
//! non-manager node pins its probable-owner hint to the manager whenever it
//! receives a page or an invalidation — with `supports_subpage`, the only
//! difference from `li_hudak` — so its requests go through the manager: one
//! extra hop when the manager is not the owner, but no chains of unbounded
//! length.
//!
//! Comparing it against `li_hudak` on the same workloads is exactly the kind
//! of protocol experiment the platform is designed for (see ablations 4 and
//! 6 of the bench crate's model rows). As in `li_hudak`, sequential
//! consistency needs no action at synchronization points.

use dsmpm2_core::protolib;
use dsmpm2_core::{
    Access, DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, PageRequest, PageTransfer,
    ServerCtx,
};

/// The `li_hudak_fixed` protocol (fixed distributed manager MRSW).
#[derive(Debug, Default)]
pub struct LiHudakFixed;

impl LiHudakFixed {
    /// Create the protocol.
    pub fn new() -> Self {
        LiHudakFixed
    }
}

impl DsmProtocol for LiHudakFixed {
    fn name(&self) -> &str {
        "li_hudak_fixed"
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
        let home = rt.page_meta(inv.unit.page).home;
        protolib::apply_invalidation(ctx.sim, node, rt, &inv);
        // Fixed manager: ordinary nodes keep routing through the manager; the
        // manager itself keeps the true owner recorded by the invalidation.
        if node != home {
            rt.page_table(node)
                .update(inv.unit, |e| e.prob_owner = home);
        }
    }

    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        let unit = transfer.unit;
        let home = rt.page_meta(unit.page).home;
        if transfer.grant == Access::Write {
            protolib::install_write_ownership(ctx.sim, node, rt, transfer);
        } else {
            protolib::install_received_page(ctx.sim, node, rt, transfer);
        }
        // Fixed distributed manager: a non-manager node always sends its next
        // request to the manager, never along dynamic ownership hints.
        if node != home {
            rt.page_table(node).update(unit, |e| {
                if !e.owned {
                    e.prob_owner = home;
                }
            });
        }
    }

    fn supports_subpage(&self) -> bool {
        // Every routine above routes at the faulting line; independent lines
        // of one page have fully independent owners, copysets and queues.
        true
    }
}
