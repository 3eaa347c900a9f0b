//! `li_hudak_fixed` — sequential consistency, MRSW, *fixed* distributed manager.
//!
//! The paper's page manager was explicitly "designed to be generic enough so
//! that it could be exploited to implement protocols which need a fixed page
//! manager, as well as protocols based on a dynamic page manager" (§2.2,
//! citing the Li & Hudak classification). The built-in `li_hudak` protocol
//! uses the *dynamic* distributed manager (probable-owner chains with path
//! compression); this protocol is the *fixed* distributed manager alternative
//! built from the same library routines:
//!
//! * every page has a fixed manager — its home node — which always knows the
//!   current owner;
//! * faulting nodes always send their requests to the manager, which forwards
//!   them to the owner (one extra hop when the manager is not the owner, but
//!   no chains of unbounded length);
//! * ownership and the copyset migrate on write faults exactly as in
//!   `li_hudak`; the manager updates its owner record whenever it forwards a
//!   write request or serves one itself.
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

impl LiHudakFixed {
    /// Both request servers: the owner serves, the manager forwards to the
    /// owner it has on record, anybody else bounces the request back through
    /// the manager.
    fn serve_via_manager(ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::defer_while_fetching(ctx.sim, node, rt, &req);
        let owned = rt.page_table(node).read(req.unit, |e| e.owned);
        let home = rt.page_meta(req.unit.page).home;
        if owned && req.access == Access::Write {
            // Serving transfers ownership; `serve_write_transfer` records the
            // requester as the new probable owner, which on the manager node
            // is precisely the manager's owner record.
            protolib::serve_write_transfer(ctx.sim, node, rt, &req);
        } else if owned {
            protolib::serve_read_copy(ctx.sim, node, rt, &req);
        } else if node == home {
            // We are the manager but not the owner: forward to the recorded
            // owner. A write request also moves the owner record to the
            // requester (the transfer is now in flight to it); a read leaves
            // it untouched.
            protolib::forward_request(ctx.sim, node, rt, &req);
        } else {
            // Stale request (ownership moved away between the manager's
            // forward and our receipt): bounce it back through the manager.
            rt.send_page_request(ctx.sim, node, home, req);
        }
    }
}

impl DsmProtocol for LiHudakFixed {
    fn name(&self) -> &str {
        "li_hudak_fixed"
    }

    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        // Non-manager nodes keep their probable-owner hint pointed at the
        // manager (see `receive_page_server`), so the generic fetch routine
        // routes every read request to the fixed manager, whose handler
        // thread serves it or forwards it to the owner.
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Read);
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Write);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        Self::serve_via_manager(ctx, req);
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        Self::serve_via_manager(ctx, req);
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
