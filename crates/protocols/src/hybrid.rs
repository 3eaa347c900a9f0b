//! Hybrid protocols built out of library routines (§2.3 of the paper).
//!
//! The paper's "mixed approach" combines existing library routines in an
//! ad-hoc way, e.g. page replication on read faults (as in `li_hudak`) with
//! thread migration on write faults (as in `migrate_thread`). This module
//! builds exactly that protocol, with [`CustomProtocol::builder`] — the same
//! builder user code uses, as the `custom_protocol` example does — for the
//! crate's tests of the protocol-library routines it combines.

use std::sync::Arc;

use dsmpm2_core::protolib;
use dsmpm2_core::{Access, CustomProtocol, DsmProtocol};

/// Build the hybrid protocol: read faults replicate the page from its owner,
/// write faults migrate the faulting thread to the owner.
///
/// As the paper notes, the user is responsible for combining routines into a
/// *valid* protocol: this hybrid keeps writes sequentially consistent (they
/// all execute on the owning node) but read replicas are only refreshed when
/// they are re-fetched, so it is best suited to mostly-read shared data.
pub fn replicate_read_migrate_write() -> Arc<dyn DsmProtocol> {
    CustomProtocol::builder("hybrid_rw")
        .read_fault_handler(|ctx, fault| {
            let rt = ctx.runtime().clone();
            let node = ctx.node();
            protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Read);
        })
        // A writer already on the owning node reclaims the write access that
        // handing out read replicas took away, by invalidating them.
        .write_fault_handler(|ctx, fault| protolib::migrate_thread_to_page(ctx, fault.unit))
        .read_server(|ctx, req| {
            let rt = ctx.runtime;
            let node = ctx.local_node;
            if rt.page_table(node).read(req.unit, |e| e.owned) {
                protolib::serve_read_copy(ctx.sim, node, rt, &req);
            } else {
                protolib::forward_request(ctx.sim, node, rt, &req);
            }
        })
        .write_server(|ctx, req| {
            // Writes never generate requests (they migrate); a write request
            // indicates the protocol is being combined inconsistently.
            panic!(
                "hybrid_rw: unexpected write request for {} from {}",
                req.unit.page, ctx.from_node
            );
        })
        .invalidate_server(|ctx, inv| {
            let rt = ctx.runtime;
            let node = ctx.local_node;
            protolib::apply_invalidation(ctx.sim, node, rt, &inv);
        })
        .receive_page_server(|ctx, transfer| {
            let rt = ctx.runtime;
            let node = ctx.local_node;
            protolib::install_received_page(ctx.sim, node, rt, transfer);
        })
        .build()
}
