//! The protocol interface: the 8 actions of Table 1 as the [`DsmProtocol`]
//! trait.
//!
//! A consistency protocol in DSM-PM2 is a set of routines automatically
//! called by the generic core on well-identified events: page faults (read /
//! write), receipt of a page request (read / write), receipt of a page,
//! receipt of an invalidation, lock acquire and lock release. A protocol is
//! a type implementing the trait, built-in or user-written alike; it
//! overrides only the actions that differ from the defaults. Registering a
//! value with `DsmRuntime::register_protocol` (the paper's
//! `dsm_create_protocol`) returns a [`ProtocolId`], which selects it at run
//! time, per program or per shared memory region.

use std::fmt;

use dsmpm2_madeleine::NodeId;

use crate::costs;
use crate::ctx::{DsmThreadCtx, ServerCtx};
use crate::diff::PageDiff;
use crate::msg::{Invalidation, PageRequest, PageTransfer};
use crate::page::{Access, DsmAddr, PageId, Unit};
use crate::protolib;
use crate::sync::LockId;
use crate::verify::ConsistencyModel;

/// Identifier of a registered protocol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ProtocolId(pub usize);

impl fmt::Debug for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proto#{}", self.0)
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proto#{}", self.0)
    }
}

/// Information about a page fault, passed to the fault handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInfo {
    /// Faulting address.
    pub addr: DsmAddr,
    /// Coherence unit containing the faulting address.
    pub unit: Unit,
    /// Kind of access that faulted.
    pub access: Access,
}

/// A multithreaded DSM consistency protocol: the 8 actions of the paper's
/// Table 1, plus a defaulted `diff_server` hook used by the home-based
/// multiple-writer protocols (diff receipt is part of the generic DSM
/// communication module in the original system).
///
/// Every action but `name` has a default. The six page actions default to
/// `li_hudak`'s (sequential consistency, MRSW, from [`protolib`]'s
/// single-writer routines): a protocol overrides only where it differs.
///
/// All actions must be thread-safe: the generic core may invoke them from
/// several service threads concurrently, for the same page or different
/// pages.
pub trait DsmProtocol: Send + Sync + 'static {
    /// Name of the protocol (used for registration, monitoring and reports).
    fn name(&self) -> &str;

    /// Called on a read page fault, in the context of the faulting thread.
    /// Default: fetch a read copy ([`protolib::request_page_and_wait`]).
    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Read);
    }

    /// Called on a write page fault, in the context of the faulting thread.
    /// Default: fetch it writable ([`protolib::request_page_and_wait`]).
    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Write);
    }

    /// Called on the node receiving a request for read access. Default: an
    /// owner serves a copy, others forward ([`protolib::serve_or_forward`]).
    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        protolib::serve_or_forward(ctx.sim, ctx.local_node, ctx.runtime, &req);
    }

    /// Called on the node receiving a request for write access. Default: an
    /// owner hands over ownership, others forward (the same routine).
    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        protolib::serve_or_forward(ctx.sim, ctx.local_node, ctx.runtime, &req);
    }

    /// Called on the node receiving an invalidation request. Default: drop
    /// the copy and acknowledge ([`protolib::apply_invalidation`]).
    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        protolib::apply_invalidation(ctx.sim, ctx.local_node, ctx.runtime, &inv);
    }

    /// Called on the node receiving a page it previously requested. Default:
    /// on a write grant that makes this node the owner, become the single
    /// writer, invalidating the other copies
    /// ([`protolib::install_write_ownership`]); otherwise install the copy
    /// as granted ([`protolib::install_received_page`]): a read copy, or a
    /// writable copy of a home-based protocol, whose owner stays the home.
    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        if transfer.grant == Access::Write && transfer.owner == ctx.local_node {
            protolib::install_write_ownership(ctx.sim, ctx.local_node, ctx.runtime, transfer);
        } else {
            protolib::install_received_page(ctx.sim, ctx.local_node, ctx.runtime, transfer);
        }
    }

    /// Called after the calling thread acquired a DSM lock or left a barrier.
    /// `cached` holds this protocol's pages of which this node maps a frame,
    /// ascending. A hook acts on its slice and its own state only: the core
    /// calls every protocol in use, each with its own pages, and reads each
    /// slice when its hook is called, after the earlier protocols' hooks
    /// returned. Default: nothing.
    fn lock_acquire(&self, _ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId, _cached: &[PageId]) {}

    /// Called before the calling thread releases a DSM lock or enters a
    /// barrier. `modified` holds the units of this protocol's pages that this
    /// node wrote since its last release, sorted. Like `lock_acquire`, it acts
    /// on its slice and its own state only. Default: forget the writes
    /// ([`protolib::clear_modified`]).
    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId, modified: &[Unit]) {
        protolib::clear_modified(ctx.node(), ctx.runtime(), modified);
    }

    /// True if ordinary writes through the typed accessors must be recorded
    /// with field granularity (the on-the-fly diff recording of the Java
    /// protocols' `put` primitive). Protocols that flush *recorded* ranges
    /// at release — rather than diffing against a twin — return `true`, so
    /// that portable application code using plain `write` stays correct
    /// under them.
    fn records_writes(&self) -> bool {
        false
    }

    /// The consistency model this protocol promises to application code
    /// (the paper's Table 2 classification). The verify layer's race
    /// detector only reports unsynchronized conflicting accesses on pages
    /// whose protocol declares a relaxed model; under
    /// [`ConsistencyModel::Sequential`] the protocol serializes every access
    /// itself. Defaults to `Sequential`, the conservative choice for custom
    /// protocols (fewer spurious findings).
    fn consistency(&self) -> ConsistencyModel {
        ConsistencyModel::Sequential
    }

    /// True if the protocol lets several nodes hold write access to one page
    /// simultaneously (twin/diff or recorded-write merging). Single-writer
    /// protocols return `false`, which arms the verify layer's write
    /// exclusivity and copyset invariants.
    fn multiple_writers(&self) -> bool {
        false
    }

    /// True if the protocol can manage regions at sub-page (line)
    /// granularity: its fault handlers and servers route every operation at
    /// the granularity of the faulting line. Protocols returning `false` are
    /// transparently clamped to whole-page granularity at allocation time.
    fn supports_subpage(&self) -> bool {
        false
    }

    /// Called on the home node when a diff arrives. The default applies the
    /// diff to the home copy and bumps the version of the diffed line.
    fn diff_server(&self, ctx: &mut ServerCtx<'_>, diff: PageDiff, from: NodeId) {
        let runtime = ctx.runtime;
        let node = ctx.local_node;
        let bytes = diff.modified_bytes();
        runtime.frames(node).apply_diff(diff.unit.page, &diff);
        runtime.page_table(node).update(diff.unit, |e| {
            e.version += 1;
            e.copyset.insert(from);
        });
        ctx.sim.charge(costs::diff_apply(bytes));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A protocol that is only a name: every action is the trait's default.
    pub(crate) struct Named(pub(crate) String);

    impl DsmProtocol for Named {
        fn name(&self) -> &str {
            &self.0
        }
    }

    #[test]
    fn protocol_id_formats() {
        assert_eq!(format!("{}", ProtocolId(3)), "proto#3");
        assert_eq!(format!("{:?}", ProtocolId(3)), "proto#3");
    }

    #[test]
    fn fault_info_is_plain_data() {
        let f = FaultInfo {
            addr: DsmAddr(4096 + 8),
            unit: Unit::whole(crate::page::PageId(1)),
            access: Access::Write,
        };
        let g = f;
        assert_eq!(f, g);
        assert_eq!(g.unit.page, crate::page::PageId(1));
    }
}
