//! The protocol interface: the 8 actions of Table 1 and the protocol registry
//! machinery (`dsm_create_protocol` analogue).
//!
//! A consistency protocol in DSM-PM2 is a set of routines automatically
//! called by the generic core on well-identified events: page faults (read /
//! write), receipt of a page request (read / write), receipt of a page,
//! receipt of an invalidation, lock acquire and lock release. Protocols are
//! registered at run time, addressed by a [`ProtocolId`], and can be attached
//! per shared memory region.

use std::fmt;
use std::sync::Arc;

use dsmpm2_madeleine::NodeId;

use crate::costs;
use crate::ctx::{DsmThreadCtx, ServerCtx};
use crate::diff::PageDiff;
use crate::msg::{Invalidation, PageRequest, PageTransfer};
use crate::page::{Access, DsmAddr, Unit};
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
/// All actions must be thread-safe: the generic core may invoke them from
/// several service threads concurrently, for the same page or different
/// pages.
pub trait DsmProtocol: Send + Sync + 'static {
    /// Name of the protocol (used for registration, monitoring and reports).
    fn name(&self) -> &str;

    /// Called on a read page fault, in the context of the faulting thread.
    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo);

    /// Called on a write page fault, in the context of the faulting thread.
    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo);

    /// Called on the node receiving a request for read access.
    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest);

    /// Called on the node receiving a request for write access.
    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest);

    /// Called on the node receiving an invalidation request.
    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation);

    /// Called on the node receiving a page it previously requested.
    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer);

    /// Called after the calling thread has acquired a DSM lock.
    fn lock_acquire(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId);

    /// Called before the calling thread releases a DSM lock.
    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId);

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

type FaultFn = dyn Fn(&mut DsmThreadCtx<'_, '_>, FaultInfo) + Send + Sync;
type RequestFn = dyn Fn(&mut ServerCtx<'_>, PageRequest) + Send + Sync;
type InvalidateFn = dyn Fn(&mut ServerCtx<'_>, Invalidation) + Send + Sync;
type TransferFn = dyn Fn(&mut ServerCtx<'_>, PageTransfer) + Send + Sync;
type LockFn = dyn Fn(&mut DsmThreadCtx<'_, '_>, LockId) + Send + Sync;

/// A protocol assembled from user-provided routines — the equivalent of the
/// paper's `dsm_create_protocol` call, which takes the 8 component routines
/// and returns a protocol identifier usable exactly like the built-in ones.
///
/// Routines that are not provided default to "do nothing" for lock hooks and
/// to a panic for the others (using a protocol without defining the actions
/// it needs is a programming error).
pub struct CustomProtocol {
    name: String,
    read_fault: Option<Box<FaultFn>>,
    write_fault: Option<Box<FaultFn>>,
    read_server: Option<Box<RequestFn>>,
    write_server: Option<Box<RequestFn>>,
    invalidate_server: Option<Box<InvalidateFn>>,
    receive_page_server: Option<Box<TransferFn>>,
    lock_acquire: Option<Box<LockFn>>,
    lock_release: Option<Box<LockFn>>,
}

impl CustomProtocol {
    /// Start building a protocol named `name`.
    pub fn builder(name: impl Into<String>) -> CustomProtocolBuilder {
        CustomProtocolBuilder {
            proto: CustomProtocol {
                name: name.into(),
                read_fault: None,
                write_fault: None,
                read_server: None,
                write_server: None,
                invalidate_server: None,
                receive_page_server: None,
                lock_acquire: None,
                lock_release: None,
            },
        }
    }
}

/// Builder for [`CustomProtocol`].
pub struct CustomProtocolBuilder {
    proto: CustomProtocol,
}

impl CustomProtocolBuilder {
    /// Set the read-fault handler.
    pub fn read_fault_handler(
        mut self,
        f: impl Fn(&mut DsmThreadCtx<'_, '_>, FaultInfo) + Send + Sync + 'static,
    ) -> Self {
        self.proto.read_fault = Some(Box::new(f));
        self
    }

    /// Set the write-fault handler.
    pub fn write_fault_handler(
        mut self,
        f: impl Fn(&mut DsmThreadCtx<'_, '_>, FaultInfo) + Send + Sync + 'static,
    ) -> Self {
        self.proto.write_fault = Some(Box::new(f));
        self
    }

    /// Set the read-request server routine.
    pub fn read_server(
        mut self,
        f: impl Fn(&mut ServerCtx<'_>, PageRequest) + Send + Sync + 'static,
    ) -> Self {
        self.proto.read_server = Some(Box::new(f));
        self
    }

    /// Set the write-request server routine.
    pub fn write_server(
        mut self,
        f: impl Fn(&mut ServerCtx<'_>, PageRequest) + Send + Sync + 'static,
    ) -> Self {
        self.proto.write_server = Some(Box::new(f));
        self
    }

    /// Set the invalidation server routine.
    pub fn invalidate_server(
        mut self,
        f: impl Fn(&mut ServerCtx<'_>, Invalidation) + Send + Sync + 'static,
    ) -> Self {
        self.proto.invalidate_server = Some(Box::new(f));
        self
    }

    /// Set the page-receipt server routine.
    pub fn receive_page_server(
        mut self,
        f: impl Fn(&mut ServerCtx<'_>, PageTransfer) + Send + Sync + 'static,
    ) -> Self {
        self.proto.receive_page_server = Some(Box::new(f));
        self
    }

    /// Set the lock-acquire consistency action.
    pub fn lock_acquire(
        mut self,
        f: impl Fn(&mut DsmThreadCtx<'_, '_>, LockId) + Send + Sync + 'static,
    ) -> Self {
        self.proto.lock_acquire = Some(Box::new(f));
        self
    }

    /// Set the lock-release consistency action.
    pub fn lock_release(
        mut self,
        f: impl Fn(&mut DsmThreadCtx<'_, '_>, LockId) + Send + Sync + 'static,
    ) -> Self {
        self.proto.lock_release = Some(Box::new(f));
        self
    }

    /// Finish building: the protocol can now be registered with
    /// `DsmRuntime::register_protocol`.
    pub fn build(self) -> Arc<dyn DsmProtocol> {
        Arc::new(self.proto)
    }
}

fn missing(action: &str, proto: &str) -> ! {
    panic!(
        "protocol '{proto}' does not define the '{action}' action but the generic core needed it"
    )
}

impl DsmProtocol for CustomProtocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        match &self.read_fault {
            Some(f) => f(ctx, fault),
            None => missing("read_fault_handler", &self.name),
        }
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        match &self.write_fault {
            Some(f) => f(ctx, fault),
            None => missing("write_fault_handler", &self.name),
        }
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        match &self.read_server {
            Some(f) => f(ctx, req),
            None => missing("read_server", &self.name),
        }
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        match &self.write_server {
            Some(f) => f(ctx, req),
            None => missing("write_server", &self.name),
        }
    }

    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        match &self.invalidate_server {
            Some(f) => f(ctx, inv),
            None => missing("invalidate_server", &self.name),
        }
    }

    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        match &self.receive_page_server {
            Some(f) => f(ctx, transfer),
            None => missing("receive_page_server", &self.name),
        }
    }

    fn lock_acquire(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId) {
        if let Some(f) = &self.lock_acquire {
            f(ctx, lock);
        }
    }

    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId) {
        if let Some(f) = &self.lock_release {
            f(ctx, lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_id_formats() {
        assert_eq!(format!("{}", ProtocolId(3)), "proto#3");
        assert_eq!(format!("{:?}", ProtocolId(3)), "proto#3");
    }

    #[test]
    fn builder_produces_a_named_protocol() {
        let proto = CustomProtocol::builder("my_proto")
            .read_fault_handler(|_ctx, _fault| {})
            .write_fault_handler(|_ctx, _fault| {})
            .build();
        assert_eq!(proto.name(), "my_proto");
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
