//! `java_ic` and `java_pf` — Java consistency (Java Memory Model), home-based,
//! multiple writers, on-the-fly diff recording.
//!
//! These two protocols implement the consistency specified by the Java Memory
//! Model for the Hyperion compiled-Java runtime: objects live on their home
//! node ("main memory"), threads keep node-level cached copies, a thread's
//! cache is flushed when it enters a monitor, and its local modifications are
//! transmitted to main memory when it exits a monitor. Modifications are
//! recorded on the fly, with object-field granularity, by the `put` access
//! primitive.
//!
//! The two protocols differ only in how accesses to non-local objects are
//! *detected*:
//!
//! * `java_ic` — Hyperion's `get`/`put` primitives perform an explicit
//!   **inline check** for locality and call directly into the protocol,
//!   bypassing the page-fault mechanism entirely;
//! * `java_pf` — accesses go through the ordinary **page-fault** path; local
//!   accesses pay nothing, remote accesses pay the fault-detection cost.
//!
//! The object layer (crate `dsmpm2-hyperion`) selects the access path based
//! on the protocol name.

use dsmpm2_core::{costs, protolib};
use dsmpm2_core::{
    Access, ConsistencyModel, DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, LockId, PageId,
    PageRequest, PageTransfer, ServerCtx, Unit,
};

/// Which access-detection flavour a Java-consistency protocol instance uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JavaDetection {
    /// Explicit inline checks in `get`/`put` (`java_ic`).
    InlineCheck,
    /// Page faults (`java_pf`).
    PageFault,
}

/// Java-consistency protocol, parameterized by the access-detection flavour.
#[derive(Debug)]
pub struct JavaConsistency {
    detection: JavaDetection,
}

impl JavaConsistency {
    /// The `java_ic` protocol.
    pub fn inline_check() -> Self {
        JavaConsistency {
            detection: JavaDetection::InlineCheck,
        }
    }

    /// The `java_pf` protocol.
    pub fn page_fault() -> Self {
        JavaConsistency {
            detection: JavaDetection::PageFault,
        }
    }

    /// The access-detection flavour of this instance.
    pub fn detection(&self) -> JavaDetection {
        self.detection
    }

    /// Fetch the page holding an object into the local cache (writable,
    /// multiple writers), blocking until it is present. Shared by the fault
    /// handlers (`java_pf`) and by the Hyperion get/put miss path (`java_ic`).
    pub fn cache_page(ctx: &mut DsmThreadCtx<'_, '_>, page: PageId) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, Unit::whole(page), Access::Write);
    }
}

impl DsmProtocol for JavaConsistency {
    fn name(&self) -> &str {
        match self.detection {
            JavaDetection::InlineCheck => "java_ic",
            JavaDetection::PageFault => "java_pf",
        }
    }

    fn records_writes(&self) -> bool {
        // Modifications reach main memory through the recorded ranges (the
        // `put` path); a plain write that skipped recording would be lost at
        // the next monitor entry when the cache is flushed.
        true
    }

    fn consistency(&self) -> ConsistencyModel {
        ConsistencyModel::Java
    }

    fn multiple_writers(&self) -> bool {
        // Recorded-write merging at the home: concurrent writers per page.
        true
    }

    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        Self::cache_page(ctx, fault.unit.page);
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        Self::cache_page(ctx, fault.unit.page);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::serve_copy_from_home(ctx.sim, node, rt, &req, Access::Write);
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::serve_copy_from_home(ctx.sim, node, rt, &req, Access::Write);
    }

    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        let page = inv.unit.page;
        // Push any pending recorded modifications before dropping the copy,
        // and wait for the home to integrate them before acknowledging.
        if rt.frames(node).has(page) && rt.frames(node).has_recorded(page) {
            // Same discipline as hbrc_mw: drop local access before the
            // blocking diff push, so concurrent local writes fault and
            // refetch instead of landing in the frame we are about to evict.
            rt.page_table(node).set_access(inv.unit, Access::None);
            ctx.sim.charge(costs::TABLE_UPDATE);
            let diff = rt.frames(node).take_recorded_diff(page);
            protolib::push_diffs_and_wait(ctx.sim, node, rt, vec![diff]);
        }
        protolib::apply_invalidation(ctx.sim, node, rt, &inv);
    }

    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::install_received_page(ctx.sim, node, rt, transfer);
    }

    fn lock_acquire(&self, ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {
        // Monitor entry: flush the node's object cache so subsequent accesses
        // observe main memory (JMM cache-flush-on-monitor-enter rule). Home
        // pages are the reference copies and are kept.
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        for page in rt.frames(node).pages() {
            if !rt.is_dsm_page(page) {
                continue;
            }
            if rt.page_meta(page).home == node {
                continue;
            }
            // Any unflushed modification must reach main memory before the
            // copy is dropped (conservative: exiting monitors normally did
            // this already).
            if rt.frames(node).has_recorded(page) {
                let diff = rt.frames(node).take_recorded_diff(page);
                if !diff.is_empty() {
                    let home = rt.page_meta(page).home;
                    rt.send_diff(ctx.pm2.sim, node, home, diff, false);
                }
            }
            rt.frames(node).evict(page);
            rt.page_table(node).update(Unit::whole(page), |e| {
                e.access = Access::None;
                e.modified_since_release = false;
            });
        }
        ctx.pm2.sim.charge(costs::TABLE_UPDATE);
    }

    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {
        // Monitor exit: transmit local modifications to main memory (the
        // Hyperion "main memory update" primitive), with field granularity.
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        let modified: Vec<Unit> = rt
            .frames(node)
            .pages()
            .into_iter()
            .filter(|&p| rt.is_dsm_page(p) && rt.frames(node).has_recorded(p))
            .map(Unit::whole)
            .collect();
        protolib::flush_diffs_to_homes(ctx.pm2.sim, node, &rt, &modified);
    }
}
