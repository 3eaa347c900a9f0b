//! `entry_sw` — entry consistency (Midway-style), built on the protocol
//! library toolbox.
//!
//! The paper positions DSM-PM2 as a platform on which the relaxed models of
//! the literature — release consistency (Munin, TreadMarks), *entry
//! consistency* (Midway), scope consistency (Brazos) — can be implemented and
//! compared. This protocol is the entry-consistency member of that family:
//!
//! * shared data is explicitly *bound* to synchronization objects
//!   ([`EntryConsistency::bind`]);
//! * acquiring a lock makes exactly the data bound to that lock consistent on
//!   the acquiring node (a home-based fetch of the bound pages);
//! * releasing a lock pushes the modifications made to the bound pages back
//!   to their home nodes (twin-based diffs);
//! * a barrier acts as a global synchronization: releases flush every
//!   modified bound page, and the matching acquire drops stale copies of all
//!   bound pages so they are re-fetched on demand.
//!
//! Accesses to bound pages outside the guarding lock are tolerated (they fall
//! back to an ordinary home-based fetch) but see only the data published by
//! the last release, exactly as in Midway.

use std::collections::{BTreeMap, BTreeSet};

use dsmpm2_core::{costs, protolib};
use dsmpm2_core::{
    pages_covering, Access, ConsistencyModel, DsmAddr, DsmProtocol, DsmThreadCtx, FaultInfo,
    LockId, PageId, PageRequest, ServerCtx, SliceCell, Unit,
};

/// The `entry_sw` protocol (entry consistency, single writer per lock).
///
/// Keep a handle on the value passed to `register_protocol` (it is an
/// `Arc<EntryConsistency>`) so that shared regions can be bound to their
/// guarding locks with [`EntryConsistency::bind`].
#[derive(Debug, Default)]
pub struct EntryConsistency {
    /// lock id → pages guarded by that lock.
    bindings: SliceCell<BTreeMap<u64, BTreeSet<PageId>>>,
}

impl EntryConsistency {
    /// Create the protocol with no bindings.
    pub fn new() -> Self {
        EntryConsistency::default()
    }

    /// Bind the `bytes`-byte region starting at `addr` to `lock`: acquiring
    /// `lock` will make this region consistent, releasing it will publish the
    /// modifications made to it.
    pub fn bind(&self, lock: LockId, addr: DsmAddr, bytes: u64) {
        assert!(
            !lock.is_barrier(),
            "regions are bound to locks; barriers synchronize all bound regions"
        );
        let pages = pages_covering(addr, bytes);
        self.bindings
            .borrow()
            .entry(lock.0)
            .or_default()
            .extend(pages);
    }

    /// The pages currently bound to `lock` (empty if none).
    pub fn bound_pages(&self, lock: LockId) -> Vec<PageId> {
        self.bindings
            .borrow()
            .get(&lock.0)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Units affected by a synchronization event: the pages bound to the
    /// lock, or every bound page when the event is a barrier.
    fn sync_units(&self, lock: LockId) -> Vec<Unit> {
        let pages = if lock.is_barrier() {
            let all: BTreeSet<PageId> =
                self.bindings.borrow().values().flatten().copied().collect();
            all.into_iter().collect()
        } else {
            self.bound_pages(lock)
        };
        pages.into_iter().map(Unit::whole).collect()
    }
}

impl DsmProtocol for EntryConsistency {
    fn name(&self) -> &str {
        "entry_sw"
    }

    fn consistency(&self) -> ConsistencyModel {
        // Entry consistency: only the lock bound to a region orders its
        // accesses; anything unguarded is a race.
        ConsistencyModel::Entry
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        // A present read copy is upgraded in place (the guarding lock — or
        // the program's own synchronization — serializes writers).
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        protolib::write_fault_with_twin(ctx.pm2.sim, node, &rt, fault.unit);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::serve_copy_from_home(ctx.sim, node, rt, &req, Access::Read);
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::serve_copy_from_home(ctx.sim, node, rt, &req, Access::Write);
    }

    fn lock_acquire(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId, _cached: &[PageId]) {
        let units = self.sync_units(lock);
        if units.is_empty() {
            return;
        }
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        let table = rt.page_table(node);
        for unit in units {
            if rt.page_meta(unit.page).home == node {
                // The home always holds the up-to-date reference copy.
                continue;
            }
            let unpublished = table.read(unit, |e| e.modified_since_release);
            if lock.is_barrier() {
                // Barrier acquire: drop potentially stale copies; they are
                // re-fetched lazily on the next access.
                if rt.frames(node).has(unit.page) && !unpublished {
                    rt.frames(node).evict(unit.page);
                    table.set_access(unit, Access::None);
                    ctx.pm2.sim.charge(costs::TABLE_UPDATE);
                }
                continue;
            }
            // Lock acquire: bring the guarded data in *now*, writable, and
            // prepare the twin that release-time diffing needs. A local copy
            // holding unpublished modifications (unguarded writes) is kept —
            // it will be published at the next release.
            if !unpublished {
                rt.frames(node).evict(unit.page);
                table.set_access(unit, Access::None);
                ctx.pm2.sim.charge(costs::TABLE_UPDATE);
            }
            protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, unit, Access::Write);
            protolib::ensure_twin(ctx.pm2.sim, node, &rt, unit);
        }
    }

    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId, modified: &[Unit]) {
        let units = self.sync_units(lock);
        if units.is_empty() {
            return;
        }
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        // Publish the modifications made to the synchronized pages.
        let bound: Vec<Unit> = modified
            .iter()
            .filter(|u| units.contains(u))
            .copied()
            .collect();
        protolib::flush_diffs_to_homes(ctx.pm2.sim, node, &rt, &bound);
        // Downgrade: the next acquirer (possibly on another node) becomes the
        // writer of the guarded data.
        protolib::reprotect_after_flush(ctx.pm2.sim, node, &rt, &units);
    }
}
