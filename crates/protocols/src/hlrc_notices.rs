//! `hlrc_notices` — home-based *lazy* release consistency with write notices.
//!
//! The paper's related-work section singles out TreadMarks for "the impact of
//! laziness in coherence propagation". The built-in `hbrc_mw` protocol is
//! *home-based* but still propagates coherence eagerly: the home invalidates
//! every third-party copy as soon as a diff is integrated. This protocol is
//! the lazy alternative, built on the same toolbox:
//!
//! * releases still push twin diffs to the home nodes (so the reference copy
//!   is always up to date), but the home does **not** invalidate anybody;
//! * instead, the releaser records a *write notice* (the list of pages it
//!   modified) against the lock being released — conceptually, the notice is
//!   piggybacked on the lock-transfer message, which is how TreadMarks and
//!   the home-based LRC protocols ship them;
//! * on acquire, the acquiring node consumes the notices it has not yet seen
//!   for that lock and drops its now-stale copies of the noticed pages; they
//!   are re-fetched from the home on the next access.
//!
//! Compared to `hbrc_mw`, nodes that never re-synchronize never pay any
//! invalidation traffic; the price is that an acquire must process the
//! accumulated notices. Ablation 5 of the bench crate's model rows
//! measures both effects.

use std::collections::BTreeSet;
use std::collections::HashMap;

use dsmpm2_core::{costs, protolib};
use dsmpm2_core::{
    Access, ConsistencyModel, DsmProtocol, DsmThreadCtx, FaultInfo, LockId, NodeId, PageId,
    PageRequest, ServerCtx, SliceCell, Unit,
};

/// One write notice: an interval stamp, the releasing node and the pages it
/// modified during that interval.
#[derive(Clone, Debug)]
struct WriteNotice {
    interval: u64,
    releaser: NodeId,
    pages: Vec<PageId>,
}

/// The `hlrc_notices` protocol (home-based lazy release consistency).
#[derive(Debug, Default)]
pub struct HlrcNotices {
    log: SliceCell<NoticeLog>,
}

#[derive(Debug, Default)]
struct NoticeLog {
    /// Global interval counter (each release opens a new interval).
    next_interval: u64,
    /// lock id → write notices recorded under that lock, oldest first.
    notices: HashMap<u64, Vec<WriteNotice>>,
    /// (lock id, acquiring node) → last interval already consumed.
    last_seen: HashMap<(u64, NodeId), u64>,
}

impl HlrcNotices {
    /// Create the protocol.
    pub fn new() -> Self {
        HlrcNotices::default()
    }

    /// Number of write notices currently retained (all locks).
    #[cfg(test)]
    pub(crate) fn retained_notices(&self) -> usize {
        self.log.borrow().notices.values().map(|v| v.len()).sum()
    }

    /// Record a write notice for `pages` under `lock`.
    fn record_notice(&self, lock: LockId, releaser: NodeId, pages: Vec<PageId>) {
        if pages.is_empty() {
            return;
        }
        let mut log = self.log.borrow();
        log.next_interval += 1;
        let interval = log.next_interval;
        log.notices.entry(lock.0).or_default().push(WriteNotice {
            interval,
            releaser,
            pages,
        });
    }

    /// The pages another node modified under `lock` since `node` last
    /// acquired it. Advances the node's last-seen interval.
    fn consume_notices(&self, lock: LockId, node: NodeId) -> Vec<PageId> {
        let log = &mut *self.log.borrow();
        let Some(list) = log.notices.get(&lock.0) else {
            return Vec::new();
        };
        let seen = log.last_seen.entry((lock.0, node)).or_insert(0);
        let mut stale = BTreeSet::new();
        let mut newest = *seen;
        for notice in list.iter().filter(|n| n.interval > *seen) {
            newest = newest.max(notice.interval);
            if notice.releaser != node {
                stale.extend(notice.pages.iter().copied());
            }
        }
        *seen = newest;
        stale.into_iter().collect()
    }
}

impl DsmProtocol for HlrcNotices {
    fn name(&self) -> &str {
        "hlrc_notices"
    }

    fn consistency(&self) -> ConsistencyModel {
        ConsistencyModel::Release
    }

    fn multiple_writers(&self) -> bool {
        true
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
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
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        let stale = self.consume_notices(lock, node);
        for unit in stale.into_iter().map(Unit::whole) {
            // Processing one notice is a page-table lookup + update; the
            // notices themselves travel with the lock grant we already paid
            // for.
            ctx.pm2.sim.charge(costs::TABLE_UPDATE);
            if rt.page_meta(unit.page).home == node {
                // The home copy is authoritative (diffs were applied there).
                continue;
            }
            let (modified_since_release, access) = rt
                .page_table(node)
                .read(unit, |e| (e.modified_since_release, e.access));
            if modified_since_release {
                // Our own unpublished writes live here; they will be merged
                // through a diff at our next release, so keep the copy.
                continue;
            }
            if rt.frames(node).has(unit.page) && access != Access::None {
                rt.frames(node).evict(unit.page);
                rt.page_table(node).set_access(unit, Access::None);
            }
        }
    }

    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, lock: LockId, modified: &[Unit]) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        if modified.is_empty() {
            return;
        }
        // Push the diffs home so the reference copies are up to date...
        protolib::flush_diffs_to_homes(ctx.pm2.sim, node, &rt, modified);
        // ...re-protect the flushed copies so the next critical section
        // faults, re-twins and produces a fresh diff...
        protolib::reprotect_after_flush(ctx.pm2.sim, node, &rt, modified);
        // ...and leave a write notice for the next acquirer instead of
        // invalidating anybody now (laziness).
        let pages = modified.iter().map(|unit| unit.page).collect();
        self.record_notice(lock, node, pages);
    }

    // Home side of a diff: the default `diff_server` — integrate it and bump
    // the version, no eager invalidation. Stale copies are dealt with lazily
    // at acquire time through the write notices.
}
