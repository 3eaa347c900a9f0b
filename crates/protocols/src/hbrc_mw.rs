//! `hbrc_mw` — home-based (lazy) release consistency with multiple writers.
//!
//! Every page has a fixed home node that always holds the reference copy and
//! write access. Other nodes fetch copies from the home on faults and may
//! write them concurrently ("multiple writers") thanks to the classical
//! twinning technique: the first write after an acquire creates a twin, and
//! at lock release the diffs between the twin and the working copy are
//! computed and shipped to the home node. The home integrates the diffs and
//! invalidates third-party copies; a third-party writer that receives such an
//! invalidation first pushes its own pending diffs, then drops its copy.
//! Acquire has nothing to do: stale copies were invalidated when the home
//! integrated the diffs.

use dsmpm2_core::{costs, protolib};
use dsmpm2_core::{
    Access, ConsistencyModel, DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, LockId, NodeId,
    PageDiff, PageRequest, ServerCtx, Unit,
};

/// The `hbrc_mw` protocol (home-based release consistency, multiple writers).
#[derive(Debug, Default)]
pub struct HbrcMw;

impl HbrcMw {
    /// Create the protocol.
    pub fn new() -> Self {
        HbrcMw
    }
}

impl DsmProtocol for HbrcMw {
    fn name(&self) -> &str {
        "hbrc_mw"
    }

    fn consistency(&self) -> ConsistencyModel {
        ConsistencyModel::Release
    }

    fn multiple_writers(&self) -> bool {
        // Twin/diff merging lets several nodes write one page concurrently.
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
        // Multiple writers: the home grants a writable copy but keeps its own
        // write access and ownership.
        let rt = ctx.runtime;
        let node = ctx.local_node;
        protolib::serve_copy_from_home(ctx.sim, node, rt, &req, Access::Write);
    }

    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        let unit = inv.unit;
        // A third-party writer must first push its own modifications to the
        // home node, then drop its copy.
        if rt.frames(node).has(unit.page) && rt.frames(node).has_twin(unit) {
            // Revoke local access *before* computing the diff: this handler
            // blocks below until the home has integrated the diff, and the
            // local application thread keeps running meanwhile — a write it
            // performs after the diff is taken would silently die with the
            // frame. Protected, such a write faults and refetches instead
            // (the mprotect-first discipline of real MW implementations).
            let offset = rt.page_table(node).update(unit, |e| {
                e.access = Access::None;
                e.line_span().0
            });
            ctx.sim.charge(costs::TABLE_UPDATE);
            let diff = rt.frames(node).take_twin_diff(unit, offset);
            ctx.sim.charge(costs::DIFF_COMPUTE);
            // The diff must be integrated at the home before we acknowledge
            // the invalidation, otherwise the invalidator can proceed (and
            // other nodes can refetch) while the reference copy is still
            // stale.
            protolib::push_diffs_and_wait(ctx.sim, node, rt, vec![diff]);
        }
        protolib::apply_invalidation(ctx.sim, node, rt, &inv);
    }

    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId, modified: &[Unit]) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        let table = rt.page_table(node);
        // Non-home units: ship the twin diffs to their home nodes, then
        // write-protect the flushed copies again.
        protolib::flush_diffs_to_homes(ctx.pm2.sim, node, &rt, modified);
        protolib::reprotect_after_flush(ctx.pm2.sim, node, &rt, modified);
        // Units homed here: the reference copy changed in place, so remote
        // copies are stale and must be invalidated before the release
        // completes (they will be refetched on demand). Every round goes out
        // in one burst and the acknowledgements are collected together, so
        // the rounds overlap in the network instead of serializing unit by
        // unit, and invalidations addressed to the same copy holder share an
        // envelope.
        let mut burst = Vec::new();
        let mut in_flight = Vec::new();
        for &unit in modified {
            if rt.page_meta(unit.page).home != node {
                continue;
            }
            let (targets, version) = table.read(unit, |e| {
                let targets: Vec<NodeId> =
                    e.copyset.iter().copied().filter(|&n| n != node).collect();
                (targets, e.version)
            });
            if targets.is_empty() {
                continue;
            }
            protolib::add_copyset_invalidations(
                &mut burst, node, &rt, unit, &targets, None, version,
            );
            // Drop the condemned targets from the copyset *now*, before any
            // blocking: there is no yield point between here and the send,
            // so a target that refetches the page while the ack wait below
            // blocks is re-inserted by the page server and survives —
            // whereas a post-wait retain would wrongly drop that fresh copy
            // (it is indistinguishable from the original membership) and
            // leave the node permanently stale.
            table.update(unit, |e| e.copyset.retain(|n| !targets.contains(n)));
            in_flight.push(unit);
        }
        rt.send_burst(ctx.pm2.sim, node, burst);
        for unit in in_flight {
            protolib::await_invalidation_acks(ctx.pm2.sim, node, &rt, unit);
        }
    }

    fn diff_server(&self, ctx: &mut ServerCtx<'_>, diff: PageDiff, from: NodeId) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        let unit = diff.unit;
        rt.frames(node).apply_diff(unit.page, &diff);
        rt.page_table(node).update(unit, |e| e.version += 1);
        ctx.sim.charge(costs::diff_apply(diff.modified_bytes()));
        // Home-based invalidation of third-party copies: nodes other than the
        // releaser lose their (now stale) copies and will refetch on demand.
        protolib::home_invalidate_other_copies(ctx.sim, node, rt, unit, from);
    }

    fn supports_subpage(&self) -> bool {
        // Twin creation, diff shipping and home-side invalidation all
        // operate on the faulting line (line twins diff only their span).
        true
    }
}
