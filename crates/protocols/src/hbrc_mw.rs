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

use dsmpm2_core::protolib;
use dsmpm2_core::{
    Access, ConsistencyModel, DsmProtocol, DsmThreadCtx, FaultInfo, Invalidation, LockId, NodeId,
    PageDiff, PageRequest, PageTransfer, ServerCtx,
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

    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        if rt.tuning().one_sided_reads && protolib::one_sided_read(ctx, fault.page, fault.line) {
            return;
        }
        protolib::request_unit_and_wait(
            ctx.pm2.sim,
            node,
            &rt,
            fault.page,
            fault.line,
            Access::Read,
        );
    }

    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        let page = fault.page;
        let line = fault.line;
        if rt.frames(node).has(page) && rt.page_table(node).access_at(page, line) != Access::None {
            // A read copy of the line is already present: become a local
            // writer without any communication — just create the twin and
            // upgrade locally.
            protolib::ensure_twin_at(ctx.pm2.sim, node, &rt, page, line);
            rt.page_table(node).set_access_at(page, line, Access::Write);
            ctx.pm2.sim.charge(rt.costs().table_update);
        } else {
            protolib::request_unit_and_wait(ctx.pm2.sim, node, &rt, page, line, Access::Write);
            protolib::ensure_twin_at(ctx.pm2.sim, node, &rt, page, line);
        }
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        protolib::serve_copy_from_home(ctx.sim, node, &rt, &req, Access::Read);
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        // Multiple writers: the home grants a writable copy but keeps its own
        // write access and ownership.
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        protolib::serve_copy_from_home(ctx.sim, node, &rt, &req, Access::Write);
    }

    fn invalidate_server(&self, ctx: &mut ServerCtx<'_>, inv: Invalidation) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        let (line_offset, line_size) = rt
            .page_table(node)
            .read_at(inv.page, inv.line, |e| e.line_span());
        let whole_page = line_size == dsmpm2_core::PAGE_SIZE;
        let has_twin = rt.frames(node).has(inv.page)
            && if whole_page {
                rt.frames(node).has_twin(inv.page)
            } else {
                rt.frames(node).has_line_twin(inv.page, inv.line)
            };
        // A third-party writer must first push its own modifications to the
        // home node, then drop its copy.
        if has_twin {
            // Revoke local access *before* computing the diff: this handler
            // blocks below until the home has integrated the diff, and the
            // local application thread keeps running meanwhile — a write it
            // performs after the diff is taken would silently die with the
            // frame. Protected, such a write faults and refetches instead
            // (the mprotect-first discipline of real MW implementations).
            rt.page_table(node)
                .set_access_at(inv.page, inv.line, Access::None);
            ctx.sim.charge(rt.costs().table_update);
            let diff = if whole_page {
                rt.frames(node).take_twin_diff(inv.page)
            } else {
                rt.frames(node)
                    .take_line_twin_diff(inv.page, inv.line, line_offset)
            };
            ctx.sim.charge(rt.costs().diff_compute);
            if !diff.is_empty() {
                let home = rt.page_meta(inv.page).home;
                // The diff must be integrated at the home before we
                // acknowledge the invalidation, otherwise the invalidator can
                // proceed (and other nodes can refetch) while the reference
                // copy is still stale.
                rt.page_table(node)
                    .update_at(inv.page, inv.line, |e| e.pending_acks += 1);
                rt.send_diff(ctx.sim, node, home, diff, true);
                let table = rt.page_table(node);
                let waiters = table.waiters_at(inv.page, inv.line);
                waiters.wait_until(ctx.sim, || {
                    table.read_at(inv.page, inv.line, |e| e.pending_acks == 0)
                });
            }
        }
        protolib::apply_invalidation(ctx.sim, node, &rt, &inv);
    }

    fn receive_page_server(&self, ctx: &mut ServerCtx<'_>, transfer: PageTransfer) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        protolib::install_received_page(ctx.sim, node, &rt, &transfer);
    }

    fn lock_acquire(&self, _ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {
        // Laziness: nothing to do at acquire; stale copies were invalidated
        // when the home node integrated the corresponding diffs.
    }

    fn lock_release(&self, ctx: &mut DsmThreadCtx<'_, '_>, _lock: LockId) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        let modified = rt.page_table(node).modified_units();
        // Non-home units: ship the twin diffs to their home nodes.
        protolib::flush_unit_diffs_to_homes(ctx.pm2.sim, node, &rt, &modified, false);
        // Re-protect the flushed copies (the original protocol write-protects
        // the page again at release): the next write after this release takes
        // a fault, which re-creates the twin that the following release will
        // diff against.
        for &(page, line) in &modified {
            if rt.page_meta(page).home == node {
                continue;
            }
            if rt.page_table(node).access_at(page, line) == dsmpm2_core::Access::Write {
                rt.page_table(node)
                    .set_access_at(page, line, dsmpm2_core::Access::Read);
                ctx.pm2.sim.charge(rt.costs().table_update);
            }
        }
        // Units homed here: the reference copy changed in place, so remote
        // copies are stale and must be invalidated before the release
        // completes (they will be refetched on demand). All rounds are sent
        // first and the acknowledgements collected together, so the rounds
        // overlap in the network instead of serializing page by page — and
        // invalidations addressed to the same copy holder leave in one
        // same-tick burst the per-tick batcher can coalesce.
        let mut in_flight = Vec::new();
        for (page, line) in modified {
            if rt.page_meta(page).home != node {
                continue;
            }
            let (targets, version) = rt.page_table(node).read_at(page, line, |e| {
                let targets: Vec<NodeId> =
                    e.copyset.iter().copied().filter(|&n| n != node).collect();
                (targets, e.version)
            });
            if targets.is_empty() {
                continue;
            }
            protolib::send_copyset_invalidations_at(
                ctx.pm2.sim,
                node,
                &rt,
                page,
                line,
                &targets,
                None,
                version,
            );
            // Drop the condemned targets from the copyset *now*, before any
            // blocking: there is no yield point between the send and this
            // update, so a target that refetches the page while the ack wait
            // below blocks is re-inserted by the page server and survives —
            // whereas a post-wait retain would wrongly drop that fresh copy
            // (it is indistinguishable from the original membership) and
            // leave the node permanently stale.
            rt.page_table(node).update_at(page, line, |e| {
                e.copyset.retain(|n| !targets.contains(n));
            });
            in_flight.push((page, line));
        }
        for (page, line) in in_flight {
            protolib::await_invalidation_acks_at(ctx.pm2.sim, node, &rt, page, line);
        }
    }

    fn diff_server(&self, ctx: &mut ServerCtx<'_>, diff: PageDiff, from: NodeId) {
        let rt = ctx.runtime.clone();
        let node = ctx.local_node;
        let page = diff.page;
        let line = diff.line;
        let bytes = diff.modified_bytes();
        rt.frames(node).apply_diff(page, &diff);
        rt.page_table(node).update_at(page, line, |e| {
            e.version += 1;
        });
        ctx.sim.charge(rt.costs().diff_apply(bytes));
        // Home-based invalidation of third-party copies: nodes other than the
        // releaser lose their (now stale) copies and will refetch on demand.
        protolib::home_invalidate_other_copies_at(ctx.sim, node, &rt, page, line, from);
    }

    fn supports_subpage(&self) -> bool {
        // Twin creation, diff shipping and home-side invalidation all
        // operate on the faulting line (line twins diff only their span).
        true
    }

    fn one_sided_reads(&self) -> bool {
        // Home-based: the home's reference copy is always current between
        // diff integrations, and the fetch guard refuses while a diff round
        // is open on the line (pending acknowledgements).
        true
    }
}
