//! The DSM protocol library: thread-safe building blocks protocols are
//! assembled from.
//!
//! The paper describes this layer as "a toolbox \[that\] provides routines to
//! perform elementary actions such as bringing a copy of a remote page to a
//! thread, migrating a thread to some remote data, invalidating all copies of
//! a page, etc.". The built-in protocols (`dsmpm2-protocols`) and user-defined
//! hybrid protocols are written almost entirely in terms of these routines.
//!
//! Every routine operates on one *coherence unit* — `(page, line)`. The
//! page-level entry points address line 0, which at the default whole-page
//! granularity IS the page, so protocols that do not opt into sub-page
//! coherence ([`crate::DsmProtocol::supports_subpage`]) use this library
//! unchanged. Sub-page-capable protocols pass the faulting line through the
//! `*_at` variants, and the message-borne line index routes every server-side
//! action back to the same unit.

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::{BlockReason, SimHandle};

use crate::ctx::DsmThreadCtx;
use crate::msg::{FetchRead, FetchReply, Invalidation, PageRequest, PageTransfer};
use crate::page::{Access, LineIx, PageId, LINE0, PAGE_SIZE};
use crate::runtime::DsmRuntime;

/// Client side of a page fetch: send a request for `access` on `page` to the
/// node currently believed to own it and block (in virtual time) until the
/// local rights are sufficient. Concurrent faults on the same page from the
/// same node coalesce into a single request.
pub fn request_page_and_wait(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    access: Access,
) {
    request_unit_and_wait(sim, node, rt, page, LINE0, access);
}

/// [`request_page_and_wait`] for one coherence line: the unit of the request,
/// the in-flight-fetch coalescing and the wait are all line `line` of `page`.
pub fn request_unit_and_wait(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    line: LineIx,
    access: Access,
) {
    let table = rt.page_table(node);
    loop {
        let (permitted, pending_fetch, prob_owner) = table.read_at(page, line, |e| {
            (e.access.permits(access), e.pending_fetch, e.prob_owner)
        });
        if permitted {
            return;
        }
        if !pending_fetch {
            table.update_at(page, line, |e| {
                e.pending_fetch = true;
                e.fetch_seq += 1;
            });
            sim.charge(rt.costs().table_update);
            // Write requests go to the page's home node, which acts as the
            // acquisition manager (Li & Hudak's improved centralized
            // manager); reads follow the ownership-history hint with the
            // home as fallback.
            let target = if access == Access::Write || prob_owner == node {
                rt.page_meta(page).home
            } else {
                prob_owner
            };
            rt.send_page_request(
                sim,
                node,
                target,
                PageRequest {
                    page,
                    line,
                    access,
                    requester: node,
                },
            );
        }
        let waiters = table.waiters_at(page, line);
        waiters.register(sim);
        // Re-check before really blocking (the transfer may have raced in).
        if table.access_at(page, line).permits(access) {
            waiters.deregister(sim);
            return;
        }
        sim.park_with(BlockReason::PageFault);
        waiters.deregister(sim);
    }
}

/// One-sided read fast path: fetch a read-only copy of the faulting line
/// directly from the home's frame, without waking a handler thread there.
/// Returns `true` if the line was installed (the fault is resolved) and
/// `false` if the home was contended — the caller then falls back to
/// [`request_unit_and_wait`]. Must only be called by protocols declaring
/// [`crate::DsmProtocol::one_sided_reads`], and only when
/// [`dsmpm2_pm2::DsmTuning::one_sided_reads`] is enabled.
pub fn one_sided_read(ctx: &mut DsmThreadCtx<'_, '_>, page: PageId, line: LineIx) -> bool {
    let rt = ctx.runtime().clone();
    let node = ctx.node();
    let home = rt.page_meta(page).home;
    let table = rt.page_table(node);
    // A fetch already in flight for this line means other local threads are
    // parked on the classic path; join them rather than racing it.
    let (permitted, pending_fetch) = table.read_at(page, line, |e| {
        (e.access.permits(Access::Read), e.pending_fetch)
    });
    if permitted {
        return true;
    }
    if pending_fetch || home == node {
        return false;
    }
    let reply = crate::comm::fetch_read_rpc(
        ctx,
        home,
        FetchRead {
            page,
            line,
            requester: node,
        },
    );
    match reply {
        FetchReply::Data {
            data,
            version,
            owner,
        } => {
            let sim = &mut *ctx.pm2.sim;
            let (line_offset, line_size) = table.read_at(page, line, |e| e.line_span());
            if line_size == PAGE_SIZE {
                rt.frames(node).install(page, data);
            } else {
                rt.frames(node).install_line(page, line, line_offset, &data);
            }
            table.update_at(page, line, |e| {
                // Never downgrade rights a racing classic transfer may have
                // granted in the meantime; only lift None to Read.
                if e.access == Access::None {
                    e.access = Access::Read;
                }
                e.prob_owner = owner;
                e.version = e.version.max(version);
                e.owner_version = e.owner_version.max(version);
            });
            sim.charge(rt.costs().install_overhead);
            sim.charge(rt.costs().table_update);
            table
                .waiters_at(page, line)
                .notify_all(&sim.ctl(), dsmpm2_sim::SimDuration::ZERO);
            true
        }
        FetchReply::Busy => false,
    }
}

/// Server-side guard: if this node is itself waiting for a copy of `page`
/// (a fetch is in flight), hold an incoming *read* request for the duration
/// of exactly that fetch instead of forwarding it along ownership hints that
/// are about to change.
///
/// Write requests never park here: they are serialized by the page's home
/// manager (see [`forward_request`]) and only ever routed to a node that has
/// finished acquiring ownership. Parking writes at arbitrary fetching nodes
/// is how wait-for cycles (and deadlocks) form under concurrent write
/// faults. The small re-dispatch charge after the wait lets the local
/// faulting thread complete the access it was waiting for before the page
/// can be served away again, which keeps heavy contention starvation-free.
pub fn defer_while_fetching(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let page = req.page;
    let line = req.line;
    let table = rt.page_table(node);
    let (owned, pending_fetch, fetch_seq) =
        table.read_at(page, line, |e| (e.owned, e.pending_fetch, e.fetch_seq));
    // Write requests are serialized by the home manager and only ever routed
    // to a node that finished acquiring ownership, so they never need to
    // park here. Read requests may race an in-flight fetch; park them for
    // the duration of exactly that fetch (same fetch_seq), then forward
    // along the refreshed hints.
    if req.requester == node || owned || !pending_fetch || req.access == Access::Write {
        return;
    }
    let waiters = table.waiters_at(page, line);
    waiters.wait_until_why(sim, BlockReason::PageFault, || {
        table.read_at(page, line, |e| !e.pending_fetch || e.fetch_seq != fetch_seq)
    });
    // Yield for a short re-dispatch delay so the local threads woken by the
    // page installation run strictly before this handler serves the page
    // away again: the node is guaranteed at least one successful local access
    // per page acquisition, which is what makes heavy write contention
    // starvation-free.
    sim.sleep(rt.costs().table_update);
}

/// Install a page (or line) received from another node: store the contents,
/// set the granted rights, update ownership hints and wake the local threads
/// waiting for the unit. Charges the requester-side protocol overhead.
pub fn install_received_page(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    transfer: &PageTransfer,
) {
    let table = rt.page_table(node);
    let line = transfer.line;
    let (line_offset, line_size) = table.read_at(transfer.page, line, |e| e.line_span());
    if line_size == PAGE_SIZE {
        rt.frames(node)
            .install(transfer.page, transfer.data.clone());
    } else {
        debug_assert_eq!(transfer.data.len(), line_size);
        rt.frames(node)
            .install_line(transfer.page, line, line_offset, &transfer.data);
    }
    table.update_at(transfer.page, line, |e| {
        e.access = transfer.grant;
        e.prob_owner = transfer.owner;
        e.queue_tail = None;
        e.owned = transfer.owner == node;
        e.version = transfer.version;
        e.owner_version = e.owner_version.max(transfer.version);
        e.pending_fetch = false;
        if transfer.owner == node {
            e.copyset = transfer.copyset.iter().copied().collect();
            e.copyset.insert(node);
        }
    });
    sim.charge(rt.costs().install_overhead);
    sim.charge(rt.costs().table_update);
    if transfer.grant == Access::Write && transfer.owner == node {
        notify_home_acquired_at(sim, node, rt, transfer.page, line, transfer.version);
    }
    table
        .waiters_at(transfer.page, line)
        .notify_all(&sim.ctl(), dsmpm2_sim::SimDuration::ZERO);
}

/// Owner side of a read request: add the requester to the copyset, downgrade
/// the local copy to read-only (single-writer protocols), and send a
/// read-only copy. The serving node remains the owner.
pub fn serve_read_copy(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let table = rt.page_table(node);
    sim.charge(rt.costs().serve_overhead);
    let (version, line_offset, line_size) = table.update_at(req.page, req.line, |e| {
        if crate::mutant::active("copyset_wipe") {
            // Historical bug: the read server rebuilt the copyset from
            // scratch instead of accumulating, forgetting earlier readers
            // and leaving their replicas unreachable by invalidation.
            e.copyset.clear();
        }
        e.copyset.insert(req.requester);
        if e.access == Access::Write {
            e.access = Access::Read;
        }
        let (off, len) = e.line_span();
        (e.version, off, len)
    });
    let data = if line_size == PAGE_SIZE {
        rt.frames(node).snapshot(req.page)
    } else {
        rt.frames(node)
            .snapshot_range(req.page, line_offset, line_size)
    };
    rt.send_page(
        sim,
        node,
        req.requester,
        PageTransfer {
            page: req.page,
            line: req.line,
            data,
            grant: Access::Read,
            owner: node,
            copyset: Vec::new(),
            version,
        },
    );
}

/// Owner side of a write request: transfer the page (or line) together with
/// ownership and the copyset; the local unit loses all rights.
pub fn serve_write_transfer(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let table = rt.page_table(node);
    sim.charge(rt.costs().serve_overhead);
    let (copyset, version, line_offset, line_size) = table.update_at(req.page, req.line, |e| {
        let mut copyset: Vec<NodeId> = e.copyset.iter().copied().collect();
        copyset.retain(|&n| n != req.requester);
        e.copyset.clear();
        e.access = Access::None;
        e.owned = false;
        e.prob_owner = req.requester;
        e.queue_tail = if e.home == node {
            // Serving from the home: this acquisition is now in flight; the
            // manager admits the next write request once the requester's
            // AcquireDone arrives.
            Some(req.requester)
        } else {
            None
        };
        e.version += 1;
        e.owner_version = e.version;
        let (off, len) = e.line_span();
        (copyset, e.version, off, len)
    });
    let data = if line_size == PAGE_SIZE {
        rt.frames(node).snapshot(req.page)
    } else {
        rt.frames(node)
            .snapshot_range(req.page, line_offset, line_size)
    };
    rt.send_page(
        sim,
        node,
        req.requester,
        PageTransfer {
            page: req.page,
            line: req.line,
            data,
            grant: Access::Write,
            owner: req.requester,
            copyset,
            version,
        },
    );
}

/// Forward a request along the probable-owner chain (dynamic distributed
/// manager). The forwarding node also updates its own hint to point at the
/// requester when ownership is about to move (write requests), which is the
/// path-compression rule of the Li & Hudak algorithm.
pub fn forward_request(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let table = rt.page_table(node);
    let home = rt.page_meta(req.page).home;
    rt.stats().incr_request_forward();
    let line = req.line;
    if req.access == Access::Write {
        if node != home {
            // Ordinary nodes route write acquisitions to the manager.
            rt.send_page_request(sim, node, home, req.clone());
            return;
        }
        // Home manager (Li & Hudak's improved centralized manager): admit
        // one acquisition at a time and only hand requests to a node the
        // record proves holds ownership. Anything in between — an
        // acquisition in flight, a record still pointing at this node or at
        // the requester's *own* in-flight acquisition — is waited out; the
        // pending AcquireDone is what refreshes the record and wakes us.
        let page = req.page;
        let waiters = table.waiters_at(page, line);
        loop {
            let (owned, queue_tail, prob_owner) =
                table.read_at(page, line, |e| (e.owned, e.queue_tail, e.prob_owner));
            if owned {
                // The home itself owns the page: serve directly
                // (serve_write_transfer marks the new acquisition in flight).
                serve_write_transfer(sim, node, rt, req);
                return;
            }
            let own_admission = queue_tail == Some(req.requester);
            if queue_tail.is_some() && !own_admission {
                waiters.wait_until_why(sim, BlockReason::PageFault, || {
                    table.read_at(page, line, |e| {
                        e.owned || e.queue_tail.is_none() || e.queue_tail == Some(req.requester)
                    })
                });
                continue;
            }
            if prob_owner == node || (own_admission && prob_owner == req.requester) {
                // Record is stale (points at this non-owning node) or at the
                // requester's own unfinished acquisition: wait for fresher
                // ownership information.
                waiters.wait_until_why(sim, BlockReason::PageFault, || {
                    table.read_at(page, line, |e| {
                        e.owned
                            || (e.prob_owner != node
                                && !(e.queue_tail == Some(req.requester)
                                    && e.prob_owner == req.requester))
                    })
                });
                continue;
            }
            table.update_at(page, line, |e| e.queue_tail = Some(req.requester));
            rt.send_page_request(sim, node, prob_owner, req.clone());
            return;
        }
    }
    // Reads follow ownership history, which cannot cycle; fall back to the
    // home node on self- or requester-references.
    let prob_owner = table.read_at(req.page, line, |e| e.prob_owner);
    let target = if prob_owner != node && prob_owner != req.requester {
        prob_owner
    } else {
        home
    };
    rt.send_page_request(sim, node, target, req.clone());
}

/// Invalidate the copies of `page` held by `targets` and wait for every
/// acknowledgement. Used by write-invalidate protocols when a node acquires
/// write ownership, and by eager release consistency at lock release.
pub fn invalidate_copyset_and_wait(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    targets: &[NodeId],
    new_owner: Option<NodeId>,
    version: u64,
) {
    invalidate_copyset_and_wait_at(sim, node, rt, page, LINE0, targets, new_owner, version);
}

/// [`invalidate_copyset_and_wait`] for one coherence line.
#[allow(clippy::too_many_arguments)]
pub fn invalidate_copyset_and_wait_at(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    line: LineIx,
    targets: &[NodeId],
    new_owner: Option<NodeId>,
    version: u64,
) {
    send_copyset_invalidations_at(sim, node, rt, page, line, targets, new_owner, version);
    await_invalidation_acks_at(sim, node, rt, page, line);
}

/// Send-only half of [`invalidate_copyset_and_wait`]: register the expected
/// acknowledgements and transmit the invalidations without blocking.
/// Protocols invalidating several pages at once send all rounds first and
/// then collect every acknowledgement with [`await_invalidation_acks`], so
/// the rounds overlap in the network instead of serializing.
pub fn send_copyset_invalidations(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    targets: &[NodeId],
    new_owner: Option<NodeId>,
    version: u64,
) {
    send_copyset_invalidations_at(sim, node, rt, page, LINE0, targets, new_owner, version);
}

/// [`send_copyset_invalidations`] for one coherence line.
#[allow(clippy::too_many_arguments)]
pub fn send_copyset_invalidations_at(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    line: LineIx,
    targets: &[NodeId],
    new_owner: Option<NodeId>,
    version: u64,
) {
    let targets: Vec<NodeId> = targets.iter().copied().filter(|&n| n != node).collect();
    if targets.is_empty() {
        return;
    }
    let table = rt.page_table(node);
    table.update_at(page, line, |e| e.pending_acks += targets.len());
    for &target in &targets {
        rt.send_invalidate(
            sim,
            node,
            target,
            Invalidation {
                page,
                line,
                from: node,
                new_owner,
                needs_ack: true,
                version,
            },
        );
    }
}

/// Wait-only half of [`invalidate_copyset_and_wait`]: block until every
/// acknowledgement registered for `page` has arrived.
pub fn await_invalidation_acks(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, page: PageId) {
    await_invalidation_acks_at(sim, node, rt, page, LINE0);
}

/// [`await_invalidation_acks`] for one coherence line.
pub fn await_invalidation_acks_at(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    line: LineIx,
) {
    let table = rt.page_table(node);
    let waiters = table.waiters_at(page, line);
    waiters.wait_until_why(sim, BlockReason::Ack, || {
        table.read_at(page, line, |e| e.pending_acks == 0)
    });
}

/// Apply an invalidation locally: drop the local copy and all rights on the
/// invalidated unit, update the probable-owner hint, and acknowledge if
/// requested. At whole-page granularity the frame is evicted; at sub-page
/// granularity only the line's rights (and its twin) are dropped — other
/// lines of the same frame may still be valid.
pub fn apply_invalidation(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, inv: &Invalidation) {
    let table = rt.page_table(node);
    let line_size = table.update_at(inv.page, inv.line, |e| {
        e.access = Access::None;
        e.owned = false;
        e.modified_since_release = false;
        // Only a strictly newer succession version may move the hint (a
        // late invalidation from an earlier reign would point it backwards,
        // letting request routing cycle) — except that a self-pointing
        // record on a non-owner is always worse than the sender's info.
        if inv.version > e.owner_version || e.prob_owner == node {
            e.owner_version = e.owner_version.max(inv.version);
            e.queue_tail = None;
            if let Some(owner) = inv.new_owner {
                e.prob_owner = owner;
            } else {
                e.prob_owner = inv.from;
            }
        }
        e.copyset.clear();
        e.line_size
    });
    if line_size == PAGE_SIZE {
        rt.frames(node).evict(inv.page);
    } else if rt.frames(node).has(inv.page) {
        rt.frames(node).drop_line_twin(inv.page, inv.line);
    }
    sim.charge(rt.costs().table_update);
    if inv.needs_ack {
        rt.send_invalidate_ack(sim, node, inv.from, inv.page, inv.line);
    }
}

/// Report a completed write acquisition to the page's home manager (or
/// record it directly when the new owner *is* the home).
pub fn notify_home_acquired(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    version: u64,
) {
    notify_home_acquired_at(sim, node, rt, page, LINE0, version);
}

/// [`notify_home_acquired`] for one coherence line.
pub fn notify_home_acquired_at(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    line: LineIx,
    version: u64,
) {
    let home = rt.page_meta(page).home;
    if home == node {
        let table = rt.page_table(node);
        table.update_at(page, line, |e| {
            if e.queue_tail == Some(node) {
                e.queue_tail = None;
            }
        });
        table
            .waiters_at(page, line)
            .notify_all(&sim.ctl(), dsmpm2_sim::SimDuration::ZERO);
    } else {
        rt.send_acquire_done(sim, node, home, page, line, node, version);
    }
}

/// Migrate the faulting thread to the node that owns (or is home to) `page`:
/// the thread-migration alternative to transferring the page. Charges the
/// (tiny) migration protocol overhead; the migration itself is costed by the
/// PM2 layer.
pub fn migrate_thread_to_page(ctx: &mut DsmThreadCtx<'_, '_>, page: PageId) {
    let rt = ctx.runtime().clone();
    let node = ctx.node();
    let entry = rt.page_table(node).get(page);
    if entry.owned {
        // The thread is already where the data lives; the fault means the
        // owner's copy was downgraded to read-only when read replicas were
        // handed out. Migrating "to the data" would land back here and fault
        // forever — reclaim exclusive access by invalidating the replicas.
        let targets: Vec<NodeId> = entry
            .copyset
            .iter()
            .copied()
            .filter(|&n| n != node)
            .collect();
        invalidate_copyset_and_wait(
            ctx.pm2.sim,
            node,
            &rt,
            page,
            &targets,
            Some(node),
            entry.version,
        );
        rt.page_table(node).update(page, |e| {
            e.access = Access::Write;
            e.copyset.retain(|n| !targets.contains(n));
            e.copyset.insert(node);
        });
        ctx.pm2.sim.charge(rt.costs().table_update);
        return;
    }
    let target = if entry.prob_owner == node {
        rt.page_meta(page).home
    } else {
        entry.prob_owner
    };
    rt.stats().incr_thread_migration();
    ctx.pm2.sim.charge(rt.costs().migration_overhead);
    rt.cluster()
        .monitor()
        .record("dsm_migrate_on_fault", rt.costs().migration_overhead);
    ctx.pm2.migrate_to(target);
}

/// Create a twin for `page` on `node` if the protocol needs one (first write
/// after an acquire). Charges the page-copy cost when a twin is created.
pub fn ensure_twin(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, page: PageId) {
    if rt.frames(node).make_twin(page) {
        rt.stats().incr_twin_created();
        sim.charge(rt.costs().twin_create);
    }
}

/// [`ensure_twin`] for one coherence unit: a whole-page twin at the default
/// granularity, a line twin (pristine copy of just that line) otherwise.
pub fn ensure_twin_at(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    line: LineIx,
) {
    let (line_offset, line_size) = rt.page_table(node).read_at(page, line, |e| e.line_span());
    if line_size == PAGE_SIZE {
        ensure_twin(sim, node, rt, page);
    } else if rt
        .frames(node)
        .make_line_twin(page, line, line_offset, line_size)
    {
        rt.stats().incr_twin_created();
        sim.charge(rt.costs().twin_create);
    }
}

/// Compute the diffs of every page this node modified since the last release
/// and ship them to the pages' home nodes, waiting for all acknowledgements.
/// `use_recorded` selects on-the-fly recorded ranges (Java protocols) instead
/// of twin comparison (`hbrc_mw`).
pub fn flush_diffs_to_homes(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    pages: &[PageId],
    use_recorded: bool,
) {
    let units: Vec<(PageId, LineIx)> = pages.iter().map(|&p| (p, LINE0)).collect();
    flush_unit_diffs_to_homes(sim, node, rt, &units, use_recorded);
}

/// [`flush_diffs_to_homes`] over explicit coherence units (the release path
/// of sub-page-capable multiple-writer protocols: pass
/// [`crate::PageTable::modified_units`]). Line units diff against their line
/// twins; whole-page units behave exactly as before.
pub fn flush_unit_diffs_to_homes(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    units: &[(PageId, LineIx)],
    use_recorded: bool,
) {
    let table = rt.page_table(node);
    // Compute every diff first (paying the per-page scan cost), then
    // transmit them in one burst: the sends all happen at the same virtual
    // instant, so diffs addressed to the same home node coalesce into a
    // single wire envelope when per-tick batching is enabled.
    let mut outgoing = Vec::new();
    for &(page, line) in units {
        let home = rt.page_meta(page).home;
        if home == node {
            // The home copy is already up to date; just clear the dirty flag.
            table.update_at(page, line, |e| e.modified_since_release = false);
            continue;
        }
        let (line_offset, line_size) = table.read_at(page, line, |e| e.line_span());
        let diff = if use_recorded {
            rt.frames(node).take_recorded_diff(page)
        } else if line_size == PAGE_SIZE {
            sim.charge(rt.costs().diff_compute);
            rt.frames(node).take_twin_diff(page)
        } else {
            sim.charge(rt.costs().diff_compute);
            rt.frames(node).take_line_twin_diff(page, line, line_offset)
        };
        table.update_at(page, line, |e| e.modified_since_release = false);
        if diff.is_empty() {
            continue;
        }
        // Historical bug (`pre_revoke_diff_push`): the release path fired
        // the diffs off without ack bookkeeping and returned immediately,
        // so a subsequent acquire could read the home copy before the
        // releaser's diffs were applied.
        let skip_acks = crate::mutant::active("pre_revoke_diff_push");
        if !skip_acks {
            table.update_at(page, line, |e| e.pending_acks += 1);
        }
        outgoing.push((page, line, home, diff, skip_acks));
    }
    let mut waiting_units = Vec::new();
    for (page, line, home, diff, skip_acks) in outgoing {
        rt.send_diff(sim, node, home, diff, !skip_acks);
        if !skip_acks {
            waiting_units.push((page, line));
        }
    }
    for (page, line) in waiting_units {
        let waiters = table.waiters_at(page, line);
        waiters.wait_until_why(sim, BlockReason::Ack, || {
            table.read_at(page, line, |e| e.pending_acks == 0)
        });
    }
}

/// Home-node side: after integrating a diff (or granting write ownership),
/// invalidate every third-party copy so stale replicas are refetched.
pub fn home_invalidate_other_copies(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    except: NodeId,
) {
    home_invalidate_other_copies_at(sim, node, rt, page, LINE0, except);
}

/// [`home_invalidate_other_copies`] for one coherence line.
pub fn home_invalidate_other_copies_at(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    page: PageId,
    line: LineIx,
    except: NodeId,
) {
    let table = rt.page_table(node);
    let (targets, version) = table.read_at(page, line, |e| {
        let targets: Vec<NodeId> = e
            .copyset
            .iter()
            .copied()
            .filter(|&n| n != node && n != except)
            .collect();
        (targets, e.version)
    });
    for &target in &targets {
        rt.send_invalidate(
            sim,
            node,
            target,
            Invalidation {
                page,
                line,
                from: node,
                new_owner: Some(node),
                needs_ack: false,
                version,
            },
        );
    }
    table.update_at(page, line, |e| {
        e.copyset.retain(|&n| n == node || n == except);
    });
}

/// Home-node side of a copy request in a home-based protocol: send a copy
/// with the requested `grant`, record the requester in the copyset, and keep
/// the home's own rights and ownership untouched (multiple writers allowed).
pub fn serve_copy_from_home(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    req: &PageRequest,
    grant: Access,
) {
    let table = rt.page_table(node);
    sim.charge(rt.costs().serve_overhead);
    let (version, line_offset, line_size) = table.update_at(req.page, req.line, |e| {
        e.copyset.insert(req.requester);
        let (off, len) = e.line_span();
        (e.version, off, len)
    });
    let data = if line_size == PAGE_SIZE {
        rt.frames(node).snapshot(req.page)
    } else {
        rt.frames(node)
            .snapshot_range(req.page, line_offset, line_size)
    };
    rt.send_page(
        sim,
        node,
        req.requester,
        PageTransfer {
            page: req.page,
            line: req.line,
            data,
            grant,
            owner: node,
            copyset: Vec::new(),
            version,
        },
    );
}
