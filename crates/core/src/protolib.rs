//! The DSM protocol library: thread-safe building blocks protocols are
//! assembled from.
//!
//! The paper describes this layer as "a toolbox \[that\] provides routines to
//! perform elementary actions such as bringing a copy of a remote page to a
//! thread, migrating a thread to some remote data, invalidating all copies of
//! a page, etc.". The built-in protocols (`dsmpm2-protocols`) and user-defined
//! hybrid protocols are written almost entirely in terms of these routines.
//!
//! There is one routine per elementary action and it acts on one *coherence
//! unit*, the [`Unit`] it is handed or that its message carries
//! ([`crate::FaultInfo::unit`], [`PageRequest::unit`], ...): "page" in a
//! routine's name means that unit. Nothing here asks how large the unit is —
//! its bytes are the span [`crate::PageEntry::line_span`] reports and
//! [`crate::FrameStore`] is handed. A protocol that only manages whole pages
//! ([`crate::DsmProtocol::supports_subpage`] is `false`) gets regions of one
//! line per page, names a page's unit with [`Unit::whole`] where it walks
//! pages rather than faults, and runs the same code as a protocol whose
//! regions are split into lines (`tests/consistency_models.rs` runs the
//! conformance matrix at both granularities).

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::{BlockReason, SimHandle};

use crate::costs;
use crate::ctx::DsmThreadCtx;
use crate::diff::PageDiff;
use crate::msg::{DsmMsg, Invalidation, PageRequest, PageTransfer};
use crate::page::{Access, Unit};
use crate::runtime::DsmRuntime;

/// Client side of a page fetch: send a request for `access` on `unit` to the
/// node currently believed to own it and block (in virtual time) until the
/// local rights are sufficient. Concurrent faults on the same unit from the
/// same node coalesce into a single request.
pub fn request_page_and_wait(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    unit: Unit,
    access: Access,
) {
    let table = rt.page_table(node);
    loop {
        let (permitted, pending_fetch, prob_owner) = table.read(unit, |e| {
            (e.access.permits(access), e.pending_fetch, e.prob_owner)
        });
        if permitted {
            return;
        }
        // Without a fetch in flight (none yet, or the one we joined ended
        // without granting enough), start one.
        if !pending_fetch {
            table.update(unit, |e| {
                e.pending_fetch = true;
                e.fetch_seq += 1;
            });
            sim.charge(costs::TABLE_UPDATE);
            // Write requests go to the page's home node, which acts as the
            // acquisition manager (Li & Hudak's improved centralized
            // manager); reads follow the ownership-history hint with the
            // home as fallback.
            let target = if access == Access::Write || prob_owner == node {
                rt.page_meta(unit.page).home
            } else {
                prob_owner
            };
            let req = PageRequest {
                unit,
                access,
                requester: node,
            };
            rt.send_page_request(sim, node, target, req);
        }
        table.wait_until(unit, sim, BlockReason::PageFault, || {
            table.read(unit, |e| e.access.permits(access) || !e.pending_fetch)
        });
    }
}

/// Server-side guard: if this node is itself waiting for a copy of the
/// requested unit (a fetch is in flight), hold an incoming *read* request for
/// the duration of exactly that fetch instead of forwarding it along
/// ownership hints that are about to change.
///
/// Writes never park here: the home manager serializes them (see
/// [`forward_request`]) and routes them only to a node that has finished
/// acquiring ownership. Nor does anything park at the unit's home, where
/// stale requests fall back to. Parking either closes wait-for cycles:
/// writes under concurrent write faults, and a home's held read with a node
/// holding the home's own request (the read-then-upgrade deadlock). The
/// small re-dispatch charge after the wait lets the local faulting thread
/// complete the access it was waiting for before the page can be served
/// away again, which keeps heavy contention starvation-free.
pub fn defer_while_fetching(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let unit = req.unit;
    let table = rt.page_table(node);
    let (owned, pending_fetch, fetch_seq) =
        table.read(unit, |e| (e.owned, e.pending_fetch, e.fetch_seq));
    // Historical bug: the home parked reads behind its own fetch too.
    let at_home =
        rt.page_meta(unit.page).home == node && !crate::mutant::active("home_defers_reads");
    if req.requester == node || at_home || owned || !pending_fetch || req.access == Access::Write {
        return;
    }
    table.wait_until(unit, sim, BlockReason::PageFault, || {
        table.read(unit, |e| !e.pending_fetch || e.fetch_seq != fetch_seq)
    });
    // Yield for a short re-dispatch delay so the local threads woken by the
    // page installation run strictly before this handler serves the page
    // away again: the node is guaranteed at least one successful local access
    // per page acquisition, which is what makes heavy write contention
    // starvation-free.
    sim.sleep(costs::TABLE_UPDATE);
}

/// Install a unit received from another node: store the contents, set the
/// granted rights, update ownership hints and wake the local threads waiting
/// for the unit. Charges the requester-side protocol overhead.
/// A copy from an owner older than one whose invalidation this node applied
/// is stale (that owner's copyset lacks this node): it is dropped, the fetch
/// ends without rights and [`request_page_and_wait`] asks again.
pub fn install_received_page(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    transfer: PageTransfer,
) {
    let unit = transfer.unit;
    let table = rt.page_table(node);
    let (span, owner_version) = table.read(unit, |e| (e.line_span(), e.owner_version));
    // Historical bug: the stale copy was installed after the invalidation.
    let stale = transfer.owner != node
        && transfer.version < owner_version
        && !crate::mutant::active("stale_copy_installed");
    if stale {
        table.update(unit, |e| e.pending_fetch = false);
        sim.charge(costs::TABLE_UPDATE);
        table.notify_all(unit, sim.ctl());
        return;
    }
    rt.frames(node).install(unit, span, transfer.data);
    table.update(unit, |e| {
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
    sim.charge(rt.costs().transfer_overhead);
    sim.charge(costs::TABLE_UPDATE);
    if transfer.grant == Access::Write && transfer.owner == node {
        notify_home_acquired(sim, node, rt, unit, transfer.version);
    }
    table.notify_all(unit, sim.ctl());
}

/// Install a unit received together with write ownership under a
/// write-invalidate protocol — becoming the single writer: store the
/// contents, invalidate every other copy in the transferred copyset, and only
/// then grant write access to the local threads and report the acquisition to
/// the home manager.
pub fn install_write_ownership(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    transfer: PageTransfer,
) {
    let unit = transfer.unit;
    let table = rt.page_table(node);
    let span = table.read(unit, |e| e.line_span());
    rt.frames(node).install(unit, span, transfer.data);
    invalidate_copyset_and_wait(
        sim,
        node,
        rt,
        unit,
        &transfer.copyset,
        Some(node),
        transfer.version,
    );
    table.update(unit, |e| {
        e.access = Access::Write;
        e.owned = true;
        e.prob_owner = node;
        e.queue_tail = None;
        e.copyset.clear();
        e.copyset.insert(node);
        e.version = transfer.version;
        e.owner_version = e.owner_version.max(transfer.version);
        e.pending_fetch = false;
    });
    sim.charge(rt.costs().transfer_overhead);
    notify_home_acquired(sim, node, rt, unit, transfer.version);
    table.notify_all(unit, sim.ctl());
}

/// Owner side of a read request: add the requester to the copyset, downgrade
/// the local copy to read-only (single-writer protocols), and send a
/// read-only copy. The serving node remains the owner.
pub fn serve_read_copy(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let table = rt.page_table(node);
    sim.charge(rt.costs().transfer_overhead);
    let (version, span) = table.update(req.unit, |e| {
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
        (e.version, e.line_span())
    });
    let transfer = PageTransfer {
        unit: req.unit,
        data: rt.frames(node).snapshot(req.unit.page, span),
        grant: Access::Read,
        owner: node,
        copyset: Vec::new(),
        version,
    };
    rt.send_page(sim, node, req.requester, transfer);
}

/// Owner side of a write request: transfer the unit together with ownership
/// and the copyset; the local unit loses all rights.
pub fn serve_write_transfer(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let table = rt.page_table(node);
    sim.charge(rt.costs().transfer_overhead);
    let at_home = rt.page_meta(req.unit.page).home == node;
    let (copyset, version, span) = table.update(req.unit, |e| {
        let mut copyset: Vec<NodeId> = e.copyset.iter().copied().collect();
        copyset.retain(|&n| n != req.requester);
        e.copyset.clear();
        e.access = Access::None;
        e.owned = false;
        e.prob_owner = req.requester;
        e.queue_tail = if at_home {
            // Serving from the home: this acquisition is now in flight; the
            // manager admits the next write request once the requester's
            // AcquireDone arrives.
            Some(req.requester)
        } else {
            None
        };
        e.version += 1;
        e.owner_version = e.version;
        (copyset, e.version, e.line_span())
    });
    let transfer = PageTransfer {
        unit: req.unit,
        data: rt.frames(node).snapshot(req.unit.page, span),
        grant: Access::Write,
        owner: req.requester,
        copyset,
        version,
    };
    rt.send_page(sim, node, req.requester, transfer);
}

/// The request server of the single-writer protocols: wait out an in-flight
/// fetch of our own ([`defer_while_fetching`]), then serve the request if
/// this node owns the unit — a read copy, or the unit with its ownership —
/// and forward it otherwise ([`forward_request`]). A fixed manager and a
/// dynamic one differ only in the hints: pinned to the home, they send every
/// request through it.
pub fn serve_or_forward(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    defer_while_fetching(sim, node, rt, req);
    if !rt.page_table(node).read(req.unit, |e| e.owned) {
        forward_request(sim, node, rt, req);
    } else if req.access == Access::Write {
        serve_write_transfer(sim, node, rt, req);
    } else {
        serve_read_copy(sim, node, rt, req);
    }
}

/// Forward a request along the probable-owner chain (dynamic distributed
/// manager). The forwarding node also updates its own hint to point at the
/// requester when ownership is about to move (write requests), which is the
/// path-compression rule of the Li & Hudak algorithm.
pub fn forward_request(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, req: &PageRequest) {
    let table = rt.page_table(node);
    let unit = req.unit;
    let home = rt.page_meta(unit.page).home;
    rt.stats().incr_request_forward();
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
        loop {
            let (owned, queue_tail, prob_owner) =
                table.read(unit, |e| (e.owned, e.queue_tail, e.prob_owner));
            if owned {
                // The home itself owns the page: serve directly
                // (serve_write_transfer marks the new acquisition in flight).
                serve_write_transfer(sim, node, rt, req);
                return;
            }
            let own_admission = queue_tail == Some(req.requester);
            if queue_tail.is_some() && !own_admission {
                table.wait_until(unit, sim, BlockReason::PageFault, || {
                    table.read(unit, |e| {
                        e.owned || e.queue_tail.is_none() || e.queue_tail == Some(req.requester)
                    })
                });
                continue;
            }
            if prob_owner == node || (own_admission && prob_owner == req.requester) {
                // Record is stale (points at this non-owning node) or at the
                // requester's own unfinished acquisition: wait for fresher
                // ownership information.
                table.wait_until(unit, sim, BlockReason::PageFault, || {
                    table.read(unit, |e| {
                        e.owned
                            || (e.prob_owner != node
                                && !(e.queue_tail == Some(req.requester)
                                    && e.prob_owner == req.requester))
                    })
                });
                continue;
            }
            table.update(unit, |e| e.queue_tail = Some(req.requester));
            rt.send_page_request(sim, node, prob_owner, req.clone());
            return;
        }
    }
    // Reads follow ownership history, which cannot cycle; fall back to the
    // home node on self- or requester-references.
    let prob_owner = table.read(unit, |e| e.prob_owner);
    let target = if prob_owner != node && prob_owner != req.requester {
        prob_owner
    } else {
        home
    };
    rt.send_page_request(sim, node, target, req.clone());
}

/// Invalidate the copies of `unit` held by `targets` (this node excepted) and
/// wait for every acknowledgement. Used by write-invalidate protocols when a
/// node acquires write ownership, and by eager release consistency at lock
/// release.
pub fn invalidate_copyset_and_wait(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    unit: Unit,
    targets: &[NodeId],
    new_owner: Option<NodeId>,
    version: u64,
) {
    let mut burst = Vec::new();
    add_copyset_invalidations(&mut burst, node, rt, unit, targets, new_owner, version);
    rt.send_burst(sim, node, burst);
    await_invalidation_acks(sim, node, rt, unit);
}

/// Send-free half of [`invalidate_copyset_and_wait`]: register the expected
/// acknowledgements and add the invalidations to `burst`, for
/// [`DsmRuntime::send_burst`]. Protocols invalidating several units at once
/// add every round to one burst, send it, and then collect every
/// acknowledgement with [`await_invalidation_acks`], so the rounds overlap
/// in the network instead of serializing, and the invalidations bound for
/// one copy holder share an envelope.
pub fn add_copyset_invalidations(
    burst: &mut Vec<(NodeId, DsmMsg)>,
    node: NodeId,
    rt: &DsmRuntime,
    unit: Unit,
    targets: &[NodeId],
    new_owner: Option<NodeId>,
    version: u64,
) {
    let before = burst.len();
    for &target in targets.iter().filter(|&&n| n != node) {
        let inv = Invalidation {
            unit,
            from: node,
            new_owner,
            needs_ack: true,
            version,
        };
        burst.push((target, DsmMsg::Invalidate(inv)));
    }
    let added = burst.len() - before;
    if added > 0 {
        rt.page_table(node)
            .update(unit, |e| e.pending_acks += added);
    }
}

/// Wait-only half of [`invalidate_copyset_and_wait`]: block until every
/// acknowledgement registered for `unit` — of an invalidation or of a diff —
/// has arrived.
pub fn await_invalidation_acks(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, unit: Unit) {
    let table = rt.page_table(node);
    table.wait_until(unit, sim, BlockReason::Ack, || {
        table.read(unit, |e| e.pending_acks == 0)
    });
}

/// Apply an invalidation locally: drop all rights on the invalidated unit
/// and what the frame store holds of it ([`crate::FrameStore::invalidate`]),
/// update the probable-owner hint, and acknowledge if requested.
pub fn apply_invalidation(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, inv: &Invalidation) {
    let span = rt.page_table(node).update(inv.unit, |e| {
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
            e.prob_owner = inv.new_owner.unwrap_or(inv.from);
        }
        e.copyset.clear();
        e.line_span()
    });
    rt.frames(node).invalidate(inv.unit, span);
    sim.charge(costs::TABLE_UPDATE);
    if inv.needs_ack {
        rt.send_invalidate_ack(sim, node, inv.from, inv.unit);
    }
}

/// Report a completed write acquisition to the unit's home manager (or
/// record it directly when the new owner *is* the home).
pub fn notify_home_acquired(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    unit: Unit,
    version: u64,
) {
    let home = rt.page_meta(unit.page).home;
    if home == node {
        let table = rt.page_table(node);
        table.update(unit, |e| {
            if e.queue_tail == Some(node) {
                e.queue_tail = None;
            }
        });
        table.notify_all(unit, sim.ctl());
    } else {
        rt.send_acquire_done(sim, node, home, unit, node, version);
    }
}

/// Migrate the faulting thread to the node that owns (or is home to) `unit`:
/// the thread-migration alternative to transferring the page. Charges the
/// (tiny) migration protocol overhead; the migration itself is costed by the
/// PM2 layer.
pub fn migrate_thread_to_page(ctx: &mut DsmThreadCtx<'_, '_>, unit: Unit) {
    let rt = ctx.runtime().clone();
    let node = ctx.node();
    let entry = rt.page_table(node).get(unit); // owned copy: the copyset is needed below
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
        let sim = &mut *ctx.pm2.sim;
        invalidate_copyset_and_wait(sim, node, &rt, unit, &targets, Some(node), entry.version);
        // Subtract only the invalidated replicas (a copy granted during the
        // invalidation wait must stay tracked).
        rt.page_table(node).update(unit, |e| {
            e.access = Access::Write;
            e.copyset.retain(|n| !targets.contains(n));
            e.copyset.insert(node);
        });
        sim.charge(costs::TABLE_UPDATE);
        return;
    }
    let target = if entry.prob_owner == node {
        rt.page_meta(unit.page).home
    } else {
        entry.prob_owner
    };
    rt.stats().incr_thread_migration();
    ctx.pm2.sim.charge(costs::MIGRATION_OVERHEAD);
    ctx.pm2.migrate_to(target);
}

/// Create a twin for `unit` on `node` if it has none yet (first write after
/// an acquire). Charges the copy cost when a twin is created.
pub fn ensure_twin(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, unit: Unit) {
    let span = rt.page_table(node).read(unit, |e| e.line_span());
    if rt.frames(node).make_twin(unit, span) {
        rt.stats().incr_twin_created();
        sim.charge(costs::TWIN_CREATE);
    }
}

/// The write fault of a twinning multiple-writer protocol. With a readable
/// copy of the unit already present the node becomes a local writer without
/// any communication — create the twin and upgrade in place; otherwise it
/// fetches a writable copy first and twins that.
pub fn write_fault_with_twin(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, unit: Unit) {
    let table = rt.page_table(node);
    if rt.frames(node).has(unit.page) && table.access(unit) != Access::None {
        ensure_twin(sim, node, rt, unit);
        table.set_access(unit, Access::Write);
        sim.charge(costs::TABLE_UPDATE);
    } else {
        request_page_and_wait(sim, node, rt, unit, Access::Write);
        ensure_twin(sim, node, rt, unit);
    }
}

/// `diff`, addressed to its unit's home node, as one message of a
/// [`DsmRuntime::send_burst`].
pub fn diff_to_home(
    rt: &DsmRuntime,
    node: NodeId,
    diff: PageDiff,
    needs_ack: bool,
) -> (NodeId, DsmMsg) {
    let home = rt.page_meta(diff.unit.page).home;
    let msg = DsmMsg::Diff {
        diff,
        from: node,
        needs_ack,
    };
    (home, msg)
}

/// Ship `diffs` (empty ones are skipped) to their units' home nodes and block
/// until the homes have integrated and acknowledged every one of them. All
/// acknowledgements are registered, then all diffs sent in one burst — the
/// diffs addressed to the same home share one wire envelope — and only then
/// does the caller wait.
pub fn push_diffs_and_wait(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    mut diffs: Vec<PageDiff>,
) {
    let table = rt.page_table(node);
    diffs.retain(|d| !d.is_empty());
    let units: Vec<Unit> = diffs.iter().map(|d| d.unit).collect();
    for &unit in &units {
        table.update(unit, |e| e.pending_acks += 1);
    }
    let burst = diffs
        .into_iter()
        .map(|diff| diff_to_home(rt, node, diff, true))
        .collect();
    rt.send_burst(sim, node, burst);
    for unit in units {
        await_invalidation_acks(sim, node, rt, unit);
    }
}

/// Forget that this node wrote `units`: the release of a protocol with
/// nothing to publish, so that no later release is handed them again.
pub fn clear_modified(node: NodeId, rt: &DsmRuntime, units: &[Unit]) {
    let table = rt.page_table(node);
    for &unit in units {
        table.update(unit, |e| e.modified_since_release = false);
    }
}

/// Compute the diffs of `units` — what this node modified since the last
/// release, e.g. the `modified` slice of [`crate::DsmProtocol::lock_release`]
/// — and ship them to the units' home nodes, waiting for all
/// acknowledgements. A unit whose
/// protocol records writes ([`crate::DsmProtocol::records_writes`], the Java
/// protocols) ships its on-the-fly recorded ranges; any other is compared
/// with its twin (`hbrc_mw`).
pub fn flush_diffs_to_homes(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, units: &[Unit]) {
    let table = rt.page_table(node);
    // Compute every diff first (paying the per-unit scan cost), then
    // transmit them together.
    let mut outgoing = Vec::new();
    for &unit in units {
        // A unit homed here is already up to date: just clear the dirty flag
        // and forget the writes recorded on it, which no home will merge.
        let (offset, recorded) = table.update(unit, |e| {
            e.modified_since_release = false;
            (e.line_span().0, e.records_writes)
        });
        if rt.page_meta(unit.page).home == node {
            if recorded {
                rt.frames(node).clear_recorded(unit.page);
            }
            continue;
        }
        outgoing.push(if recorded {
            rt.frames(node).take_recorded_diff(unit.page)
        } else {
            sim.charge(costs::DIFF_COMPUTE);
            rt.frames(node).take_twin_diff(unit, offset)
        });
    }
    if crate::mutant::active("pre_revoke_diff_push") {
        // Historical bug: the release path fired the diffs off without ack
        // bookkeeping and returned immediately, so a subsequent acquire
        // could read the home copy before the releaser's diffs were applied.
        let burst = outgoing
            .into_iter()
            .filter(|d| !d.is_empty())
            .map(|diff| diff_to_home(rt, node, diff, false))
            .collect();
        rt.send_burst(sim, node, burst);
        return;
    }
    push_diffs_and_wait(sim, node, rt, outgoing);
}

/// Write-protect again the units a release just flushed (the original
/// protocols `mprotect` the page at release): the next write after the
/// release takes a fault, which re-creates the twin the following release
/// will diff against. Units homed here never twin and keep their rights.
pub fn reprotect_after_flush(sim: &mut SimHandle, node: NodeId, rt: &DsmRuntime, units: &[Unit]) {
    let table = rt.page_table(node);
    for &unit in units {
        if rt.page_meta(unit.page).home != node && table.access(unit) == Access::Write {
            table.set_access(unit, Access::Read);
            sim.charge(costs::TABLE_UPDATE);
        }
    }
}

/// Home-node side: after integrating a diff (or granting write ownership),
/// invalidate every third-party copy so stale replicas are refetched.
pub fn home_invalidate_other_copies(
    sim: &mut SimHandle,
    node: NodeId,
    rt: &DsmRuntime,
    unit: Unit,
    except: NodeId,
) {
    let table = rt.page_table(node);
    let (targets, version) = table.read(unit, |e| {
        let targets: Vec<NodeId> = e
            .copyset
            .iter()
            .copied()
            .filter(|&n| n != node && n != except)
            .collect();
        (targets, e.version)
    });
    for &target in &targets {
        let inv = Invalidation {
            unit,
            from: node,
            new_owner: Some(node),
            needs_ack: false,
            version,
        };
        rt.send_invalidate(sim, node, target, inv);
    }
    table.update(unit, |e| {
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
    sim.charge(rt.costs().transfer_overhead);
    let (version, span) = table.update(req.unit, |e| {
        e.copyset.insert(req.requester);
        (e.version, e.line_span())
    });
    let transfer = PageTransfer {
        unit: req.unit,
        data: rt.frames(node).snapshot(req.unit.page, span),
        grant,
        owner: node,
        copyset: Vec::new(),
        version,
    };
    rt.send_page(sim, node, req.requester, transfer);
}
