//! The DSM communication module and the synchronization entry points.
//!
//! All DSM communication goes through four PM2 services:
//!
//! * `dsm` — one-way protocol messages (page requests, page transfers,
//!   invalidations, acknowledgements, diffs), dispatched to the protocol
//!   actions of the page's protocol; a page request, read or write, is
//!   served by a handler thread at the node it reaches;
//! * `dsm_lock_acquire` / `dsm_lock_release` — lock management at the lock's
//!   manager node;
//! * `dsm_barrier` — barrier episodes at the barrier's manager node.
//!
//! The services are registered on every node and every request that may wait
//! is served in a thread of its own, so concurrent requests are served in
//! parallel, matching the multithreaded behaviour the paper emphasizes. The
//! three messages that cannot wait — `InvalidateAck`, `DiffAck` and
//! `AcquireDone`: a table update and a `notify_all`, no charge — are served
//! in the scheduler call that would have started their thread.

use std::sync::Arc;

use dsmpm2_madeleine::{NodeId, CONTROL_MESSAGE_BYTES};
use dsmpm2_pm2::{
    downcast, service_fn, Pm2Cluster, RpcClass, RpcPayload, RpcReply, RpcRequestCtx, RpcService,
    ServiceId,
};
use dsmpm2_sim::{
    BlockReason, EngineCtl, SimDuration, SimHandle, SimTime, SliceRc, SliceWeak, ThreadId,
    TickBucket, TickOutbox,
};

use crate::ctx::{DsmThreadCtx, ServerCtx};
use crate::diff::PageDiff;
use crate::msg::{DsmMsg, Invalidation, PageRequest, PageTransfer};
use crate::page::{Access, Unit};
use crate::runtime::{DsmRuntime, RuntimeInner};
use crate::sync::{BarrierId, LockId};
use crate::verify::SyncEvent;

/// Name of the protocol-message service.
pub const SVC_DSM: &str = "dsm";
/// Name of the lock-acquire service.
pub const SVC_LOCK_ACQUIRE: &str = "dsm_lock_acquire";
/// Name of the lock-release service.
pub const SVC_LOCK_RELEASE: &str = "dsm_lock_release";
/// Name of the barrier service.
pub const SVC_BARRIER: &str = "dsm_barrier";

/// The ids the four DSM services were registered under on the runtime's
/// cluster: what every DSM request carries instead of a name.
pub(crate) struct DsmServices {
    dsm: ServiceId,
    lock_acquire: ServiceId,
    lock_release: ServiceId,
    barrier: ServiceId,
}

/// The `dsm` service: protocol messages.
struct DsmService {
    rt: SliceWeak<RuntimeInner>,
}

impl RpcService for DsmService {
    fn name(&self) -> &str {
        SVC_DSM
    }

    fn handle(&self, rpc: &mut RpcRequestCtx<'_>, payload: RpcPayload) -> Option<RpcReply> {
        let rt = DsmRuntime::from_inner(self.rt.upgrade()?);
        let mut ctx = ServerCtx {
            sim: &mut *rpc.sim,
            runtime: &rt,
            local_node: rpc.local_node,
            from_node: rpc.from_node,
        };
        serve_dsm_msg(&mut ctx, downcast::<DsmMsg>(payload, "dsm message"));
        None
    }

    fn is_nonblocking(&self, payload: &RpcPayload) -> bool {
        payload
            .downcast_ref::<DsmMsg>()
            .is_some_and(DsmMsg::is_nonblocking)
    }

    fn handle_nonblocking(
        &self,
        ctl: &EngineCtl,
        local: NodeId,
        _from: NodeId,
        payload: RpcPayload,
    ) {
        if let Some(inner) = self.rt.upgrade() {
            let msg = downcast::<DsmMsg>(payload, "dsm message");
            serve_nonblocking(&DsmRuntime::from_inner(inner), ctl, local, msg);
        }
    }
}

/// Register the DSM services on `cluster` for the runtime being built behind
/// `rt`, whose coherence outbox is `outbox`. Called once from
/// `DsmRuntime::with_cluster_and_costs`.
pub(crate) fn register_dsm_services(
    cluster: &Pm2Cluster,
    rt: &SliceWeak<RuntimeInner>,
    outbox: &SliceRc<TickOutbox<(NodeId, NodeId), DsmMsg>>,
) -> DsmServices {
    // Every service holds the runtime weakly, like the network hook below: a
    // strong handle would close the cycle runtime → cluster → service table →
    // service → runtime and no run would ever free its tables and frames. A
    // request outliving the runtime has nobody left to observe it.
    type Handler = fn(&DsmRuntime, &mut RpcRequestCtx<'_>, RpcPayload) -> Option<RpcReply>;
    let register = |name: &str, handler: Handler| {
        let weak = rt.clone();
        cluster.register_service(service_fn(name, true, move |rpc, payload| {
            let rt = DsmRuntime::from_inner(weak.upgrade()?);
            handler(&rt, rpc, payload)
        }))
    };

    let dsm = cluster.register_service(Arc::new(DsmService { rt: rt.clone() }));

    // A parked coherence message must never be overtaken by a later message
    // on the same link (an overtaking barrier reply or page transfer would
    // let readers run ahead of an ownership notice or invalidation): flush
    // the link's buckets before any other message is enqueued on it. The
    // hook holds the runtime weakly — the network outlives runtimes in some
    // tests, and a strong reference would cycle through cluster → network →
    // hook → runtime → cluster — and the outbox itself, so that the common
    // send, with nothing parked, stops at one look at it.
    let outbox = SliceRc::clone(outbox);
    let weak = rt.clone();
    cluster
        .network()
        .set_pre_send_hook(Arc::new(move |from, to| {
            if outbox.is_empty() {
                return;
            }
            if let Some(inner) = weak.upgrade() {
                let rt = DsmRuntime::from_inner(inner);
                rt.flush_coherence_link(rt.cluster().ctl(), from, to);
            }
        }));

    // Lock acquisition: the handler thread blocks at the manager node until
    // the lock is free, then takes it on behalf of the requesting node.
    let lock_acquire = register(SVC_LOCK_ACQUIRE, |rt, rpc, payload| {
        let lock = LockId(downcast::<u64>(payload, "lock id"));
        let state = rt.lock_state(lock);
        let requester = rpc.from_node;
        let state_for_wait = state.clone();
        state.waiters.wait_until(rpc.sim, || {
            let mut held = state_for_wait.held.borrow();
            if held.0 {
                false
            } else {
                *held = (true, Some(requester));
                true
            }
        });
        Some(RpcReply::control(()))
    });

    // Lock release.
    let lock_release = register(SVC_LOCK_RELEASE, |rt, rpc, payload| {
        let lock = LockId(downcast::<u64>(payload, "lock id"));
        let state = rt.lock_state(lock);
        {
            let mut held = state.held.borrow();
            assert!(held.0, "release of DSM lock {lock:?} which is not held");
            *held = (false, None);
        }
        state
            .waiters
            .notify_one((), rpc.sim.ctl(), SimDuration::ZERO);
        None
    });

    // Barrier.
    let barrier = register(SVC_BARRIER, |rt, rpc, payload| {
        let barrier = BarrierId(downcast::<u64>(payload, "barrier id"));
        let state = rt.barrier_state(barrier);
        let (my_round, last) = {
            let mut round = state.round.borrow();
            round.0 += 1;
            let my_round = round.1;
            let last = round.0 == state.parties;
            if last {
                round.0 = 0;
                round.1 += 1;
            }
            (my_round, last)
        };
        if last {
            state
                .waiters
                .notify_all((), rpc.sim.ctl(), SimDuration::ZERO);
        } else {
            let state_for_wait = state.clone();
            state
                .waiters
                .wait_until_why((), rpc.sim, BlockReason::Barrier, || {
                    state_for_wait.round.borrow().1 != my_round
                });
        }
        Some(RpcReply::control(()))
    });

    DsmServices {
        dsm,
        lock_acquire,
        lock_release,
        barrier,
    }
}

/// Serve one protocol message in a handler thread.
fn serve_dsm_msg(ctx: &mut ServerCtx<'_>, msg: DsmMsg) {
    let rt = ctx.runtime;
    match msg {
        DsmMsg::Batch(msgs) => {
            // Atomic unpack: every sub-message became visible at this same
            // instant, in send order. Each one is served as if it had
            // arrived alone — in a thread of its own, or in one
            // scheduler call if it cannot block, either way at the instant
            // its thread creation has been paid for — so a blocking server
            // action (e.g. a writer pushing its diff before acknowledging an
            // invalidation) never delays its batch-mates.
            let thread_create = dsmpm2_pm2::THREAD_CREATE;
            let (local, from) = (ctx.local_node, ctx.from_node);
            // Pinned to the local node's scheduler shard (like every thread
            // of this node), so batch unpacking stays serialized with the
            // node's other events.
            let shard = local.index() as u64;
            for sub in msgs {
                ctx.sim.charge(thread_create);
                let rt_sub = rt.clone();
                if sub.is_nonblocking() {
                    ctx.sim.call_after_on(shard, SimDuration::ZERO, move |ctl| {
                        serve_nonblocking(&rt_sub, ctl, local, sub);
                    });
                    continue;
                }
                let name = SliceRc::clone(&rt.inner().batch_thread_names[local.index()]);
                ctx.sim.spawn_on(shard, name, move |sim| {
                    let mut sub_ctx = ServerCtx {
                        sim,
                        runtime: &rt_sub,
                        local_node: local,
                        from_node: from,
                    };
                    serve_dsm_msg(&mut sub_ctx, sub);
                });
            }
        }
        DsmMsg::Request(req) => {
            let protocol = rt.protocol_for_page(req.unit.page);
            match req.access {
                Access::Write => protocol.write_server(ctx, req),
                _ => protocol.read_server(ctx, req),
            }
        }
        DsmMsg::Transfer(transfer) => {
            let protocol = rt.protocol_for_page(transfer.unit.page);
            protocol.receive_page_server(ctx, transfer);
        }
        DsmMsg::Invalidate(inv) => {
            let protocol = rt.protocol_for_page(inv.unit.page);
            protocol.invalidate_server(ctx, inv);
        }
        DsmMsg::Diff {
            diff,
            from,
            needs_ack,
        } => {
            let unit = diff.unit;
            let protocol = rt.protocol_for_page(unit.page);
            protocol.diff_server(ctx, diff, from);
            if needs_ack {
                let local = ctx.local_node;
                rt.send_diff_ack(ctx.sim, local, from, unit);
            }
        }
        DsmMsg::InvalidateAck { .. } | DsmMsg::DiffAck { .. } | DsmMsg::AcquireDone { .. } => {
            unreachable!(
                "a non-blocking message is served in a scheduler call, never in a thread: \
                 pm2 dispatches a one-way one without a thread and a batch schedules its own"
            )
        }
    }
}

/// Serve one of the messages [`DsmMsg::is_nonblocking`] names, on `local`'s
/// shard at `ctl.now()`: generic-core table updates and wake-ups, with no
/// charge and nothing to wait for, so no thread is needed to run them.
fn serve_nonblocking(rt: &DsmRuntime, ctl: &EngineCtl, local: NodeId, msg: DsmMsg) {
    let table = rt.page_table(local);
    let acknowledge = |unit| {
        table.update(unit, |e| e.pending_acks = e.pending_acks.saturating_sub(1));
        unit
    };
    let unit = match msg {
        DsmMsg::InvalidateAck { unit } => {
            rt.stats().incr_invalidation_ack();
            acknowledge(unit)
        }
        DsmMsg::DiffAck { unit } => acknowledge(unit),
        DsmMsg::AcquireDone {
            unit,
            owner,
            version,
        } => {
            // At the home node: record the new owner (version-gated against
            // late arrivals), mark the acquisition complete, and wake any
            // write requests queued at the manager.
            let mut version_before = 0;
            let mut version_after = 0;
            table.update(unit, |e| {
                version_before = e.owner_version;
                // Historical bug (`hint_rewind`): applying the notice without
                // the version gate lets a late or duplicated stale notice
                // rewind the succession record.
                if crate::mutant::active("hint_rewind") || version >= e.owner_version {
                    e.owner_version = version;
                    if !e.owned {
                        e.prob_owner = owner;
                    }
                }
                version_after = e.owner_version;
                if e.queue_tail == Some(owner) {
                    e.queue_tail = None;
                }
            });
            if let Some(hooks) = rt.hooks() {
                hooks.owner_version_update(
                    rt,
                    ctl.now(),
                    local,
                    unit.page,
                    version_before,
                    version_after,
                );
            }
            unit
        }
        other => unreachable!("{other:?} may block"),
    };
    table.notify_all(unit, ctl);
}

// ---------------------------------------------------------------------------
// Sending primitives (the DSM communication module proper).
// ---------------------------------------------------------------------------

/// Wire cost class of one coherence message (pure control when it carries no
/// payload, bulk otherwise): the class of an envelope that carries it alone.
fn rpc_class_for(msg: &DsmMsg) -> RpcClass {
    match msg.payload_bytes() {
        0 => RpcClass::Control,
        n => RpcClass::Data(n),
    }
}

impl DsmRuntime {
    /// Send a coherence message (invalidation, diff, acknowledgement,
    /// ownership notice). Coherence messages travel batched: every one sent
    /// on the same link at the same virtual instant is parked in the outbox,
    /// and at the end of the instant they leave together as one
    /// [`DsmMsg::Batch`] envelope (a lone message leaves as itself).
    fn send_coherence(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, msg: DsmMsg) {
        if self.inner().outbox.push((from, to), sim.now(), msg) {
            // First message for this link at this instant: schedule exactly
            // one flush, at the end of the instant, so every same-instant
            // message for the link has been parked by then. (The pre-send
            // link hook may have flushed the bucket earlier, in which case
            // the callback finds it empty and does nothing.) The flush drains
            // the (from, to) bucket and enqueues on the link's clocks —
            // sender-side state, so it is pinned to the sending node's
            // scheduler shard.
            let rt = self.clone();
            sim.call_after_on(from.index() as u64, SimDuration::ZERO, move |ctl| {
                rt.flush_coherence_link(ctl, from, to);
            });
        }
    }

    fn services(&self) -> &DsmServices {
        &self.inner().services
    }

    /// Ship every parked bucket of the (from, to) link, oldest instant first.
    /// Called by the end-of-instant flush callback and by the transport's
    /// pre-send hook (which guarantees no later message overtakes a parked
    /// one on the same link — the hook's nested invocation during our own
    /// send below finds the buckets already drained and is a no-op).
    pub(crate) fn flush_coherence_link(&self, ctl: &EngineCtl, from: NodeId, to: NodeId) {
        for (tick, bucket) in self.inner().outbox.take_all((from, to)) {
            let (payload, class, n) = match bucket {
                TickBucket::One(msg) => {
                    let class = rpc_class_for(&msg);
                    (msg, class, 1)
                }
                TickBucket::Many(msgs) => {
                    let n = msgs.len();
                    self.stats().incr_coherence_batch();
                    self.stats().add_coherence_batched_messages(n as u64);
                    let batch = DsmMsg::Batch(msgs);
                    // One envelope on the wire: a single message latency is
                    // paid, while every coalesced message contributes its
                    // payload plus one small per-message header at network
                    // bandwidth.
                    let bytes = batch.payload_bytes() + (n - 1) * CONTROL_MESSAGE_BYTES;
                    (batch, RpcClass::Data(bytes), n)
                }
            };
            // `tick` is the instant the parked messages were sent at (the
            // sender's local clock, possibly ahead of the global clock): the
            // envelope must not depart earlier than that.
            self.cluster().rpc_oneway_from_ctl(
                ctl,
                from,
                to,
                self.services().dsm,
                Box::new(payload),
                class,
                n as u32,
                tick,
            );
        }
    }

    /// Send a page request to `to` (one-way; the page will arrive later as a
    /// [`PageTransfer`] message, possibly from a different node).
    pub fn send_page_request(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        req: PageRequest,
    ) {
        self.cluster().rpc_oneway(
            sim,
            from,
            to,
            self.services().dsm,
            Box::new(DsmMsg::Request(req)),
            RpcClass::Control,
        );
    }

    /// Send a full page to `to`.
    pub fn send_page(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, transfer: PageTransfer) {
        let bytes = transfer.data.len();
        self.stats().incr_page_transfer();
        self.stats().add_page_bytes(bytes as u64);
        self.cluster().rpc_oneway(
            sim,
            from,
            to,
            self.services().dsm,
            Box::new(DsmMsg::Transfer(transfer)),
            RpcClass::Data(bytes),
        );
    }

    /// Send an invalidation for `inv.unit` to `to` (batchable).
    pub fn send_invalidate(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        inv: Invalidation,
    ) {
        self.stats().incr_invalidation();
        self.send_coherence(sim, from, to, DsmMsg::Invalidate(inv));
    }

    /// Acknowledge an invalidation back to `to` (batchable).
    pub fn send_invalidate_ack(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, unit: Unit) {
        self.send_coherence(sim, from, to, DsmMsg::InvalidateAck { unit });
    }

    /// Send a diff to `to` (normally the page's home node; batchable — the
    /// diffs of several pages flushed at one release coalesce when they are
    /// homed on the same node).
    pub fn send_diff(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        diff: PageDiff,
        needs_ack: bool,
    ) {
        let bytes = diff.payload_bytes();
        self.stats().incr_diff_sent();
        self.stats().add_diff_bytes(bytes as u64);
        self.send_coherence(
            sim,
            from,
            to,
            DsmMsg::Diff {
                diff,
                from,
                needs_ack,
            },
        );
    }

    /// Notify a unit's home node that `owner` finished installing write
    /// ownership at `version` (batchable).
    pub fn send_acquire_done(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        unit: Unit,
        owner: NodeId,
        version: u64,
    ) {
        let done = DsmMsg::AcquireDone {
            unit,
            owner,
            version,
        };
        self.send_coherence(sim, from, to, done);
    }

    /// Acknowledge a diff back to `to` (batchable).
    pub fn send_diff_ack(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, unit: Unit) {
        self.send_coherence(sim, from, to, DsmMsg::DiffAck { unit });
    }
}

// ---------------------------------------------------------------------------
// Synchronization entry points for application threads.
// ---------------------------------------------------------------------------

impl DsmThreadCtx<'_, '_> {
    /// Acquire a DSM lock, then run the consistency actions every protocol in
    /// use associates with lock acquisition.
    pub fn dsm_lock(&mut self, lock: LockId) {
        let rt = self.runtime().clone();
        let manager = rt.lock_manager(lock);
        self.pm2.rpc_call(
            manager,
            rt.services().lock_acquire,
            Box::new(lock.0),
            RpcClass::Control,
        );
        rt.stats().incr_lock_acquire();
        self.report_sync(&rt, |time, node, thread| SyncEvent::LockAcquired {
            time,
            node,
            thread,
            lock,
        });
        for &id in rt.protocols_in_use().iter() {
            rt.protocol(id).lock_acquire(self, lock);
        }
    }

    /// Run the consistency actions associated with lock release, then release
    /// the DSM lock.
    pub fn dsm_unlock(&mut self, lock: LockId) {
        let rt = self.runtime().clone();
        self.report_sync(&rt, |time, node, thread| SyncEvent::LockReleasing {
            time,
            node,
            thread,
            lock,
        });
        for &id in rt.protocols_in_use().iter() {
            rt.protocol(id).lock_release(self, lock);
        }
        rt.stats().incr_lock_release();
        let manager = rt.lock_manager(lock);
        self.pm2.rpc_oneway(
            manager,
            rt.services().lock_release,
            Box::new(lock.0),
            RpcClass::Control,
        );
    }

    /// Wait at a DSM barrier. For the consistency protocols this behaves as a
    /// release (before blocking) followed by an acquire (after every
    /// participant arrived).
    pub fn dsm_barrier(&mut self, barrier: BarrierId) {
        let rt = self.runtime().clone();
        let sync_point = LockId::for_barrier(barrier);
        self.report_sync(&rt, |time, node, thread| SyncEvent::BarrierEnter {
            time,
            node,
            thread,
            barrier,
        });
        for &id in rt.protocols_in_use().iter() {
            rt.protocol(id).lock_release(self, sync_point);
        }
        let manager = rt.barrier_manager(barrier);
        self.pm2.rpc_call(
            manager,
            rt.services().barrier,
            Box::new(barrier.0),
            RpcClass::Control,
        );
        self.report_sync(&rt, |time, node, thread| SyncEvent::BarrierExit {
            time,
            node,
            thread,
            barrier,
        });
        for &id in rt.protocols_in_use().iter() {
            rt.protocol(id).lock_acquire(self, sync_point);
        }
        rt.stats().incr_barrier();
    }

    /// Report a synchronization event to the verify observer, if installed.
    fn report_sync(
        &mut self,
        rt: &DsmRuntime,
        build: impl FnOnce(SimTime, NodeId, ThreadId) -> SyncEvent,
    ) {
        if let Some(hooks) = rt.hooks() {
            let event = build(self.pm2.sim.now(), self.node(), self.pm2.sim.id());
            hooks.sync_event(rt, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use dsmpm2_pm2::{Engine, Pm2Config};

    use super::*;
    use crate::protocol::CustomProtocol;
    use crate::runtime::{DsmAttr, HomePolicy};
    use crate::stats::DsmStatsSnapshot;

    /// What one run left behind: the DSM counters, the wire envelopes and
    /// the protocol messages served, in serving order.
    struct Sent {
        stats: DsmStatsSnapshot,
        envelopes: u64,
        served: Vec<&'static str>,
    }

    /// On a 3-node cluster with one page, run `send` on node 0 at one
    /// instant. The page's protocol only records which message it served.
    fn send_at_one_instant(
        send: impl FnOnce(&DsmRuntime, &mut SimHandle, Unit) + Send + 'static,
    ) -> Sent {
        let mut engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(3));
        let served = Arc::new(Mutex::new(Vec::new()));
        let (inv, req) = (Arc::clone(&served), Arc::clone(&served));
        let recorder = CustomProtocol::builder("recorder")
            .invalidate_server(move |_, _| inv.lock().unwrap().push("invalidate"))
            .read_server(move |_, _| req.lock().unwrap().push("request"))
            .build();
        let recorder = rt.register_protocol(recorder);
        rt.set_default_protocol(recorder);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let unit = Unit::whole(addr.page());
        rt.spawn_dsm_thread(NodeId(0), "sender", move |ctx| {
            let rt = ctx.runtime().clone();
            send(&rt, ctx.pm2.sim, unit);
        });
        engine.run().expect("nothing waits");
        let served = served.lock().unwrap().clone();
        Sent {
            stats: rt.stats().snapshot(),
            envelopes: rt.cluster().network().wire_stats().envelopes,
            served,
        }
    }

    /// Coherence messages sent on one link at one instant leave in one
    /// envelope; messages for two links leave in two.
    #[test]
    fn same_instant_coherence_messages_share_an_envelope_per_link() {
        let one_link = send_at_one_instant(|rt, sim, unit| {
            rt.send_invalidate_ack(sim, NodeId(0), NodeId(1), unit);
            rt.send_diff_ack(sim, NodeId(0), NodeId(1), unit);
        });
        assert_eq!(one_link.stats.coherence_batches, 1);
        assert_eq!(one_link.stats.coherence_batched_messages, 2);
        assert_eq!(one_link.envelopes, 1, "the run's only envelope");

        let two_links = send_at_one_instant(|rt, sim, unit| {
            rt.send_invalidate_ack(sim, NodeId(0), NodeId(1), unit);
            rt.send_invalidate_ack(sim, NodeId(0), NodeId(2), unit);
        });
        assert_eq!(two_links.stats.coherence_batches, 0);
        assert_eq!(two_links.envelopes, 2);
    }

    /// A parked coherence message is never overtaken on its link: an
    /// invalidation parked until the end of the instant, then a page request
    /// sent directly at that same instant to the same node — the receiver
    /// serves the invalidation first. (The pre-send hook installed by
    /// `register_dsm_services` flushes the link before the request; without
    /// it the request would leave, and be served, first. Missing this order
    /// is what deadlocked `li_hudak_fixed` in PR 2.)
    #[test]
    fn a_parked_coherence_message_is_never_overtaken_on_its_link() {
        let sent = send_at_one_instant(|rt, sim, unit| {
            let inv = Invalidation {
                unit,
                from: NodeId(0),
                new_owner: None,
                needs_ack: false,
                version: 1,
            };
            rt.send_invalidate(sim, NodeId(0), NodeId(1), inv);
            let req = PageRequest {
                unit,
                access: Access::Read,
                requester: NodeId(0),
            };
            rt.send_page_request(sim, NodeId(0), NodeId(1), req);
        });
        assert_eq!(sent.served, ["invalidate", "request"]);
        assert_eq!(sent.envelopes, 2);
    }
}
