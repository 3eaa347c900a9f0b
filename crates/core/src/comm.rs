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
//! Every request and reply is a [`DsmRpc`], the message type of the
//! runtime's `Pm2Cluster<DsmRpc>`: moved by value from the `send_*` call to
//! the protocol action, with no box and no run-time type check.
//!
//! A protocol message goes on the wire when it is sent, in an envelope of
//! its own. The coherence messages one routine sends together — a release's
//! diffs or invalidation rounds — go through [`DsmRuntime::send_burst`],
//! which puts those bound for one node in a single [`DsmMsg::Batch`]
//! envelope.
//!
//! The services are registered on every node and every request that may wait
//! is served in a thread of its own, so concurrent requests are served in
//! parallel, matching the multithreaded behaviour the paper emphasizes. The
//! three messages that cannot wait — `InvalidateAck`, `DiffAck` and
//! `AcquireDone`: a table update and a `notify_all`, no charge — are served
//! in the scheduler call that would have started their thread.

use std::sync::Arc;

use dsmpm2_madeleine::{NodeId, CONTROL_MESSAGE_BYTES};
use dsmpm2_pm2::{Pm2Cluster, RpcClass, RpcReply, RpcRequestCtx, RpcService, ServiceId};
use dsmpm2_sim::{EngineCtl, SimDuration, SimHandle, SimTime, SliceRc, SliceWeak, ThreadId};

use crate::ctx::{DsmThreadCtx, ServerCtx};
use crate::msg::{DsmMsg, Invalidation, PageRequest, PageTransfer};
use crate::page::{Access, PageId, Unit};
use crate::protocol::ProtocolId;
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

/// The message type of the runtime's cluster ([`DsmRuntime::cluster`]):
/// what every DSM request and reply carries, by value.
#[derive(Debug)]
pub enum DsmRpc {
    /// A protocol message, to the `dsm` service.
    Msg(DsmMsg),
    /// A lock to take, to `dsm_lock_acquire`.
    Acquire(LockId),
    /// A lock to give back, to `dsm_lock_release`.
    Release(LockId),
    /// An arrival at a barrier, to `dsm_barrier`.
    Barrier(BarrierId),
    /// The reply of `dsm_lock_acquire` and `dsm_barrier`: the lock is taken,
    /// or every party has arrived.
    Done,
}

/// The ids the four DSM services were registered under on the runtime's
/// cluster: what every DSM request carries instead of a name.
pub(crate) struct DsmServices {
    dsm: ServiceId,
    lock_acquire: ServiceId,
    lock_release: ServiceId,
    barrier: ServiceId,
}

/// One of the four DSM services. Each serves the [`DsmRpc`] variant its
/// senders address to it; the service names the request's statistics and
/// handler threads.
struct DsmService {
    name: &'static str,
    /// Weak: a strong handle would close the cycle runtime → cluster →
    /// service table → service → runtime and no run would ever free its
    /// tables and frames. A request outliving the runtime has nobody left
    /// to observe it.
    rt: SliceWeak<RuntimeInner>,
}

impl RpcService<DsmRpc> for DsmService {
    fn name(&self) -> &str {
        self.name
    }

    fn handle(
        &self,
        rpc: &mut RpcRequestCtx<'_, DsmRpc>,
        payload: DsmRpc,
    ) -> Option<RpcReply<DsmRpc>> {
        let rt = DsmRuntime::from_inner(self.rt.upgrade()?);
        match payload {
            DsmRpc::Msg(msg) => {
                let mut ctx = ServerCtx {
                    sim: &mut *rpc.sim,
                    runtime: &rt,
                    local_node: rpc.local_node,
                    from_node: rpc.from_node,
                };
                serve_dsm_msg(&mut ctx, msg);
                return None;
            }
            DsmRpc::Release(lock) => {
                rt.lock_state(lock).give_back(lock, rpc.sim.ctl());
                return None;
            }
            DsmRpc::Acquire(lock) => rt.lock_state(lock).take(rpc.sim, rpc.from_node),
            DsmRpc::Barrier(barrier) => rt.barrier_state(barrier).arrive(rpc.sim),
            DsmRpc::Done => unreachable!("a reply is never sent as a request"),
        }
        Some(RpcReply {
            payload: DsmRpc::Done,
            class: RpcClass::Control,
        })
    }

    fn is_nonblocking(&self, payload: &DsmRpc) -> bool {
        matches!(payload, DsmRpc::Msg(msg) if msg.is_nonblocking())
    }

    fn handle_nonblocking(&self, ctl: &EngineCtl, local: NodeId, _from: NodeId, payload: DsmRpc) {
        if let (Some(inner), DsmRpc::Msg(msg)) = (self.rt.upgrade(), payload) {
            serve_nonblocking(&DsmRuntime::from_inner(inner), ctl, local, msg);
        }
    }
}

/// Register the DSM services on `cluster` for the runtime being built behind
/// `rt`. Called once from `DsmRuntime::with_cluster_and_costs`.
pub(crate) fn register_dsm_services(
    cluster: &Pm2Cluster<DsmRpc>,
    rt: &SliceWeak<RuntimeInner>,
) -> DsmServices {
    let register = |name| {
        let rt = rt.clone();
        cluster.register_service(Arc::new(DsmService { name, rt }))
    };
    DsmServices {
        dsm: register(SVC_DSM),
        lock_acquire: register(SVC_LOCK_ACQUIRE),
        lock_release: register(SVC_LOCK_RELEASE),
        barrier: register(SVC_BARRIER),
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

impl DsmRuntime {
    fn services(&self) -> &DsmServices {
        &self.inner().services
    }

    /// Put `msg` on the wire to `to` now, as an envelope of its own: pure
    /// control unless it carries a payload. Every protocol message leaves
    /// here or in [`DsmRuntime::send_burst`] at the instant it is sent, so
    /// each link carries them in send order.
    fn send(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, msg: DsmMsg) {
        self.count_sent(&msg);
        let class = match msg.payload_bytes() {
            0 => RpcClass::Control,
            n => RpcClass::Data(n),
        };
        self.send_envelope(sim, from, to, msg, class, 1);
    }

    fn send_envelope(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        msg: DsmMsg,
        class: RpcClass,
        messages: u32,
    ) {
        let (dsm, payload) = (self.services().dsm, DsmRpc::Msg(msg));
        self.cluster()
            .rpc_oneway(sim, from, to, dsm, payload, class, messages);
    }

    /// Add what sending `msg` does to the DSM counters.
    fn count_sent(&self, msg: &DsmMsg) {
        let stats = self.stats();
        match msg {
            DsmMsg::Transfer(transfer) => {
                stats.incr_page_transfer();
                stats.add_page_bytes(transfer.data.len() as u64);
            }
            DsmMsg::Invalidate(_) => stats.incr_invalidation(),
            DsmMsg::Diff { diff, .. } => {
                stats.incr_diff_sent();
                stats.add_diff_bytes(diff.payload_bytes() as u64);
            }
            _ => {}
        }
    }

    /// Send the coherence messages one routine produces together, given as
    /// `(destination, message)` pairs in send order: one envelope per
    /// destination, in order of first appearance. A destination's lone
    /// message leaves as itself, as the single sends below send it; two or
    /// more leave as one [`DsmMsg::Batch`], which pays one message latency
    /// while each message adds its payload and one small header at network
    /// bandwidth. A diff is sent this way, alone or with others
    /// ([`crate::protolib::diff_to_home`]).
    pub fn send_burst(&self, sim: &mut SimHandle, from: NodeId, mut burst: Vec<(NodeId, DsmMsg)>) {
        while let Some(&(to, _)) = burst.first() {
            let mut bound_for_to = burst
                .extract_if(.., |(dest, _)| *dest == to)
                .map(|(_, msg)| msg);
            let first = bound_for_to.next().expect("the burst's first message");
            let Some(second) = bound_for_to.next() else {
                self.send(sim, from, to, first);
                continue;
            };
            let msgs: Vec<DsmMsg> = [first, second].into_iter().chain(bound_for_to).collect();
            let n = msgs.len();
            msgs.iter().for_each(|msg| self.count_sent(msg));
            self.stats().incr_coherence_batch();
            self.stats().add_coherence_batched_messages(n as u64);
            let batch = DsmMsg::Batch(msgs);
            let bytes = batch.payload_bytes() + (n - 1) * CONTROL_MESSAGE_BYTES;
            self.send_envelope(sim, from, to, batch, RpcClass::Data(bytes), n as u32);
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
        self.send(sim, from, to, DsmMsg::Request(req));
    }

    /// Send a full page (or line) to `to`.
    pub fn send_page(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, transfer: PageTransfer) {
        self.send(sim, from, to, DsmMsg::Transfer(transfer));
    }

    /// Send an invalidation for `inv.unit` to `to`.
    pub fn send_invalidate(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        inv: Invalidation,
    ) {
        self.send(sim, from, to, DsmMsg::Invalidate(inv));
    }

    /// Acknowledge an invalidation back to `to`.
    pub fn send_invalidate_ack(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, unit: Unit) {
        self.send(sim, from, to, DsmMsg::InvalidateAck { unit });
    }

    /// Notify a unit's home node that `owner` finished installing write
    /// ownership at `version`.
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
        self.send(sim, from, to, done);
    }

    /// Acknowledge a diff back to `to`.
    pub fn send_diff_ack(&self, sim: &mut SimHandle, from: NodeId, to: NodeId, unit: Unit) {
        self.send(sim, from, to, DsmMsg::DiffAck { unit });
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
            DsmRpc::Acquire(lock),
            RpcClass::Control,
        );
        rt.stats().incr_lock_acquire();
        self.report_sync(&rt, |time, node, thread| SyncEvent::LockAcquired {
            time,
            node,
            thread,
            lock,
        });
        self.acquire_hooks(&rt, lock);
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
        self.release_hooks(&rt, lock);
        rt.stats().incr_lock_release();
        let manager = rt.lock_manager(lock);
        self.pm2.rpc_oneway(
            manager,
            rt.services().lock_release,
            DsmRpc::Release(lock),
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
        self.release_hooks(&rt, sync_point);
        let manager = rt.barrier_manager(barrier);
        self.pm2.rpc_call(
            manager,
            rt.services().barrier,
            DsmRpc::Barrier(barrier),
            RpcClass::Control,
        );
        self.report_sync(&rt, |time, node, thread| SyncEvent::BarrierExit {
            time,
            node,
            thread,
            barrier,
        });
        self.acquire_hooks(&rt, sync_point);
        rt.stats().incr_barrier();
    }

    /// Run each protocol in use, in registration order, on the units of its
    /// own pages that this node wrote since its last release
    /// ([`crate::DsmProtocol::lock_release`]). A protocol with no such unit
    /// is still called: its synchronisation state (bound regions, write
    /// notices) lives in the protocol. Each slice is taken just before its
    /// hook runs: an earlier hook may block, and meanwhile this node's
    /// server may flush and drop a unit a later protocol owns.
    fn release_hooks(&mut self, rt: &DsmRuntime, lock: LockId) {
        let table = rt.page_table(self.node());
        for &id in rt.protocols_in_use().iter() {
            let modified = own(rt, id, table.modified_units(), |unit| unit.page);
            rt.protocol(id).lock_release(self, lock, &modified);
        }
    }

    /// Run each protocol in use, in registration order, on its own pages of
    /// which this node maps a frame ([`crate::DsmProtocol::lock_acquire`]),
    /// each list taken just before its hook runs.
    fn acquire_hooks(&mut self, rt: &DsmRuntime, lock: LockId) {
        let frames = rt.frames(self.node());
        for &id in rt.protocols_in_use().iter() {
            let cached = own(rt, id, frames.pages(), |&page| page);
            rt.protocol(id).lock_acquire(self, lock, &cached);
        }
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

/// The items of `of` on pages that protocol `id` manages, in their order
/// (all of them under the `sync_scope_leak` mutant).
fn own<T>(rt: &DsmRuntime, id: ProtocolId, mut of: Vec<T>, page: fn(&T) -> PageId) -> Vec<T> {
    if !crate::mutant::active("sync_scope_leak") {
        of.retain(|x| rt.page_meta(page(x)).protocol == id);
    }
    of
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use dsmpm2_pm2::{Engine, Pm2Config};

    use super::*;
    use crate::protocol::DsmProtocol;
    use crate::runtime::{DsmAttr, HomePolicy};
    use crate::stats::DsmStatsSnapshot;

    /// What one run left behind: the DSM counters, the wire envelopes and
    /// the protocol messages served, in serving order.
    struct Sent {
        stats: DsmStatsSnapshot,
        envelopes: u64,
        served: Vec<&'static str>,
    }

    /// A protocol that only records which message it served.
    struct Recorder(Arc<Mutex<Vec<&'static str>>>);

    impl DsmProtocol for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }

        fn read_server(&self, _ctx: &mut ServerCtx<'_>, _req: PageRequest) {
            self.0.lock().unwrap().push("request");
        }

        fn invalidate_server(&self, _ctx: &mut ServerCtx<'_>, _inv: Invalidation) {
            self.0.lock().unwrap().push("invalidate");
        }
    }

    /// On a 3-node cluster with one page, run `send` on node 0 at one
    /// instant. The page's protocol only records which message it served.
    fn send_at_one_instant(
        send: impl FnOnce(&DsmRuntime, &mut SimHandle, Unit) + Send + 'static,
    ) -> Sent {
        let mut engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(3));
        let served = Arc::new(Mutex::new(Vec::new()));
        let recorder = rt.register_protocol(Arc::new(Recorder(Arc::clone(&served))));
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

    /// A burst's messages for one node leave in one envelope, those for two
    /// nodes in two; separate sends leave separately, even at one instant.
    #[test]
    fn a_burst_shares_an_envelope_per_destination() {
        let one_node = send_at_one_instant(|rt, sim, unit| {
            let burst = vec![
                (NodeId(1), DsmMsg::InvalidateAck { unit }),
                (NodeId(1), DsmMsg::DiffAck { unit }),
            ];
            rt.send_burst(sim, NodeId(0), burst);
        });
        assert_eq!(one_node.stats.coherence_batches, 1);
        assert_eq!(one_node.stats.coherence_batched_messages, 2);
        assert_eq!(one_node.envelopes, 1, "the run's only envelope");

        let two_nodes = send_at_one_instant(|rt, sim, unit| {
            let burst = vec![
                (NodeId(1), DsmMsg::InvalidateAck { unit }),
                (NodeId(2), DsmMsg::InvalidateAck { unit }),
            ];
            rt.send_burst(sim, NodeId(0), burst);
        });
        assert_eq!(two_nodes.stats.coherence_batches, 0);
        assert_eq!(two_nodes.envelopes, 2);

        let separate = send_at_one_instant(|rt, sim, unit| {
            rt.send_invalidate_ack(sim, NodeId(0), NodeId(1), unit);
            rt.send_diff_ack(sim, NodeId(0), NodeId(1), unit);
        });
        assert_eq!(separate.stats.coherence_batches, 0);
        assert_eq!(separate.envelopes, 2);
    }

    /// A coherence message is never overtaken on its link: an invalidation,
    /// then a page request sent at that same instant to the same node — the
    /// receiver serves the invalidation first. Both leave when they are
    /// sent, so the link's FIFO order is their send order. (Missing this
    /// order once deadlocked `li_hudak_fixed`.)
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
