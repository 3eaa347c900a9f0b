//! Remote procedure calls.
//!
//! PM2's basic mechanism for inter-node interaction is the RPC: a thread
//! invokes the remote execution of a user-defined service, which may be
//! handled by a pre-existing thread or trigger the creation of a new one.
//! All DSM-PM2 communication primitives are built on this mechanism, which is
//! why it is modelled explicitly here rather than folded into the DSM layer.

use std::any::Any;
use std::sync::Arc;

use dsmpm2_madeleine::{NodeId, CONTROL_MESSAGE_BYTES};
use dsmpm2_sim::{BlockReason, EngineCtl, SimHandle, SimTime, SliceCell, WaitSet};

use crate::cluster::Pm2Cluster;

/// Payload carried by requests and replies. Services downcast it to their
/// concrete argument type; the network layer only needs its accounted size.
pub type RpcPayload = Box<dyn Any + Send>;

/// How a message should be costed by the network model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcClass {
    /// A null RPC carrying (almost) no arguments: costs the interconnect's
    /// minimal RPC latency. Used by the §2.1 microbenchmark.
    Minimal,
    /// A small DSM control message (page request, invalidation, ack).
    Control,
    /// A bulk transfer of `n` payload bytes (page contents, diffs).
    Data(usize),
}

impl RpcClass {
    /// Payload bytes accounted to the network statistics.
    pub fn accounted_bytes(self) -> usize {
        match self {
            RpcClass::Minimal => 16,
            RpcClass::Control => CONTROL_MESSAGE_BYTES,
            RpcClass::Data(n) => n + CONTROL_MESSAGE_BYTES,
        }
    }
}

/// A reply produced by a service handler.
pub struct RpcReply {
    /// Reply value, downcast by the caller.
    pub payload: RpcPayload,
    /// Cost class of the reply message.
    pub class: RpcClass,
}

impl RpcReply {
    /// A reply carrying a small control answer.
    pub fn control(payload: impl Any + Send) -> Self {
        RpcReply {
            payload: Box::new(payload),
            class: RpcClass::Control,
        }
    }

    /// A minimal reply (null RPC completion).
    pub fn minimal(payload: impl Any + Send) -> Self {
        RpcReply {
            payload: Box::new(payload),
            class: RpcClass::Minimal,
        }
    }
}

/// Dense identifier of a registered service: what a request carries on the
/// wire instead of the service's name. Returned by
/// [`crate::Pm2Cluster::register_service`]; layers that send many requests
/// keep it and pass it wherever a service is named.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServiceId(pub(crate) u32);

/// How a caller names the service it invokes: by the [`ServiceId`] it got at
/// registration (no lookup), or by name (one lookup per call).
pub trait ServiceKey {
    /// The service's identifier on `cluster`.
    ///
    /// # Panics
    /// Panics if a name is not registered on `cluster`.
    fn resolve(self, cluster: &Pm2Cluster) -> ServiceId;
}

impl ServiceKey for ServiceId {
    fn resolve(self, _cluster: &Pm2Cluster) -> ServiceId {
        self
    }
}

impl ServiceKey for &str {
    fn resolve(self, cluster: &Pm2Cluster) -> ServiceId {
        cluster
            .service_id(self)
            .unwrap_or_else(|| panic!("RPC to unregistered service '{self}'"))
    }
}

/// Wire messages exchanged by the RPC layer. Exposed only because
/// [`crate::Pm2Cluster::network`] returns the underlying typed network; user
/// code never constructs these.
pub enum RpcMessage {
    /// A service invocation.
    Request {
        /// Correlation id.
        id: u64,
        /// Target service.
        service: ServiceId,
        /// True if the caller blocks for a reply.
        needs_reply: bool,
        /// Arguments.
        payload: RpcPayload,
    },
    /// A reply to an earlier request.
    Reply {
        /// Correlation id of the request.
        id: u64,
        /// Reply value.
        payload: RpcPayload,
    },
}

/// Context passed to a service handler. The handler runs on the destination
/// node in a handler thread of its own, started by the dispatch at the
/// instant the dispatch (and, for [`RpcService::spawn_thread`] services, the
/// thread creation) has been paid for.
pub struct RpcRequestCtx<'a> {
    /// Simulation handle of the thread executing the handler.
    pub sim: &'a mut SimHandle,
    /// The cluster, for nested RPCs (e.g. forwarding a page request along the
    /// probable-owner chain).
    pub cluster: &'a Pm2Cluster,
    /// Node on which the handler executes.
    pub local_node: NodeId,
    /// Node that issued the request.
    pub from_node: NodeId,
}

/// A named remote service.
pub trait RpcService: Send + Sync + 'static {
    /// Service name used for registration and monitoring.
    fn name(&self) -> &str;
    /// Handle one request. Must return `Some` if the caller expects a reply.
    fn handle(&self, ctx: &mut RpcRequestCtx<'_>, payload: RpcPayload) -> Option<RpcReply>;
    /// If true (the default, and the behaviour used by the DSM page servers),
    /// the dispatch pays for the creation of the request's handler thread
    /// ([`crate::Pm2Costs::thread_create_us`]). If false it does not: the
    /// request is served by a pre-existing thread, which costs the model
    /// nothing to hand the request to. Either way the handler may block, and
    /// concurrent requests are served in parallel.
    fn spawn_thread(&self) -> bool {
        true
    }
    /// Asked at dispatch time about a one-way request, from its payload
    /// alone: is serving it certain not to block — no charge, no wait, no
    /// nested blocking call? Such a request is served by
    /// [`RpcService::handle_nonblocking`] in one scheduler call, at exactly
    /// the instant and on the shard its handler thread's first slice would
    /// have run, and no thread is created for it. The dispatch (and
    /// `spawn_thread`) cost is charged all the same, so virtual time does not
    /// depend on the answer.
    fn is_nonblocking(&self, _payload: &RpcPayload) -> bool {
        false
    }
    /// Serve a request [`RpcService::is_nonblocking`] vouched for. `ctl.now()`
    /// is what the handler thread's clock would have read.
    fn handle_nonblocking(
        &self,
        _ctl: &EngineCtl,
        _local_node: NodeId,
        _from_node: NodeId,
        _payload: RpcPayload,
    ) {
        unreachable!(
            "service '{}' declared a request non-blocking but cannot serve one",
            self.name()
        )
    }
}

/// Adapter turning a closure into an [`RpcService`].
pub struct FnService<F> {
    name: String,
    spawn_thread: bool,
    f: F,
}

impl<F> RpcService for FnService<F>
where
    F: Fn(&mut RpcRequestCtx<'_>, RpcPayload) -> Option<RpcReply> + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }
    fn handle(&self, ctx: &mut RpcRequestCtx<'_>, payload: RpcPayload) -> Option<RpcReply> {
        (self.f)(ctx, payload)
    }
    fn spawn_thread(&self) -> bool {
        self.spawn_thread
    }
}

/// Build a service from a closure. `spawn_thread` selects whether the
/// dispatch pays for creating each request's handler thread (see
/// [`RpcService::spawn_thread`]).
pub fn service_fn<F>(name: impl Into<String>, spawn_thread: bool, f: F) -> Arc<dyn RpcService>
where
    F: Fn(&mut RpcRequestCtx<'_>, RpcPayload) -> Option<RpcReply> + Send + Sync + 'static,
{
    Arc::new(FnService {
        name: name.into(),
        spawn_thread,
        f,
    })
}

/// Table of outstanding RPC calls waiting for their reply: one slot per
/// caller blocked right now, so a handful, scanned. Callers open a slot and
/// wait from their slices, under their call id; the reply's arrival event
/// fills the slot and notifies that id.
#[derive(Default)]
pub(crate) struct ReplyTable {
    /// Call ids, each with its reply once it has arrived.
    slots: SliceCell<Vec<(u64, Option<RpcPayload>)>>,
    callers: WaitSet<u64>,
}

impl ReplyTable {
    pub fn new() -> Self {
        ReplyTable::default()
    }

    /// Open the slot of call `id`, before its request is sent.
    pub fn open(&self, id: u64) {
        let mut slots = self.slots.borrow();
        debug_assert!(slots.iter().all(|s| s.0 != id), "duplicate RPC id {id}");
        slots.push((id, None));
    }

    /// Block until the reply to call `id` has arrived, and take it.
    pub fn wait(&self, id: u64, sim: &mut SimHandle) -> RpcPayload {
        let mut reply = None;
        self.callers.wait_until_why(id, sim, BlockReason::Rpc, || {
            reply = self.take(id);
            reply.is_some()
        });
        reply.expect("the wait ends on a reply")
    }

    /// Deposit the reply for call `id` and wake its caller at `at`. A reply
    /// to no outstanding call is dropped.
    pub fn fulfill(&self, id: u64, payload: RpcPayload, ctl: &EngineCtl, at: SimTime) {
        {
            let mut slots = self.slots.borrow();
            let Some(slot) = slots.iter_mut().find(|s| s.0 == id) else {
                return;
            };
            slot.1 = Some(payload);
        }
        self.callers.notify_one(id, ctl, at.since(ctl.now()));
    }

    /// Take the reply for call `id` if it has arrived, removing the slot.
    fn take(&self, id: u64) -> Option<RpcPayload> {
        let mut slots = self.slots.borrow();
        let at = slots.iter().position(|s| s.0 == id && s.1.is_some())?;
        slots.swap_remove(at).1
    }
}

/// Downcast an RPC payload to a concrete type, panicking with a useful
/// message if the service and caller disagree on the type.
pub fn downcast<T: Any>(payload: RpcPayload, what: &str) -> T {
    *payload
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("RPC payload for {what} has an unexpected type"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_class_accounts_bytes() {
        assert_eq!(RpcClass::Minimal.accounted_bytes(), 16);
        assert_eq!(RpcClass::Control.accounted_bytes(), CONTROL_MESSAGE_BYTES);
        assert_eq!(
            RpcClass::Data(4096).accounted_bytes(),
            4096 + CONTROL_MESSAGE_BYTES
        );
    }

    #[test]
    fn reply_constructors_set_class() {
        assert_eq!(RpcReply::control(1u32).class, RpcClass::Control);
        assert_eq!(RpcReply::minimal(()).class, RpcClass::Minimal);
    }

    /// A caller waits on its call id; the reply deposited at 5us for 8us
    /// wakes it at 8us with the value, and its slot is gone afterwards. A
    /// reply to a call nobody made is dropped.
    #[test]
    fn reply_table_roundtrip() {
        use dsmpm2_sim::Engine;
        let mut engine = Engine::new();
        let table = Arc::new(ReplyTable::new());
        let got = Arc::new(std::sync::Mutex::new(None));
        let (caller, g) = (Arc::clone(&table), Arc::clone(&got));
        engine.spawn("caller", move |sim| {
            caller.open(1);
            let reply = caller.wait(1, sim);
            *g.lock().unwrap() = Some((downcast::<u32>(reply, "test"), sim.now()));
        });
        let replier = Arc::clone(&table);
        engine.ctl().call_at(SimTime::from_micros(5), move |ctl| {
            replier.fulfill(99, Box::new(()), ctl, ctl.now());
            replier.fulfill(1, Box::new(42u32), ctl, SimTime::from_micros(8));
        });
        engine.run().unwrap();
        assert_eq!(*got.lock().unwrap(), Some((42, SimTime::from_micros(8))));
        assert!(table.take(1).is_none(), "the slot went with the reply");
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn downcast_mismatch_panics() {
        let p: RpcPayload = Box::new("hello");
        let _: u64 = downcast(p, "mismatch test");
    }
}
