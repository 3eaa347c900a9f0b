//! The simulated PM2 cluster: nodes, service registry, the dispatch that
//! turns an arriving message into a handler or a wake-up, and the
//! blocking/one-way RPC primitives.
//!
//! There is no dispatcher thread. A node's dispatcher is serial — it
//! demultiplexes one message at a time, each costing
//! [`RPC_DISPATCH`] plus the handler thread's creation — and
//! that is all it does, so when each message leaves it is a function of the
//! arrival times alone: `start = max(arrival, dispatcher free)`,
//! `done = start + cost`. [`Pm2Cluster::dispatch`] computes exactly that in
//! the envelope's arrival event and starts the handler (or wakes the caller
//! a reply is for) at `done`.
//!
//! Nothing here takes a lock: callers run in slices, dispatch in arrival
//! events, registration and reporting on the host thread outside the run, and
//! the engine's hand-off orders them all, so the cluster's mutable state sits
//! in [`SliceCell`]s. Each borrow ends before a service's code runs — a
//! handler may call straight back into the cluster.

use std::sync::Arc;

use dsmpm2_madeleine::{Envelope, Network, NetworkModel, NodeId, Topology};
use dsmpm2_sim::{Engine, EngineCtl, SimDuration, SimHandle, SimTime, SliceCell, SliceRc};

use crate::config::{Pm2Config, RPC_DISPATCH, THREAD_CREATE};
use crate::context::{Pm2Context, Pm2ThreadState};
use crate::rpc::{
    ReplyTable, RpcClass, RpcMessage, RpcPayload, RpcRequestCtx, RpcService, ServiceId, ServiceKey,
    ServiceStats,
};

/// Everything the send, dispatch and handle paths need of one registered
/// service, built once at registration.
struct ServiceEntry {
    service: Arc<dyn RpcService>,
    /// What one request of this service occupies the node's dispatcher for:
    /// the dispatch itself, plus the thread creation iff `spawn_thread()`.
    dispatch_cost: SimDuration,
    /// What this registration's requests did, for [`Pm2Cluster::rpc_report`].
    stats: SliceCell<ServiceStats>,
    /// Name of this service's handler threads on each node
    /// (`rpc-<svc>@N<k>`).
    thread_names: Vec<SliceRc<str>>,
}

/// What the RPC layer keeps per cluster besides the replies it waits for.
struct RpcState {
    /// Registered services, in registration order: a [`ServiceId`] is an
    /// index.
    services: Vec<SliceRc<ServiceEntry>>,
    /// Correlation id of the next request.
    next_rpc_id: u64,
}

impl RpcState {
    /// The id `name` was registered under. A scan: a cluster has a handful
    /// of services, and their names are short.
    fn id_of(&self, name: &str) -> Option<ServiceId> {
        let at = self.services.iter().position(|e| e.service.name() == name);
        at.map(|at| ServiceId(at as u32))
    }

    fn fresh_rpc_id(&mut self) -> u64 {
        let id = self.next_rpc_id;
        self.next_rpc_id += 1;
        id
    }
}

/// The delivery delays that do not depend on a message's size, evaluated
/// once from the network's model when the cluster is built.
struct FixedDelays {
    /// A loopback message, or a [`RpcClass::Minimal`] one: half the model's
    /// minimal RPC latency.
    minimal: SimDuration,
    /// A [`RpcClass::Control`] message between two nodes.
    control: SimDuration,
}

impl FixedDelays {
    fn of(model: &NetworkModel) -> Self {
        FixedDelays {
            minimal: SimDuration::from_micros_f64(model.rpc_min_latency_us / 2.0),
            control: model.control_time(),
        }
    }
}

struct ClusterInner {
    config: Pm2Config,
    network: Network<RpcMessage>,
    delays: FixedDelays,
    rpc: SliceCell<RpcState>,
    replies: ReplyTable,
    ctl: EngineCtl,
    app_threads: SliceCell<Vec<Arc<Pm2ThreadState>>>,
    /// Virtual time at which each node's (single) CPU becomes free again.
    /// Models the 450 MHz uniprocessor nodes of the paper's testbed: compute
    /// submitted through `Pm2Context::compute_shared` serializes per node.
    cpu_free: SliceCell<Vec<SimTime>>,
    /// Virtual time at which each node's RPC dispatcher has demultiplexed
    /// everything that arrived so far. Touched only by the node's arrival
    /// events, which all run on the node's shard.
    dispatch_free: SliceCell<Vec<SimTime>>,
}

/// Reserve `duration` on `node`'s serial resource, busy until `free[node]`,
/// starting no earlier than `not_before`. Returns the reservation's end.
fn reserve(
    free: &SliceCell<Vec<SimTime>>,
    node: NodeId,
    not_before: SimTime,
    duration: SimDuration,
) -> SimTime {
    let free = &mut free.borrow()[node.index()];
    *free = (*free).max(not_before) + duration;
    *free
}

/// Handle on a simulated PM2 cluster. Cheap to clone — one plain count (a
/// [`SliceRc`]) — and all clones refer to the same cluster.
pub struct Pm2Cluster {
    inner: SliceRc<ClusterInner>,
}

impl Clone for Pm2Cluster {
    fn clone(&self) -> Self {
        Pm2Cluster {
            inner: SliceRc::clone(&self.inner),
        }
    }
}

impl Pm2Cluster {
    /// Boot a cluster on `engine`: builds the network, whose delivery
    /// callback makes every arriving envelope an RPC dispatch on its
    /// destination node.
    pub fn new(engine: &Engine, config: Pm2Config) -> Self {
        let nodes = config.num_nodes;
        let per_node = || SliceCell::new(vec![SimTime::ZERO; nodes]);
        let inner = SliceRc::new_cyclic(|cluster| {
            // Weak: the network is part of the cluster it dispatches for. An
            // envelope that lands after the cluster is gone is dropped.
            let cluster = cluster.clone();
            let network = Network::with_delivery(
                engine.ctl(),
                config.network.clone(),
                Topology::flat(nodes),
                config.transport,
                Arc::new(move |ctl: &EngineCtl, env| {
                    if let Some(inner) = cluster.upgrade() {
                        Pm2Cluster { inner }.dispatch(ctl, env);
                    }
                }),
            );
            ClusterInner {
                delays: FixedDelays::of(network.model()),
                network,
                rpc: SliceCell::new(RpcState {
                    services: Vec::new(),
                    next_rpc_id: 1,
                }),
                replies: ReplyTable::new(),
                ctl: engine.ctl(),
                app_threads: SliceCell::default(),
                cpu_free: per_node(),
                dispatch_free: per_node(),
                config,
            }
        });
        Pm2Cluster { inner }
    }

    /// Cluster configuration.
    pub fn config(&self) -> &Pm2Config {
        &self.inner.config
    }

    /// Cluster topology.
    pub fn topology(&self) -> &Topology {
        self.inner.network.topology()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topology().num_nodes
    }

    /// The underlying network (model, statistics, raw sends).
    pub fn network(&self) -> &Network<RpcMessage> {
        &self.inner.network
    }

    /// Engine controller, for layers that need to schedule wake-ups.
    pub fn ctl(&self) -> &EngineCtl {
        &self.inner.ctl
    }

    /// Register a service under its name on every node and return the dense
    /// id requests carry instead of the name. Registering the same name twice
    /// replaces the previous handler under the same id (useful in tests).
    pub fn register_service(&self, service: Arc<dyn RpcService>) -> ServiceId {
        let name = service.name();
        let mut dispatch_cost = RPC_DISPATCH;
        if service.spawn_thread() {
            dispatch_cost += THREAD_CREATE;
        }
        let entry = SliceRc::new(ServiceEntry {
            dispatch_cost,
            stats: SliceCell::default(),
            thread_names: self
                .topology()
                .nodes()
                .map(|node| format!("rpc-{name}@{node}").into())
                .collect(),
            service: Arc::clone(&service),
        });
        let mut rpc = self.inner.rpc.borrow();
        match rpc.id_of(name) {
            Some(id) => {
                rpc.services[id.0 as usize] = entry;
                id
            }
            None => {
                rpc.services.push(entry);
                ServiceId(rpc.services.len() as u32 - 1)
            }
        }
    }

    /// The id `name` was registered under, if it was.
    pub fn service_id(&self, name: &str) -> Option<ServiceId> {
        self.inner.rpc.borrow().id_of(name)
    }

    /// What each registered service did so far, in registration order: the
    /// post-mortem report of the RPC layer. A service registered again
    /// counts from its last registration.
    pub fn rpc_report(&self) -> Vec<(String, ServiceStats)> {
        let rpc = self.inner.rpc.borrow();
        rpc.services
            .iter()
            .map(|e| (e.service.name().to_string(), *e.stats.borrow()))
            .collect()
    }

    fn message_delay(&self, from: NodeId, to: NodeId, class: RpcClass) -> SimDuration {
        let delays = &self.inner.delays;
        if from == to {
            return delays.minimal;
        }
        match class {
            RpcClass::Minimal => delays.minimal,
            RpcClass::Control => delays.control,
            RpcClass::Data(bytes) => self.inner.network.model().message_time(bytes),
        }
    }

    /// Blocking RPC: send `payload` to `service` (a [`ServiceId`] or a name)
    /// on node `to` and wait for the reply (in virtual time). `from` is the
    /// calling thread's current node.
    pub fn rpc_call(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        service: impl ServiceKey,
        payload: RpcPayload,
        class: RpcClass,
    ) -> RpcPayload {
        let service = service.resolve(self);
        let start = sim.now();
        let id = self.inner.rpc.borrow().fresh_rpc_id();
        self.inner.replies.open(id);
        let delay = self.message_delay(from, to, class);
        self.inner.network.send_with_delay(
            sim,
            from,
            to,
            RpcMessage::Request {
                id,
                service,
                needs_reply: true,
                payload,
            },
            class.accounted_bytes(),
            delay,
        );
        let reply = self.inner.replies.wait(id, sim);
        let elapsed = sim.now().since(start);
        self.inner.rpc.borrow().services[service.0 as usize]
            .stats
            .borrow()
            .calls
            .record(elapsed);
        reply
    }

    /// Build the wire message and base delivery delay shared by the one-way
    /// RPC flavours, and count the send in the service's statistics.
    fn oneway_parts(
        &self,
        from: NodeId,
        to: NodeId,
        service: ServiceId,
        payload: RpcPayload,
        class: RpcClass,
    ) -> (RpcMessage, SimDuration) {
        let id = {
            let mut rpc = self.inner.rpc.borrow();
            rpc.services[service.0 as usize].stats.borrow().oneways += 1;
            rpc.fresh_rpc_id()
        };
        (
            RpcMessage::Request {
                id,
                service,
                needs_reply: false,
                payload,
            },
            self.message_delay(from, to, class),
        )
    }

    /// One-way RPC: send `payload` to `service` (a [`ServiceId`] or a name) on
    /// node `to` without waiting.
    pub fn rpc_oneway(
        &self,
        sim: &mut SimHandle,
        from: NodeId,
        to: NodeId,
        service: impl ServiceKey,
        payload: RpcPayload,
        class: RpcClass,
    ) {
        let service = service.resolve(self);
        let (msg, delay) = self.oneway_parts(from, to, service, payload, class);
        self.inner
            .network
            .send_with_delay(sim, from, to, msg, class.accounted_bytes(), delay);
    }

    /// One-way RPC issued from a scheduler callback rather than a simulated
    /// thread (the DSM message batcher flushes its per-tick outbox this way).
    /// Semantics match [`Pm2Cluster::rpc_oneway`], timed from the global
    /// clock but never departing before `not_before` — the logical send time
    /// of a parked message, which may lie ahead of the global clock when the
    /// sending thread carried uncommitted local compute. `messages` is the
    /// number of logical messages the envelope carries (a batched coherence
    /// envelope carries several), fed to the wire-level accounting.
    #[allow(clippy::too_many_arguments)]
    pub fn rpc_oneway_from_ctl(
        &self,
        ctl: &EngineCtl,
        from: NodeId,
        to: NodeId,
        service: impl ServiceKey,
        payload: RpcPayload,
        class: RpcClass,
        messages: u32,
        not_before: SimTime,
    ) {
        let service = service.resolve(self);
        let (msg, mut delay) = self.oneway_parts(from, to, service, payload, class);
        let now = ctl.now();
        if not_before > now {
            delay += not_before - now;
        }
        self.inner.network.send_with_delay_from_ctl(
            ctl,
            from,
            to,
            msg,
            class.accounted_bytes(),
            messages,
            delay,
        );
    }

    /// The RPC dispatch, run by the network in the arrival event of every
    /// envelope, on the destination node's shard. It occupies the node's
    /// serial dispatcher for the message's cost and, at the instant the
    /// dispatcher lets the message go, wakes the caller (a reply) or starts
    /// the handler (a request): in a thread of its own, or — for a one-way
    /// request its service vouches cannot block — in one scheduler call at
    /// that same instant, with no thread.
    ///
    /// Consumes the handle the delivery callback made for it: a handler
    /// thread takes that one with it instead of a clone.
    fn dispatch(self, ctl: &EngineCtl, env: Envelope<RpcMessage>) {
        let (node, from) = (env.to, env.from);
        let dispatcher = &self.inner.dispatch_free;
        let shard = node.index() as u64;
        match env.msg {
            RpcMessage::Reply { id, payload } => {
                let at = reserve(dispatcher, node, ctl.now(), RPC_DISPATCH);
                self.inner.replies.fulfill(id, payload, ctl, at);
            }
            RpcMessage::Request {
                id,
                service,
                needs_reply,
                payload,
            } => {
                // The one count a request costs: the service's code runs
                // outside any borrow of the table, and outlives this event.
                let entry = SliceRc::clone(&self.inner.rpc.borrow().services[service.0 as usize]);
                let at = reserve(dispatcher, node, ctl.now(), entry.dispatch_cost);
                if !needs_reply && entry.service.is_nonblocking(&payload) {
                    ctl.call_at_on(shard, at, move |ctl| {
                        entry.service.handle_nonblocking(ctl, node, from, payload);
                        entry.stats.borrow().handled.record(SimDuration::ZERO);
                    });
                } else {
                    let name = SliceRc::clone(&entry.thread_names[node.index()]);
                    ctl.spawn_on_at(shard, name, at, move |sim| {
                        self.run_handler(sim, &entry, node, from, id, needs_reply, payload);
                    });
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_handler(
        &self,
        sim: &mut SimHandle,
        entry: &ServiceEntry,
        local_node: NodeId,
        from_node: NodeId,
        id: u64,
        needs_reply: bool,
        payload: RpcPayload,
    ) {
        let start = sim.now();
        let reply = {
            let mut ctx = RpcRequestCtx {
                sim,
                cluster: self,
                local_node,
                from_node,
            };
            entry.service.handle(&mut ctx, payload)
        };
        entry.stats.borrow().handled.record(sim.now().since(start));
        if needs_reply {
            let reply = reply.unwrap_or_else(|| {
                panic!(
                    "service '{}' did not produce a reply for a blocking call",
                    entry.service.name()
                )
            });
            let delay = self.message_delay(local_node, from_node, reply.class);
            self.inner.network.send_with_delay(
                sim,
                local_node,
                from_node,
                RpcMessage::Reply {
                    id,
                    payload: reply.payload,
                },
                reply.class.accounted_bytes(),
                delay,
            );
        }
    }

    /// Spawn an application thread on `node`. The closure receives a
    /// [`Pm2Context`] giving access to the cluster, the thread's current
    /// location, migration, and the virtual clock.
    pub fn spawn_thread_on<F>(
        &self,
        node: NodeId,
        name: impl Into<String>,
        f: F,
    ) -> Arc<Pm2ThreadState>
    where
        F: FnOnce(&mut Pm2Context<'_>) + Send + 'static,
    {
        assert!(
            self.topology().contains(node),
            "cannot spawn a thread on unknown node {node}"
        );
        let name = name.into();
        let state = Arc::new(Pm2ThreadState::new(name.clone(), node));
        self.inner.app_threads.borrow().push(Arc::clone(&state));
        let cluster = self.clone();
        let thread_state = Arc::clone(&state);
        self.inner
            .ctl
            .spawn_on(node.index() as u64, name, move |sim| {
                let mut ctx = Pm2Context::new(sim, cluster, thread_state);
                f(&mut ctx);
                ctx.mark_finished();
            });
        state
    }

    /// States of every application thread spawned so far.
    pub fn app_threads(&self) -> Vec<Arc<Pm2ThreadState>> {
        self.inner.app_threads.borrow().clone()
    }

    /// Reserve `duration` of CPU time on `node`'s single processor, starting
    /// no earlier than `not_before`. Returns the reservation's end time.
    /// Threads computing on the same node therefore serialize, which is what
    /// makes a node "overloaded" when many threads migrate to it.
    pub fn reserve_cpu(&self, node: NodeId, not_before: SimTime, duration: SimDuration) -> SimTime {
        reserve(&self.inner.cpu_free, node, not_before, duration)
    }
}

impl std::fmt::Debug for Pm2Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pm2Cluster({} nodes, {})",
            self.num_nodes(),
            self.config().network.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{downcast, service_fn, OpStat, RpcReply};
    use dsmpm2_madeleine::profiles;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
    use std::sync::Mutex;

    fn cluster(engine: &Engine, nodes: usize) -> Pm2Cluster {
        Pm2Cluster::new(engine, Pm2Config::bip_myrinet(nodes))
    }

    #[test]
    fn blocking_rpc_roundtrip_returns_reply() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        c.register_service(service_fn("double", true, |ctx, payload| {
            let x: u64 = downcast(payload, "double arg");
            ctx.sim.charge(SimDuration::from_micros(2));
            Some(RpcReply::control(x * 2))
        }));
        let result = Arc::new(StdAtomicU64::new(0));
        let r = result.clone();
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let reply = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "double",
                Box::new(21u64),
                RpcClass::Control,
            );
            r.store(downcast::<u64>(reply, "double reply"), Ordering::SeqCst);
        });
        engine.run().unwrap();
        assert_eq!(result.load(Ordering::SeqCst), 42);
        // The call waits for the request and the reply on the wire, the
        // request's dispatch and handler thread, the handler's 2us and the
        // reply's dispatch; the handler for its 2us alone.
        let charge = SimDuration::from_micros(2);
        let call =
            profiles::bip_myrinet().control_time() * 2 + RPC_DISPATCH * 2 + THREAD_CREATE + charge;
        assert_eq!(call, SimDuration::from_nanos(52_996));
        let once = |elapsed| OpStat {
            count: 1,
            total: elapsed,
            max: elapsed,
        };
        assert_eq!(
            c.rpc_report(),
            [(
                "double".to_string(),
                ServiceStats {
                    calls: once(call),
                    oneways: 0,
                    handled: once(charge),
                }
            )]
        );
    }

    #[test]
    fn rpc_roundtrip_takes_at_least_two_control_messages() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        c.register_service(service_fn("echo", false, |_ctx, payload| {
            Some(RpcReply::control(downcast::<u32>(payload, "echo")))
        }));
        let elapsed = Arc::new(StdAtomicU64::new(0));
        let e = elapsed.clone();
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let start = h.now();
            let _ = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "echo",
                Box::new(7u32),
                RpcClass::Control,
            );
            e.store(h.now().since(start).as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        let two_control = profiles::bip_myrinet().control_time() * 2;
        assert!(elapsed.load(Ordering::SeqCst) >= two_control.as_nanos());
    }

    #[test]
    fn minimal_rpc_matches_paper_latency() {
        let mut engine = Engine::new();
        let c = Pm2Cluster::new(&engine, Pm2Config::sisci_sci(2));
        c.register_service(service_fn("null", false, |_ctx, _payload| {
            Some(RpcReply::minimal(()))
        }));
        let elapsed = Arc::new(StdAtomicU64::new(0));
        let e = elapsed.clone();
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let start = h.now();
            let _ = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "null",
                Box::new(()),
                RpcClass::Minimal,
            );
            e.store(h.now().since(start).as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        let us = elapsed.load(Ordering::SeqCst) as f64 / 1000.0;
        // Paper §2.1: 6us minimal RPC latency on SISCI/SCI. Allow the small
        // dispatch overhead on top.
        assert!((6.0..12.0).contains(&us), "null RPC took {us}us");
    }

    #[test]
    fn oneway_rpc_executes_without_reply() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        let hits = Arc::new(StdAtomicU64::new(0));
        let hits_in_service = hits.clone();
        c.register_service(service_fn("notify", true, move |_ctx, _payload| {
            hits_in_service.fetch_add(1, Ordering::SeqCst);
            None
        }));
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            c2.rpc_oneway(
                h,
                NodeId(0),
                NodeId(1),
                "notify",
                Box::new(()),
                RpcClass::Control,
            );
            c2.rpc_oneway(
                h,
                NodeId(0),
                NodeId(1),
                "notify",
                Box::new(()),
                RpcClass::Control,
            );
        });
        engine.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_requests_are_served_in_parallel() {
        // Two callers issue requests to the same node at the same time; each
        // handler sleeps 100us. With per-request handler threads the total
        // time is ~one round trip + 100us, not 2x100us serialized.
        let mut engine = Engine::new();
        let c = cluster(&engine, 3);
        c.register_service(service_fn("slow", true, |ctx, _payload| {
            ctx.sim.sleep(SimDuration::from_micros(100));
            Some(RpcReply::control(()))
        }));
        let finish = Arc::new(Mutex::new(Vec::new()));
        for src in [0usize, 2] {
            let c2 = c.clone();
            let f = finish.clone();
            engine.spawn(format!("caller{src}"), move |h| {
                let _ = c2.rpc_call(
                    h,
                    NodeId(src),
                    NodeId(1),
                    "slow",
                    Box::new(()),
                    RpcClass::Control,
                );
                f.lock().unwrap().push(h.now());
            });
        }
        engine.run().unwrap();
        let finish = finish.lock().unwrap();
        let latest = finish.iter().max().unwrap();
        let serial_bound = profiles::bip_myrinet().control_time() * 2
            + SimDuration::from_micros(200)
            + SimDuration::from_micros(20);
        assert!(
            *latest < dsmpm2_sim::SimTime::ZERO + serial_bound,
            "requests were serialized: finished at {latest}"
        );
    }

    /// A one-way service that logs when each request's handler starts.
    fn mark_service(log: &Arc<Mutex<Vec<(u32, SimTime)>>>) -> Arc<dyn RpcService> {
        let log = log.clone();
        service_fn("mark", true, move |ctx, payload| {
            log.lock()
                .unwrap()
                .push((downcast::<u32>(payload, "mark"), ctx.sim.now()));
            None
        })
    }

    fn micros(us: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros_f64(us)
    }

    /// The node's dispatcher is serial: a request arriving while an earlier
    /// one still occupies it waits for the rest of that dispatch — also when
    /// it was sent *after* the dispatcher took the earlier one, which a
    /// dispatcher thread woken early by the second arrival got wrong.
    #[test]
    fn dispatcher_is_serial_for_requests() {
        let mut engine = Engine::new();
        // SISCI/SCI: a minimal or loop-back message takes 3us, less than the
        // 4us (dispatch + thread creation) one request occupies the
        // dispatcher for.
        let c = Pm2Cluster::new(&engine, Pm2Config::sisci_sci(2));
        let starts = Arc::new(Mutex::new(Vec::new()));
        c.register_service(mark_service(&starts));
        let remote = c.clone();
        engine.spawn("remote", move |h| {
            // Arrives at node 1 at T = 3us.
            remote.rpc_oneway(
                h,
                NodeId(0),
                NodeId(1),
                "mark",
                Box::new(1u32),
                RpcClass::Minimal,
            );
        });
        let local = c.clone();
        engine.spawn_on(1, "local", move |h| {
            // Sent at T + 0.5us, arrives at T + 3.5us.
            h.sleep(SimDuration::from_micros_f64(3.5));
            local.rpc_oneway(
                h,
                NodeId(1),
                NodeId(1),
                "mark",
                Box::new(2u32),
                RpcClass::Control,
            );
        });
        engine.run().unwrap();
        // T + 4, then max(T + 3.5, T + 4) + 4 — not T + 7.5.
        assert_eq!(
            *starts.lock().unwrap(),
            vec![(1, micros(7.0)), (2, micros(11.0))]
        );
    }

    /// The same for a reply: arriving while the dispatcher is busy, it wakes
    /// its caller at `max(arrival, dispatcher free) + rpc_dispatch`.
    #[test]
    fn dispatcher_is_serial_for_replies() {
        let mut engine = Engine::new();
        let c = Pm2Cluster::new(&engine, Pm2Config::sisci_sci(2));
        c.register_service(mark_service(&Arc::new(Mutex::new(Vec::new()))));
        c.register_service(service_fn("echo", true, |_ctx, _payload| {
            Some(RpcReply::minimal(()))
        }));
        let returned = Arc::new(Mutex::new(SimTime::ZERO));
        let r = returned.clone();
        let caller = c.clone();
        engine.spawn_on(0, "caller", move |h| {
            // The request reaches node 1 at 3us and its handler starts at
            // 7us; the reply leaves then and reaches node 0 at 10us.
            let _ = caller.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "echo",
                Box::new(()),
                RpcClass::Minimal,
            );
            *r.lock().unwrap() = h.now();
        });
        let local = c.clone();
        engine.spawn_on(0, "local", move |h| {
            // A loop-back request at node 0 at 6.5us — taken by the
            // dispatcher before the reply is sent — keeps it busy until
            // 10.5us.
            h.sleep(SimDuration::from_micros_f64(3.5));
            local.rpc_oneway(
                h,
                NodeId(0),
                NodeId(0),
                "mark",
                Box::new(0u32),
                RpcClass::Control,
            );
        });
        engine.run().unwrap();
        // max(10, 10.5) + 1 — not 10 + 1.
        assert_eq!(*returned.lock().unwrap(), micros(11.5));
    }

    /// A service with a switch: whether its one-way requests are served in a
    /// thread or, declared non-blocking, in the scheduler call that would
    /// have started it. Either way it logs when and in which order it ran.
    struct Probe {
        nonblocking: bool,
        log: Arc<Mutex<Vec<(&'static str, SimTime)>>>,
    }

    impl RpcService for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn handle(&self, ctx: &mut RpcRequestCtx<'_>, _payload: RpcPayload) -> Option<RpcReply> {
            self.log.lock().unwrap().push(("handler", ctx.sim.now()));
            None
        }
        fn is_nonblocking(&self, _payload: &RpcPayload) -> bool {
            self.nonblocking
        }
        fn handle_nonblocking(&self, ctl: &EngineCtl, _: NodeId, _: NodeId, _: RpcPayload) {
            self.log.lock().unwrap().push(("handler", ctl.now()));
        }
    }

    /// Serving a request without a thread changes nothing but the thread: the
    /// handler sees the same clock and keeps its place among the events of
    /// its instant, those scheduled before its request arrived and those
    /// scheduled after.
    #[test]
    fn threadless_serving_changes_nothing_but_the_thread() {
        const REQUESTS: u64 = 3;
        let period = SimDuration::from_micros(100);
        let run = |nonblocking: bool| {
            let mut engine = Engine::new();
            let c = cluster(&engine, 2);
            let log = Arc::new(Mutex::new(Vec::new()));
            c.register_service(Arc::new(Probe {
                nonblocking,
                log: log.clone(),
            }));
            let arrival = profiles::bip_myrinet().control_time();
            let dispatch = RPC_DISPATCH + THREAD_CREATE;
            for i in 0..REQUESTS {
                let l = log.clone();
                engine.ctl().call_at_on(
                    1,
                    SimTime::ZERO + period * i + arrival + dispatch,
                    move |ctl| {
                        l.lock().unwrap().push(("scheduled-before", ctl.now()));
                    },
                );
            }
            let caller = c.clone();
            engine.spawn_on(0, "caller", move |h| {
                for _ in 0..REQUESTS {
                    caller.rpc_oneway(
                        h,
                        NodeId(0),
                        NodeId(1),
                        "probe",
                        Box::new(()),
                        RpcClass::Control,
                    );
                    h.sleep(period);
                }
            });
            let l = log.clone();
            engine.spawn_on(1, "competitor", move |h| {
                // One microsecond into each dispatch, schedule an event for
                // the instant it ends.
                h.sleep(arrival + SimDuration::from_micros(1));
                for _ in 0..REQUESTS {
                    let l = l.clone();
                    h.call_after_on(1, dispatch - SimDuration::from_micros(1), move |ctl| {
                        l.lock().unwrap().push(("scheduled-after", ctl.now()));
                    });
                    h.sleep(period);
                }
            });
            let report = engine.run().unwrap();
            assert_eq!(c.rpc_report()[0].1.handled.count, REQUESTS);
            let log = log.lock().unwrap().clone();
            (log, report)
        };
        let (threaded, with_threads) = run(false);
        let (threadless, without) = run(true);
        assert_eq!(threaded, threadless);
        assert_eq!(threaded.len() as u64, 3 * REQUESTS);
        for instant in threaded.chunks(3) {
            let labels: Vec<_> = instant.iter().map(|(label, _)| *label).collect();
            assert_eq!(labels, ["scheduled-before", "handler", "scheduled-after"]);
            assert!(instant.iter().all(|(_, at)| *at == instant[0].1));
        }
        assert_eq!(with_threads.final_time, without.final_time);
        assert_eq!(with_threads.events, without.events);
        assert_eq!(
            with_threads.threads_spawned,
            without.threads_spawned + REQUESTS
        );
    }

    /// The three size-independent delays, evaluated once when the cluster is
    /// built, are bit-identical to the model's per-send expressions under
    /// every profile: loopback and `Minimal` are half the minimal RPC
    /// latency, `Control` is the model's control-message time. `Data` is
    /// still timed per send.
    #[test]
    fn fixed_delays_match_the_model_per_send() {
        for model in profiles::all() {
            let engine = Engine::new();
            let c = Pm2Cluster::new(&engine, Pm2Config::new(2, model.clone()));
            let half_min = SimDuration::from_micros_f64(model.rpc_min_latency_us / 2.0);
            let (a, b) = (NodeId(0), NodeId(1));
            for class in [RpcClass::Minimal, RpcClass::Control, RpcClass::Data(4096)] {
                assert_eq!(c.message_delay(a, a, class), half_min, "{}", model.name);
            }
            assert_eq!(c.message_delay(a, b, RpcClass::Minimal), half_min);
            assert_eq!(
                c.message_delay(a, b, RpcClass::Control),
                model.control_time()
            );
            assert_eq!(
                c.message_delay(a, b, RpcClass::Data(4096)),
                model.message_time(4096)
            );
        }
    }

    /// The per-message counters are plain words bumped without an atomic, by
    /// senders, arrival events and handlers that — on the baton lane — run on
    /// different OS threads. A bump lost between two of them shows only in
    /// the totals the host reads after the run: 4 nodes x 10 000 one-way
    /// requests over one network, every counter against a literal read at
    /// the commit where they were atomics.
    #[test]
    fn counters_read_after_the_run_are_exact() {
        const NODES: usize = 4;
        const REQUESTS: u64 = 10_000;
        let mut engine = Engine::new();
        let c = cluster(&engine, NODES);
        let served = Arc::new(StdAtomicU64::new(0));
        let s = served.clone();
        let tick = c.register_service(service_fn("tick", true, move |ctx, _payload| {
            ctx.sim.charge(SimDuration::from_micros(2));
            s.fetch_add(1, Ordering::Relaxed);
            None
        }));
        for me in 0..NODES {
            c.spawn_thread_on(NodeId(me), format!("sender{me}"), move |ctx| {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (me as u64 + 1);
                for i in 0..REQUESTS {
                    let to = NodeId((me + 1 + i as usize % (NODES - 1)) % NODES);
                    // A page now and then: the control message behind it
                    // on the same link is stretched by the FIFO guarantee.
                    let class = if i % 5 == 0 {
                        RpcClass::Data(4096)
                    } else {
                        RpcClass::Control
                    };
                    ctx.rpc_oneway(to, tick, Box::new(()), class);
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    // Slower than the receiving dispatchers serve, so that
                    // handler threads do not pile up waiting to start.
                    ctx.compute(SimDuration::from_micros(5));
                    match rng % 8 {
                        0 => ctx.sim.yield_now(),
                        1 => ctx.sim.sleep(SimDuration::from_nanos(rng % 3_000 + 1)),
                        _ => {}
                    }
                }
            });
        }
        let report = engine.run().unwrap();
        let total = NODES as u64 * REQUESTS;
        assert_eq!(served.load(Ordering::Relaxed), total);

        let net = c.network().stats();
        assert_eq!((net.messages(), net.bytes()), (total, 35_328_000));
        assert_eq!(
            c.network().wire_stats(),
            dsmpm2_madeleine::WireStatsSnapshot {
                fifo_stall_ns: 2_377_899_824,
                envelopes: total,
                envelope_bytes: 35_328_000,
                messages: total,
                ..Default::default()
            }
        );
        let handled = OpStat {
            count: total,
            total: SimDuration::from_micros(80_000),
            max: SimDuration::from_micros(2),
        };
        assert_eq!(
            c.rpc_report(),
            [(
                "tick".to_string(),
                ServiceStats {
                    calls: OpStat::default(),
                    oneways: total,
                    handled,
                }
            )]
        );
        assert_eq!(
            report,
            dsmpm2_sim::RunReport {
                final_time: SimTime::from_nanos(52_078_850),
                events: 90_155,
                context_switches: 50_155,
                threads_spawned: 40_004,
            }
        );
    }

    /// However a run ends, nothing of it outlives the engine: once the engine
    /// and every cluster handle are dropped, the cluster is freed — the
    /// services, the network and its delivery callback, the handler threads
    /// and the callers blocked on replies included.
    #[test]
    fn nothing_outlives_its_run() {
        let ends = |build: &dyn Fn(&Pm2Cluster), run: bool| {
            let mut engine = Engine::new();
            let c = cluster(&engine, 2);
            let inner = SliceRc::downgrade(&c.inner);
            c.register_service(service_fn("echo", true, |ctx, payload| {
                ctx.sim.charge(SimDuration::from_micros(1));
                Some(RpcReply::control(downcast::<u32>(payload, "echo")))
            }));
            c.register_service(service_fn("hang", true, |ctx, _payload| {
                dsmpm2_sim::WaitSet::new().wait_until(ctx.sim, || false);
                None
            }));
            c.register_service(service_fn("fail", true, |_ctx, _payload| {
                panic!("intentional test panic")
            }));
            build(&c);
            drop(c);
            let result = run.then(|| engine.run());
            drop(engine);
            assert!(inner.upgrade().is_none(), "the cluster outlived its run");
            result
        };
        // A one-way request and a blocking call, from a thread that holds
        // the cluster through its context.
        let call = |c: &Pm2Cluster, service: &'static str| {
            c.spawn_thread_on(NodeId(0), format!("call-{service}"), move |ctx| {
                ctx.rpc_oneway(NodeId(1), service, Box::new(0u32), RpcClass::Control);
                let _ = ctx.rpc_call(NodeId(1), service, Box::new(1u32), RpcClass::Control);
            });
        };

        let completed = ends(&|c| call(c, "echo"), true);
        assert!(matches!(completed, Some(Ok(_))), "{completed:?}");
        let deadlocked = ends(&|c| call(c, "hang"), true);
        assert!(
            matches!(deadlocked, Some(Err(dsmpm2_sim::SimError::Deadlock { .. }))),
            "{deadlocked:?}"
        );
        let panicked = ends(
            &|c| {
                call(c, "hang");
                call(c, "fail");
            },
            true,
        );
        assert!(
            matches!(
                panicked,
                Some(Err(dsmpm2_sim::SimError::ThreadPanic { .. }))
            ),
            "{panicked:?}"
        );
        let never_ran = ends(&|c| call(c, "echo"), false);
        assert!(never_ran.is_none());
        // A one-way request still in flight when its sender, the last holder
        // of the cluster, finishes: it lands on a cluster that is gone and is
        // dropped there, so no handler thread ever starts.
        let landed_late = ends(
            &|c| {
                c.spawn_thread_on(NodeId(0), "oneway", |ctx| {
                    ctx.rpc_oneway(NodeId(1), "echo", Box::new(0u32), RpcClass::Control);
                });
            },
            true,
        );
        assert!(
            matches!(&landed_late, Some(Ok(report)) if report.threads_spawned == 1),
            "{landed_late:?}"
        );
    }

    #[test]
    #[should_panic(expected = "unregistered service")]
    fn calling_unknown_service_panics() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        let c2 = c.clone();
        engine.spawn("caller", move |h| {
            let _ = c2.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "nope",
                Box::new(()),
                RpcClass::Control,
            );
        });
        if let Err(dsmpm2_sim::SimError::ThreadPanic { message, .. }) = engine.run() {
            panic!("{}", message);
        }
    }

    #[test]
    fn app_threads_are_tracked() {
        let mut engine = Engine::new();
        let c = cluster(&engine, 2);
        c.spawn_thread_on(NodeId(1), "app", |ctx| {
            assert_eq!(ctx.node(), NodeId(1));
        });
        engine.run().unwrap();
        assert_eq!(c.app_threads().len(), 1);
        assert!(c.app_threads()[0].finished());
    }
}
