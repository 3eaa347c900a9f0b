//! Message transport between simulated cluster nodes.
//!
//! [`Network`] plays the role of the Madeleine communication library: it
//! gives every node an incoming message queue and lets any simulated thread
//! send a typed message to any node. The *cost* of a transfer comes from the
//! configured [`NetworkModel`]; *when* it is delivered is decided by the
//! pluggable [`crate::Transport`] backend ([`crate::TransportBackend`]):
//! the default `Ideal` backend charges the model's delay at send time
//! (uncontended infinite-capacity links, the historical behaviour), while
//! the `Contended` and `Lossy` backends schedule delivery through NIC
//! queues, retransmission timers and sequence numbers.

use std::sync::{Arc, OnceLock};

use dsmpm2_sim::{channel_on, EngineCtl, SimDuration, SimHandle, SimReceiver, SimSender, SimTime};

use crate::backend::{build_transport, Transport, TransportTuning};
use crate::model::{NetworkModel, CONTROL_MESSAGE_BYTES};
use crate::stats::{NetStats, WireStats, WireStatsSnapshot};
use crate::topology::{NodeId, Topology};

/// A message in flight (or delivered) between two nodes.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Payload size accounted by the cost model, in bytes.
    pub bytes: usize,
    /// Number of logical messages this envelope carries: 1 for plain sends,
    /// more when an upper layer coalesced several messages into one wire
    /// envelope (the DSM per-tick coherence batcher).
    pub messages: u32,
    /// Virtual time at which the message was handed to the network.
    pub sent_at: SimTime,
    /// The message itself.
    pub msg: M,
}

/// A callback invoked with (from, to) before any message is enqueued on that
/// directed link. Layers that *park* messages for later transmission (the
/// DSM per-tick batcher) register one to flush their parked messages first,
/// so that no later message ever overtakes a logically earlier parked one.
pub type PreSendHook = Arc<dyn Fn(NodeId, NodeId) + Send + Sync>;

/// What a [`DeliveryHook`] did with an arriving envelope.
pub enum Delivery<M> {
    /// Not taken: enqueue it on the destination node's incoming queue, for
    /// whoever blocks on [`Network::endpoint`].
    Queue(Envelope<M>),
    /// Taken by the upper layer's dispatch (PM2 turns it into a handler or a
    /// wake-up of the waiting caller).
    Dispatched,
}

/// The delivery hook: runs at the envelope's arrival instant, on the
/// destination node's scheduler shard, and says what became of the envelope
/// (see [`Delivery`]). Installed on the whole network; when absent, delivery
/// is the direct enqueue on the node's incoming queue.
pub type DeliveryHook<M> = Arc<dyn Fn(&EngineCtl, Envelope<M>) -> Delivery<M> + Send + Sync>;

/// Where a network keeps a hook: read on every send, written once per
/// cluster (once more by a test that replaces it). A replacement hangs off
/// the cell it replaces and a read follows the chain to its end, so the send
/// path takes no lock and counts no reference to reach the hook, and may
/// re-enter itself from inside the hook it is borrowing.
struct HookCell<H> {
    hook: Option<H>,
    replaced_by: OnceLock<Box<HookCell<H>>>,
}

impl<H> HookCell<H> {
    fn new(hook: Option<H>) -> Self {
        HookCell {
            hook,
            replaced_by: OnceLock::new(),
        }
    }

    /// The hook installed last, if any was.
    fn get(&self) -> Option<&H> {
        let mut cell = self;
        while let Some(next) = cell.replaced_by.get() {
            cell = next;
        }
        cell.hook.as_ref()
    }

    fn replace(&self, hook: H) {
        let mut last = Box::new(HookCell::new(Some(hook)));
        let mut cell = self;
        while let Err(unplaced) = cell.replaced_by.set(last) {
            last = unplaced;
            cell = cell.replaced_by.get().expect("occupied: the set failed");
        }
    }
}

/// The destination side of one node's message queue, as seen by transport
/// backends: wraps the raw [`SimSender`] together with the network's
/// delivery hook. Without an installed hook, [`DeliverySink::send_at`] is
/// exactly `SimSender::send_at`; with one, the delivery is one arrival event
/// on the destination shard, in which the hook runs.
pub struct DeliverySink<M> {
    inner: Arc<SinkInner<M>>,
}

struct SinkInner<M> {
    tx: SimSender<Envelope<M>>,
    ctl: EngineCtl,
    shard: u64,
    /// The network's delivery hook, shared by every node's sink.
    hook: Arc<HookCell<DeliveryHook<M>>>,
    wire: Arc<WireStats>,
}

impl<M> Clone for DeliverySink<M> {
    fn clone(&self) -> Self {
        DeliverySink {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Send + 'static> DeliverySink<M> {
    /// Deliver `env` at absolute time `deliver_at`: to the delivery hook at
    /// that instant if one is installed, else into the destination queue.
    pub fn send_at(&self, deliver_at: SimTime, env: Envelope<M>) {
        let sink = &self.inner;
        if sink.hook.get().is_none() {
            return sink.tx.send_at(deliver_at, env);
        }
        // The arrival event owns one reference to the sink, and through it
        // reaches the hook, the queue and the counters.
        let at = Arc::clone(sink);
        sink.ctl.call_at_on(sink.shard, deliver_at, move |ctl| {
            let hook = at.hook.get().expect("a hook is replaced, never removed");
            at.wire.incr_hook_delivered();
            if let Delivery::Queue(env) = hook(ctl, env) {
                at.tx.send_at(ctl.now(), env);
            }
        });
    }
}

struct NetworkInner<M> {
    model: NetworkModel,
    topology: Topology,
    tuning: TransportTuning,
    sinks: Vec<DeliverySink<M>>,
    receivers: Vec<SimReceiver<Envelope<M>>>,
    stats: NetStats,
    /// Network-level wire accounting (envelopes, logical messages, delivery
    /// hook counters); merged into [`Network::wire_stats`] together
    /// with the backend's own counters.
    wire: Arc<WireStats>,
    /// The wire-level backend: owns the per-directed-link state (FIFO
    /// clocks, NIC reservations, retransmission machinery) and decides when
    /// each envelope reaches its destination queue.
    transport: Box<dyn Transport<M>>,
    /// Pre-send link hook (see [`PreSendHook`]).
    pre_send: HookCell<PreSendHook>,
    /// Delivery hook shared by every node's sink.
    delivery_hook: Arc<HookCell<DeliveryHook<M>>>,
}

/// A simulated interconnect connecting every node of the cluster.
pub struct Network<M> {
    inner: Arc<NetworkInner<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Send + 'static> Network<M> {
    /// Build a network for `topology` using the cost model `model` and the
    /// default (`Ideal`) transport backend.
    pub fn new(ctl: EngineCtl, model: NetworkModel, topology: Topology) -> Self {
        Network::with_transport(ctl, model, topology, TransportTuning::default())
    }

    /// Build a network with an explicit transport backend selection.
    pub fn with_transport(
        ctl: EngineCtl,
        model: NetworkModel,
        topology: Topology,
        tuning: TransportTuning,
    ) -> Self {
        let mut sinks = Vec::with_capacity(topology.num_nodes);
        let mut receivers = Vec::with_capacity(topology.num_nodes);
        let delivery_hook: Arc<HookCell<DeliveryHook<M>>> = Arc::new(HookCell::new(None));
        let wire = Arc::new(WireStats::default());
        for node in 0..topology.num_nodes {
            // Each endpoint's delivery callbacks run on the owning node's
            // shard, serialized with the node's dispatcher and handlers.
            let (tx, rx) = channel_on::<Envelope<M>>(ctl.clone(), node as u64);
            sinks.push(DeliverySink {
                inner: Arc::new(SinkInner {
                    tx,
                    ctl: ctl.clone(),
                    shard: node as u64,
                    hook: Arc::clone(&delivery_hook),
                    wire: Arc::clone(&wire),
                }),
            });
            receivers.push(rx);
        }
        let transport = build_transport::<M>(ctl, &model, &topology, tuning);
        let stats = NetStats::new(topology.num_nodes);
        Network {
            inner: Arc::new(NetworkInner {
                model,
                topology,
                tuning,
                sinks,
                receivers,
                stats,
                wire,
                transport,
                pre_send: HookCell::new(None),
                delivery_hook,
            }),
        }
    }

    /// The cost model in use.
    pub fn model(&self) -> &NetworkModel {
        &self.inner.model
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The transport tuning this network was built with.
    pub fn transport_tuning(&self) -> TransportTuning {
        self.inner.tuning
    }

    /// Communication statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Wire-level statistics: the transport backend's counters (NIC stalls,
    /// drops, retransmissions, duplicates) merged with the network-level
    /// envelope/message accounting and delivery-hook counters.
    pub fn wire_stats(&self) -> WireStatsSnapshot {
        let mut snap = self.inner.transport.wire_stats();
        let net = self.inner.wire.snapshot();
        snap.envelopes = net.envelopes;
        snap.envelope_bytes = net.envelope_bytes;
        snap.messages = net.messages;
        snap.message_bytes = net.message_bytes;
        snap.hook_delivered = net.hook_delivered;
        snap
    }

    /// The incoming message queue of `node`. Dispatcher threads hold a clone
    /// of this receiver and block on it.
    pub fn endpoint(&self, node: NodeId) -> SimReceiver<Envelope<M>> {
        self.inner.receivers[node.index()].clone()
    }

    /// Register the pre-send link hook (replacing any previous one). The
    /// hook runs before every enqueue on a directed link — including sends
    /// the hook itself triggers, so it must be re-entrant (draining parked
    /// state makes the nested invocation a no-op).
    pub fn set_pre_send_hook(&self, hook: PreSendHook) {
        self.inner.pre_send.replace(hook);
    }

    fn run_pre_send_hook(&self, from: NodeId, to: NodeId) {
        if let Some(hook) = self.inner.pre_send.get() {
            hook(from, to);
        }
    }

    /// Install the delivery hook (replacing any previous one). It runs at
    /// every envelope's arrival instant on the destination node's shard and
    /// decides what becomes of the envelope (see [`Delivery`]). When no hook
    /// is installed, delivery is the direct queue enqueue.
    pub fn set_delivery_hook(&self, hook: DeliveryHook<M>) {
        self.inner.delivery_hook.replace(hook);
    }

    /// Send `msg` from `from` to `to`, accounting `payload_bytes` of payload.
    /// The message is delivered after the backend's transfer time; messages
    /// on the same link are always delivered in FIFO order.
    pub fn send(&self, handle: &SimHandle, from: NodeId, to: NodeId, msg: M, payload_bytes: usize) {
        let delay = if from == to {
            // Loopback messages skip the wire but still pay a small software cost.
            SimDuration::from_micros_f64(self.inner.model.rpc_min_latency_us / 2.0)
        } else {
            self.inner.model.message_time(payload_bytes)
        };
        self.send_with_delay(handle, from, to, msg, payload_bytes, delay);
    }

    /// Send a small control message (page request, invalidation, ack, ...).
    pub fn send_control(&self, handle: &SimHandle, from: NodeId, to: NodeId, msg: M) {
        self.send(handle, from, to, msg, CONTROL_MESSAGE_BYTES);
    }

    /// Send with an explicitly chosen idle-wire delivery delay (used by
    /// layers that have already computed a cost, e.g. thread migration).
    pub fn send_with_delay(
        &self,
        handle: &SimHandle,
        from: NodeId,
        to: NodeId,
        msg: M,
        payload_bytes: usize,
        delay: SimDuration,
    ) {
        self.dispatch(handle.now(), from, to, msg, payload_bytes, 1, delay);
    }

    /// Send from outside any simulated thread (scheduler callbacks). Used by
    /// the per-tick message batcher, whose flush runs as an engine callback
    /// at the end of the tick rather than on a simulated thread. The message
    /// is timed from the global clock and obeys the same per-link FIFO order
    /// as thread-originated sends. `messages` is the number of logical
    /// messages the envelope carries (a batched envelope carries several),
    /// accounted by [`Network::wire_stats`].
    #[allow(clippy::too_many_arguments)]
    pub fn send_with_delay_from_ctl(
        &self,
        ctl: &EngineCtl,
        from: NodeId,
        to: NodeId,
        msg: M,
        payload_bytes: usize,
        messages: u32,
        delay: SimDuration,
    ) {
        self.dispatch(ctl.now(), from, to, msg, payload_bytes, messages, delay);
    }

    /// Common half of every send: run the pre-send hook, record statistics
    /// and hand the envelope to the transport backend, which schedules the
    /// delivery.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        sent_at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
        payload_bytes: usize,
        messages: u32,
        delay: SimDuration,
    ) {
        assert!(
            self.inner.topology.contains(from) && self.inner.topology.contains(to),
            "send between unknown nodes {from} -> {to}"
        );
        self.run_pre_send_hook(from, to);
        self.inner.stats.record(from, to, payload_bytes);
        self.inner
            .wire
            .add_envelope(payload_bytes as u64, u64::from(messages.max(1)));
        let envelope = Envelope {
            from,
            to,
            bytes: payload_bytes,
            messages: messages.max(1),
            sent_at,
            msg,
        };
        self.inner
            .transport
            .submit(envelope, delay, &self.inner.sinks[to.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use dsmpm2_sim::Engine;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn two_node_net<M: Send + 'static>(engine: &Engine, model: NetworkModel) -> Network<M> {
        Network::new(engine.ctl(), model, Topology::flat(2))
    }

    #[test]
    fn delivery_delay_matches_model() {
        let mut engine = Engine::new();
        let net = two_node_net::<&'static str>(&engine, profiles::bip_myrinet());
        let expected = profiles::bip_myrinet().page_transfer_time(4096);
        let arrived = Arc::new(AtomicU64::new(0));

        let rx = net.endpoint(NodeId(1));
        let a = arrived.clone();
        engine.spawn("receiver", move |h| {
            let env = rx.recv(h);
            assert_eq!(env.from, NodeId(0));
            assert_eq!(env.bytes, 4096 + CONTROL_MESSAGE_BYTES);
            a.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        let net2 = net.clone();
        engine.spawn("sender", move |h| {
            net2.send(
                h,
                NodeId(0),
                NodeId(1),
                "page",
                4096 + CONTROL_MESSAGE_BYTES,
            );
        });
        engine.run().unwrap();
        assert_eq!(arrived.load(Ordering::SeqCst), expected.as_nanos());
    }

    #[test]
    fn control_messages_are_cheaper_than_pages() {
        let mut engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::sisci_sci());
        let times = Arc::new(Mutex::new(Vec::new()));

        let rx = net.endpoint(NodeId(1));
        let t = times.clone();
        engine.spawn("receiver", move |h| {
            for _ in 0..2 {
                let env = rx.recv(h);
                t.lock().push((env.msg, h.global_now()));
            }
        });
        let net2 = net.clone();
        engine.spawn("sender", move |h| {
            net2.send_control(h, NodeId(0), NodeId(1), 1);
            net2.send(h, NodeId(0), NodeId(1), 2, 4096);
        });
        engine.run().unwrap();
        let times = times.lock();
        assert_eq!(times[0].0, 1);
        assert_eq!(times[1].0, 2);
        assert!(times[0].1 < times[1].1);
    }

    #[test]
    fn loopback_is_fast_but_not_free() {
        let mut engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
        let when = Arc::new(AtomicU64::new(0));
        let rx = net.endpoint(NodeId(0));
        let w = when.clone();
        engine.spawn("self-receiver", move |h| {
            let _ = rx.recv(h);
            w.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        let net2 = net.clone();
        engine.spawn("self-sender", move |h| {
            net2.send(h, NodeId(0), NodeId(0), 7, 4096);
        });
        engine.run().unwrap();
        let loopback = when.load(Ordering::SeqCst);
        assert!(loopback > 0);
        assert!(loopback < profiles::bip_myrinet().message_time(4096).as_nanos());
    }

    #[test]
    fn ctl_sends_obey_link_fifo_and_reach_the_endpoint() {
        let mut engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
        let order = Arc::new(Mutex::new(Vec::new()));
        let rx = net.endpoint(NodeId(1));
        let o = order.clone();
        engine.spawn("receiver", move |h| {
            for _ in 0..2 {
                let env = rx.recv(h);
                o.lock().push((env.msg, h.global_now()));
            }
        });
        let net2 = net.clone();
        let ctl = engine.ctl();
        // A slow thread-originated message followed by a fast ctl-originated
        // one on the same link: FIFO forbids the overtake.
        engine.spawn("sender", move |h| {
            net2.send(h, NodeId(0), NodeId(1), 1, 4096);
            net2.send_with_delay_from_ctl(
                &ctl,
                NodeId(0),
                NodeId(1),
                2,
                0,
                1,
                SimDuration::from_micros(1),
            );
        });
        engine.run().unwrap();
        let order = order.lock();
        assert_eq!(order[0].0, 1);
        assert_eq!(order[1].0, 2);
        assert!(order[0].1 <= order[1].1);
    }

    #[test]
    fn a_dispatched_envelope_never_reaches_the_endpoint_queue() {
        let mut engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
        // Take odd payloads at arrival; deliver even ones to the queue.
        net.set_delivery_hook(Arc::new(|_ctl, env: Envelope<u8>| {
            if env.msg % 2 == 1 {
                Delivery::Dispatched
            } else {
                Delivery::Queue(env)
            }
        }));
        let got = Arc::new(Mutex::new(Vec::new()));
        let rx = net.endpoint(NodeId(1));
        let g = got.clone();
        engine.spawn("rx", move |h| {
            for _ in 0..2 {
                g.lock().push(rx.recv(h).msg);
            }
        });
        let net2 = net.clone();
        engine.spawn("tx", move |h| {
            for m in [1u8, 2, 3, 4] {
                net2.send_control(h, NodeId(0), NodeId(1), m);
            }
        });
        engine.run().unwrap();
        assert_eq!(got.lock().clone(), vec![2, 4]);
        let wire = net.wire_stats();
        assert_eq!(wire.hook_delivered, 4);
        assert_eq!(wire.envelopes, 4);
        assert_eq!(wire.messages, 4);
    }

    #[test]
    fn an_installed_hook_replaces_the_previous_one_and_may_send() {
        let mut engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
        let calls = Arc::new(Mutex::new(Vec::new()));
        for hook in ["first", "second", "third"] {
            let calls = calls.clone();
            let weak = Arc::downgrade(&net.inner);
            let ctl = engine.ctl();
            net.set_pre_send_hook(Arc::new(move |from, to| {
                let first = {
                    let mut calls = calls.lock();
                    calls.push((hook, from, to));
                    calls.len() == 1
                };
                // A hook that sends re-enters the send path, itself included.
                if let (true, Some(inner)) = (first, weak.upgrade()) {
                    let net = Network { inner };
                    let delay = SimDuration::from_micros(1);
                    net.send_with_delay_from_ctl(&ctl, from, to, 0, 1, 1, delay);
                }
            }));
            net.set_delivery_hook(Arc::new(move |_ctl, env: Envelope<u8>| {
                assert_eq!(hook, "third", "{env:?} went to a replaced hook");
                Delivery::Dispatched
            }));
        }
        let net2 = net.clone();
        engine.spawn("tx", move |h| net2.send_control(h, NodeId(0), NodeId(1), 7));
        engine.run().unwrap();
        let third = ("third", NodeId(0), NodeId(1));
        assert_eq!(calls.lock().clone(), vec![third, third]);
        assert_eq!(net.wire_stats().hook_delivered, 2);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let mut engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::tcp_myrinet());
        let net2 = net.clone();
        engine.spawn("sender", move |h| {
            net2.send(h, NodeId(0), NodeId(1), 1, 100);
            net2.send(h, NodeId(0), NodeId(1), 2, 200);
        });
        // Drain so the run terminates cleanly even though nothing reads: the
        // messages simply sit in the queue (no thread is kept alive by them).
        engine.run().unwrap();
        assert_eq!(net.stats().messages(), 2);
        assert_eq!(net.stats().bytes(), 300);
        assert_eq!(net.stats().link(NodeId(0), NodeId(1)).messages, 2);
    }

    #[test]
    fn default_backend_is_ideal_with_clean_wire_stats() {
        let engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
        assert_eq!(net.transport_tuning(), TransportTuning::ideal());
        assert_eq!(net.wire_stats(), WireStatsSnapshot::default());
    }

    #[test]
    #[should_panic(expected = "unknown nodes")]
    fn sending_to_unknown_node_panics() {
        let engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
        // Outside a simulated thread we still need a handle; easiest is to
        // check the assertion through a spawned thread and propagate panic.
        let mut engine = engine;
        let net2 = net.clone();
        engine.spawn("bad", move |h| {
            net2.send(h, NodeId(0), NodeId(9), 1, 10);
        });
        if let Err(dsmpm2_sim::SimError::ThreadPanic { message, .. }) = engine.run() {
            panic!("{}", message);
        }
    }
}
