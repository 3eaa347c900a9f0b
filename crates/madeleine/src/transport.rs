//! Message transport between simulated cluster nodes.
//!
//! [`Network`] plays the role of the Madeleine communication library: any
//! simulated thread sends a typed message to any node, and the network hands
//! every arriving message, one way, to the layer above. The *cost* of a
//! transfer comes from the configured [`NetworkModel`]; *when* it arrives is
//! decided by the pluggable [`crate::Transport`] backend
//! ([`crate::TransportTuning`]). At that instant, one event on the
//! destination node's shard runs the network's delivery callback, fixed when
//! the network is built: PM2's dispatch ([`Network::with_delivery`]), or a
//! push onto the destination node's incoming queue ([`Network::with_transport`],
//! read through [`Network::endpoint`]).

use std::sync::Arc;

use dsmpm2_sim::{channel_on, EngineCtl, SimDuration, SimHandle, SimReceiver, SimTime, SliceRc};

use crate::backend::{build_transport, Transport, TransportTuning};
use crate::model::{NetworkModel, CONTROL_MESSAGE_BYTES};
use crate::stats::{NetStats, WireStatsSnapshot};
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
    /// envelope (a DSM routine's burst of coherence messages to one node).
    pub messages: u32,
    /// Virtual time at which the message was handed to the network.
    pub sent_at: SimTime,
    /// The message itself.
    pub msg: M,
}

/// Where a [`Network`] puts every envelope: called once per envelope, at its
/// arrival instant, on the destination node's scheduler shard.
pub type Deliver<M> = Arc<dyn Fn(&EngineCtl, Envelope<M>) + Send + Sync>;

/// The destination side of a whole network, as seen by transport backends:
/// the delivery callback, and the counter store the backend adds stalls,
/// drops and duplicates to. Cheap to clone: one plain count (a
/// [`SliceRc`]), taken by every arrival event.
pub struct DeliverySink<M> {
    inner: SliceRc<SinkInner<M>>,
}

struct SinkInner<M> {
    ctl: EngineCtl,
    deliver: Deliver<M>,
    stats: NetStats,
}

impl<M> Clone for DeliverySink<M> {
    fn clone(&self) -> Self {
        DeliverySink {
            inner: SliceRc::clone(&self.inner),
        }
    }
}

impl<M: Send + 'static> DeliverySink<M> {
    /// Deliver `env` at absolute time `deliver_at`: one arrival event on the
    /// destination node's shard, in which the delivery callback runs.
    pub fn send_at(&self, deliver_at: SimTime, env: Envelope<M>) {
        // The arrival event owns one reference to the sink, and through it
        // reaches the callback.
        let sink = SliceRc::clone(&self.inner);
        let shard = env.to.index() as u64;
        self.inner
            .ctl
            .call_at_on(shard, deliver_at, move |ctl| (sink.deliver)(ctl, env));
    }

    /// The network's counters.
    pub(crate) fn stats(&self) -> &NetStats {
        &self.inner.stats
    }
}

struct NetworkInner<M> {
    model: NetworkModel,
    topology: Topology,
    sink: DeliverySink<M>,
    /// Each node's incoming queue, for a network built by
    /// [`Network::with_transport`]; empty for one built with a delivery
    /// callback of its own.
    receivers: Vec<SimReceiver<Envelope<M>>>,
    /// The wire-level backend: owns the per-directed-link state (FIFO
    /// clocks, NIC reservations, retransmission machinery) and decides when
    /// each envelope reaches the delivery sink.
    transport: Box<dyn Transport<M>>,
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
    /// Build a network for `topology` over the cost model `model` and the
    /// backend `tuning`, which hands every envelope to `deliver` at its
    /// arrival instant.
    pub fn with_delivery(
        ctl: EngineCtl,
        model: NetworkModel,
        topology: Topology,
        tuning: TransportTuning,
        deliver: Deliver<M>,
    ) -> Self {
        Network::build(ctl, model, topology, tuning, deliver, Vec::new())
    }

    /// Build a network whose envelopes land on each node's incoming queue,
    /// for whoever blocks on [`Network::endpoint`].
    pub fn with_transport(
        ctl: EngineCtl,
        model: NetworkModel,
        topology: Topology,
        tuning: TransportTuning,
    ) -> Self {
        // Each node's queue is delivered to on the node's own shard.
        let (senders, receivers): (Vec<_>, Vec<_>) = topology
            .nodes()
            .map(|node| channel_on::<Envelope<M>>(ctl.clone(), node.index() as u64))
            .unzip();
        let deliver: Deliver<M> =
            Arc::new(move |ctl, env: Envelope<M>| senders[env.to.index()].deliver(ctl, env));
        Network::build(ctl, model, topology, tuning, deliver, receivers)
    }

    fn build(
        ctl: EngineCtl,
        model: NetworkModel,
        topology: Topology,
        tuning: TransportTuning,
        deliver: Deliver<M>,
        receivers: Vec<SimReceiver<Envelope<M>>>,
    ) -> Self {
        let transport = build_transport::<M>(ctl.clone(), &model, &topology, tuning);
        let sink = DeliverySink {
            inner: SliceRc::new(SinkInner {
                ctl,
                deliver,
                stats: NetStats::default(),
            }),
        };
        Network {
            inner: Arc::new(NetworkInner {
                model,
                topology,
                sink,
                receivers,
                transport,
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

    /// Communication statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        self.inner.sink.stats()
    }

    /// Wire-level statistics: envelopes and the logical messages they
    /// carried, and what the backend's wire did to them (NIC stalls, drops,
    /// retransmissions, duplicates).
    pub fn wire_stats(&self) -> WireStatsSnapshot {
        self.stats().wire()
    }

    /// The incoming message queue of `node`.
    ///
    /// # Panics
    /// Panics if the network was built with a delivery callback of its own
    /// ([`Network::with_delivery`]): it has no queues.
    pub fn endpoint(&self, node: NodeId) -> SimReceiver<Envelope<M>> {
        self.inner.receivers[node.index()].clone()
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
        self.send_with_delay(handle, from, to, msg, payload_bytes, 1, delay);
    }

    /// Send a small control message (page request, invalidation, ack, ...).
    pub fn send_control(&self, handle: &SimHandle, from: NodeId, to: NodeId, msg: M) {
        self.send(handle, from, to, msg, CONTROL_MESSAGE_BYTES);
    }

    /// Send with an explicitly chosen idle-wire delivery delay (used by
    /// layers that have already computed a cost, e.g. thread migration).
    /// `messages` is the number of logical messages the envelope carries (a
    /// batch carries several), accounted by [`Network::wire_stats`]. Counts
    /// the envelope once and hands it to the transport backend, which
    /// schedules the delivery.
    #[allow(clippy::too_many_arguments)]
    pub fn send_with_delay(
        &self,
        handle: &SimHandle,
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
        let messages = messages.max(1);
        let sink = &self.inner.sink;
        sink.stats().record_envelope(payload_bytes, messages);
        let envelope = Envelope {
            from,
            to,
            bytes: payload_bytes,
            messages,
            sent_at: handle.now(),
            msg,
        };
        self.inner.transport.submit(envelope, delay, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use dsmpm2_sim::Engine;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn two_node_net<M: Send + 'static>(engine: &Engine, model: NetworkModel) -> Network<M> {
        Network::with_transport(
            engine.ctl(),
            model,
            Topology::flat(2),
            TransportTuning::ideal(),
        )
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
                t.lock().unwrap().push((env.msg, h.global_now()));
            }
        });
        let net2 = net.clone();
        engine.spawn("sender", move |h| {
            net2.send_control(h, NodeId(0), NodeId(1), 1);
            net2.send(h, NodeId(0), NodeId(1), 2, 4096);
        });
        engine.run().unwrap();
        let times = times.lock().unwrap();
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
    fn a_faster_later_send_never_overtakes_on_its_link() {
        let mut engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
        let order = Arc::new(Mutex::new(Vec::new()));
        let rx = net.endpoint(NodeId(1));
        let o = order.clone();
        engine.spawn("receiver", move |h| {
            for _ in 0..2 {
                let env = rx.recv(h);
                o.lock()
                    .unwrap()
                    .push((env.msg, env.messages, h.global_now()));
            }
        });
        let net2 = net.clone();
        // A slow page-sized message followed by a fast envelope of two
        // messages on the same link: FIFO forbids the overtake.
        engine.spawn("sender", move |h| {
            net2.send(h, NodeId(0), NodeId(1), 1, 4096);
            net2.send_with_delay(
                h,
                NodeId(0),
                NodeId(1),
                2,
                0,
                2,
                SimDuration::from_micros(1),
            );
        });
        engine.run().unwrap();
        let order = order.lock().unwrap();
        assert_eq!((order[0].0, order[0].1), (1, 1));
        assert_eq!((order[1].0, order[1].1), (2, 2));
        assert!(order[0].2 <= order[1].2);
        let wire = net.wire_stats();
        assert_eq!((wire.envelopes, wire.messages), (2, 3));
    }

    #[test]
    fn the_delivery_callback_takes_every_envelope_at_its_arrival() {
        let mut engine = Engine::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let net = Network::with_delivery(
            engine.ctl(),
            profiles::bip_myrinet(),
            Topology::flat(2),
            TransportTuning::ideal(),
            Arc::new(move |ctl: &EngineCtl, env: Envelope<u8>| {
                g.lock().unwrap().push((env.msg, env.to, ctl.now()));
            }),
        );
        let net2 = net.clone();
        engine.spawn("tx", move |h| {
            for m in [1u8, 2, 3, 4] {
                net2.send_control(h, NodeId(0), NodeId(1), m);
            }
        });
        engine.run().unwrap();
        let at = SimTime::ZERO + profiles::bip_myrinet().control_time();
        let expected: Vec<_> = (1..=4).map(|m| (m, NodeId(1), at)).collect();
        assert_eq!(got.lock().unwrap().clone(), expected);
        let wire = net.wire_stats();
        assert_eq!((wire.envelopes, wire.messages), (4, 4));
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
    }

    #[test]
    fn default_backend_is_ideal_with_clean_wire_stats() {
        assert_eq!(TransportTuning::default(), TransportTuning::ideal());
        let engine = Engine::new();
        let net = two_node_net::<u8>(&engine, profiles::bip_myrinet());
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
