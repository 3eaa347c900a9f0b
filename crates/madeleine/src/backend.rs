//! Pluggable wire-level transport backends.
//!
//! The cost model ([`crate::NetworkModel`]) says how long one message takes
//! on an otherwise idle interconnect; a transport backend says what happens
//! when the wire is *not* idle. Four backends ship:
//!
//! * [`TransportTuning::Ideal`] — the historical behaviour: every link is an
//!   uncontended, infinite-capacity pipe; delivery happens exactly one
//!   cost-model delay after the send, stretched only by the per-link FIFO
//!   guarantee. It is `Permuted` with a single delivery slot.
//! * [`TransportTuning::Contended`] — per-node egress and ingress NIC
//!   serialization plus duplex links: a node transmits one frame at a time at
//!   the model's bandwidth, and a node receives one frame at a time, so
//!   concurrent page transfers share bandwidth instead of overlapping for
//!   free. Delivery is a scheduled event (the wire arrival), not a timestamp
//!   precomputed at send time.
//! * [`TransportTuning::Lossy`] — seeded deterministic frame drops and
//!   duplications with per-link retransmission timers and sequence numbers.
//!   A receiver-side reorder buffer re-establishes the FIFO-no-overtake,
//!   exactly-once guarantee above the loss layer, so protocols run unchanged
//!   — only slower, by a deterministic amount reproducible from the seed.
//! * [`TransportTuning::Permuted`] — `Ideal` with a delivery-slot choice
//!   point per message for the schedule explorer.
//!
//! A backend hands each envelope, at its arrival time, to the network's one
//! [`DeliverySink`], and adds what the wire did to it (stalls, drops,
//! duplicates) to the network's counters through the same sink; it owns no
//! counter of its own. Every backend preserves the Madeleine channel
//! invariant: on a directed link, a message never overtakes an earlier one.

use std::collections::BTreeMap;

use dsmpm2_sim::{EngineCtl, SimDuration, SimTime, SliceCell, SliceRc};

use crate::model::NetworkModel;
use crate::topology::{NodeId, Topology};
use crate::transport::{DeliverySink, Envelope};

/// Which wire-level backend carries a [`crate::Network`]'s messages: the
/// transport setting of a cluster, threaded through `Pm2Config`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransportTuning {
    /// Uncontended infinite-capacity links (the historical behaviour).
    #[default]
    Ideal,
    /// Per-node egress/ingress NIC serialization and duplex link queues.
    Contended,
    /// Deterministic drops/duplications with retransmission timers.
    Lossy(LossyConfig),
    /// `Ideal`, except that an installed engine
    /// [`ScheduleController`](dsmpm2_sim::ScheduleController) picks one of a
    /// small number of bounded delivery slots per message, permuting
    /// *cross-link* delivery order. Per-link FIFO is still enforced by the
    /// link clocks, so the Madeleine no-overtake invariant holds on every
    /// explored schedule. Without a controller this is exactly `Ideal`.
    Permuted(PermutedConfig),
}

impl TransportTuning {
    /// The historical uncontended pipe (the default).
    pub fn ideal() -> Self {
        TransportTuning::Ideal
    }

    /// Per-node NIC serialization and duplex link queues.
    pub fn contended() -> Self {
        TransportTuning::Contended
    }

    /// Seeded deterministic loss/duplication with retransmission.
    pub fn lossy(seed: u64) -> Self {
        TransportTuning::Lossy(LossyConfig {
            seed,
            ..LossyConfig::default()
        })
    }

    /// Controller-permuted delivery order (the dsm-verify exploration seam).
    pub fn permuted() -> Self {
        TransportTuning::Permuted(PermutedConfig::default())
    }

    /// Short human-readable backend name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TransportTuning::Ideal => "ideal",
            TransportTuning::Contended => "contended",
            TransportTuning::Lossy(_) => "lossy",
            TransportTuning::Permuted(_) => "permuted",
        }
    }
}

/// Parameters of the [`TransportTuning::Permuted`] backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PermutedConfig {
    /// Number of delivery slots offered to the controller per message
    /// (clamped to ≥ 1). Slot 0 is the ideal arrival; slot `k` adds `k`
    /// times half the message's own wire delay (plus one nanosecond, so
    /// even zero-delay messages can be reordered), which is enough slack to
    /// interleave with concurrent messages of other links without inflating
    /// virtual time unboundedly.
    pub options: u8,
}

impl Default for PermutedConfig {
    fn default() -> Self {
        PermutedConfig { options: 3 }
    }
}

/// Parameters of the [`TransportTuning::Lossy`] backend. All behaviour is a
/// pure function of these values, so a run replays bit-identically from the
/// same seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossyConfig {
    /// Seed of the deterministic drop/duplication decisions.
    pub seed: u64,
    /// Probability of dropping one wire attempt, in 1/1000 (values ≥ 1000
    /// are clamped to 999 so every message eventually gets through).
    pub drop_per_mille: u16,
    /// Probability that a successfully received frame is duplicated on the
    /// wire, in 1/1000. Duplicates are discarded by the sequence-number
    /// check and only show up in
    /// [`WireStatsSnapshot::duplicates`](crate::WireStatsSnapshot::duplicates).
    pub dup_per_mille: u16,
}

impl Default for LossyConfig {
    fn default() -> Self {
        LossyConfig {
            seed: 0x5eed_d5a1,
            drop_per_mille: 50,
            dup_per_mille: 10,
        }
    }
}

/// Retransmission timeout of the [`TransportTuning::Lossy`] backend, as a
/// multiple of a dropped attempt's own wire time: the sender re-sends the
/// frame this many wire times after the attempt departed.
const RTO_FACTOR: u64 = 2;

/// Hard cap on wire attempts per frame, so even an (clamped) adversarial
/// drop rate cannot stall a link forever.
const MAX_ATTEMPTS: u32 = 64;

/// The seam between the [`crate::Network`] API and the wire-level behaviour.
///
/// A backend receives every envelope together with the cost-model delay the
/// caller computed (`base_delay`, the idle-wire transfer time) and must
/// eventually deliver the envelope — exactly once, never overtaking an
/// earlier message on the same directed link — into `tx`, the network's
/// delivery sink.
pub trait Transport<M: Send + 'static>: Send + Sync {
    /// Hand one envelope to the wire.
    fn submit(&self, env: Envelope<M>, base_delay: SimDuration, tx: &DeliverySink<M>);
}

/// Build the backend selected by `tuning` for a cluster of
/// `topology.num_nodes` nodes over the cost model `model`.
pub fn build_transport<M: Send + 'static>(
    ctl: EngineCtl,
    model: &NetworkModel,
    topology: &Topology,
    tuning: TransportTuning,
) -> Box<dyn Transport<M>> {
    let n = topology.num_nodes;
    match tuning {
        TransportTuning::Ideal => Box::new(PermutedTransport::new(ctl, 1, n)),
        TransportTuning::Contended => Box::new(ContendedTransport::new(ctl, model, n)),
        TransportTuning::Lossy(config) => Box::new(LossyTransport::<M>::new(ctl, config, n)),
        TransportTuning::Permuted(config) => {
            Box::new(PermutedTransport::new(ctl, config.options, n))
        }
    }
}

/// Last scheduled arrival per directed link: one word per link at
/// `from * num_nodes + to`, sized once from the topology, so nothing grows
/// over the run. No lock: a link's clock is advanced by whoever sends on it —
/// a slice, or a scheduler event (a wire arrival) — and the engine's
/// hand-off runs those one at a time, so the table sits in a
/// [`SliceCell`] like every other piece of wire state in this module.
struct LinkClocks {
    num_nodes: usize,
    last_arrival: SliceCell<Vec<SimTime>>,
}

impl LinkClocks {
    fn new(num_nodes: usize) -> Self {
        LinkClocks {
            num_nodes,
            last_arrival: SliceCell::new(vec![SimTime::ZERO; num_nodes * num_nodes]),
        }
    }

    /// Stretch `natural` so it never precedes the link's last scheduled
    /// arrival, and record the result as the new last arrival. Returns the
    /// (possibly stretched) arrival time.
    fn reserve(&self, from: NodeId, to: NodeId, natural: SimTime) -> SimTime {
        let last = &mut self.last_arrival.borrow()[from.index() * self.num_nodes + to.index()];
        *last = natural.max(*last);
        *last
    }
}

/// Per-node NIC availability (egress or ingress): the time at which the NIC
/// finishes its current frame.
struct NicClocks {
    free_at: SliceCell<Vec<SimTime>>,
}

impl NicClocks {
    fn new(num_nodes: usize) -> Self {
        NicClocks {
            free_at: SliceCell::new(vec![SimTime::ZERO; num_nodes]),
        }
    }

    /// Reserve the NIC of `node` for `occupancy`, starting no earlier than
    /// `not_before`. Returns the reservation's start time.
    fn reserve(&self, node: NodeId, not_before: SimTime, occupancy: SimDuration) -> SimTime {
        let free = &mut self.free_at.borrow()[node.index()];
        let start = (*free).max(not_before);
        *free = start + occupancy;
        start
    }
}

// ---------------------------------------------------------------------------
// Permuted
// ---------------------------------------------------------------------------

/// Delivery exactly `base_delay` after the send, stretched only by the
/// per-link FIFO guarantee — with a delivery-order choice point per message:
/// when the engine has a [`dsmpm2_sim::ScheduleController`] installed, every
/// cross-node message asks it for one of `options` bounded delivery slots
/// before the per-link FIFO reservation. Slot 0 is the ideal arrival, and is
/// what an uncontrolled run and a one-slot backend (`Ideal`) always take.
struct PermutedTransport {
    ctl: EngineCtl,
    options: u32,
    links: LinkClocks,
}

impl PermutedTransport {
    fn new(ctl: EngineCtl, options: u8, num_nodes: usize) -> Self {
        PermutedTransport {
            ctl,
            options: u32::from(options).max(1),
            links: LinkClocks::new(num_nodes),
        }
    }
}

impl<M: Send + 'static> Transport<M> for PermutedTransport {
    fn submit(&self, env: Envelope<M>, base_delay: SimDuration, tx: &DeliverySink<M>) {
        let choice = if self.options > 1 && env.from != env.to {
            match self.ctl.controller() {
                Some(controller) => controller
                    .choose_delivery(
                        self.ctl.now(),
                        env.from.index() as u64,
                        env.to.index() as u64,
                        self.options,
                    )
                    .min(self.options - 1),
                None => 0,
            }
        } else {
            0
        };
        // Slot slack: half the message's own wire delay plus 1 ns per slot,
        // so slot k can slip behind concurrent messages of other links
        // without stretching virtual time past one extra delay overall.
        let slack = SimDuration::from_nanos(base_delay.as_nanos() / 2 + 1) * u64::from(choice);
        let natural = env.sent_at + base_delay + slack;
        let arrival = self.links.reserve(env.from, env.to, natural);
        let stall = arrival.since(natural).as_nanos();
        tx.stats().wire_event(|wire| wire.fifo_stall_ns += stall);
        tx.send_at(arrival, env);
    }
}

// ---------------------------------------------------------------------------
// Contended
// ---------------------------------------------------------------------------

struct ContendedInner {
    ingress: NicClocks,
    links: LinkClocks,
}

/// Per-node egress/ingress NIC serialization with duplex links.
///
/// A frame of `b` payload bytes occupies the sender's egress NIC for
/// `b / bandwidth` (reserved in send order — the egress queue), travels the
/// wire for the latency part of the cost-model delay, and then occupies the
/// receiver's ingress NIC for the same serialization time — reserved *on
/// arrival*, by a scheduled event, so ingress contention resolves in true
/// arrival order rather than in send order. An uncontended transfer costs
/// exactly the cost-model delay; concurrent transfers through the same NIC
/// queue behind each other.
struct ContendedTransport {
    ctl: EngineCtl,
    bandwidth_bytes_per_us: f64,
    egress: NicClocks,
    /// Per-link clamp on the *wire arrival* events: a frame must not reach
    /// the destination NIC before an earlier frame of the same link did.
    /// Without it, a low-latency frame (e.g. a minimal RPC) submitted after
    /// a high-latency one could fire its arrival event first and overtake
    /// it through the ingress queue — the exact overtake the Madeleine FIFO
    /// guarantee forbids.
    wire_heads: LinkClocks,
    inner: SliceRc<ContendedInner>,
}

impl ContendedTransport {
    fn new(ctl: EngineCtl, model: &NetworkModel, num_nodes: usize) -> Self {
        ContendedTransport {
            ctl,
            bandwidth_bytes_per_us: model.bandwidth_bytes_per_us,
            egress: NicClocks::new(num_nodes),
            wire_heads: LinkClocks::new(num_nodes),
            inner: SliceRc::new(ContendedInner {
                ingress: NicClocks::new(num_nodes),
                links: LinkClocks::new(num_nodes),
            }),
        }
    }

    /// Size-dependent part of a frame's cost: the time its bytes occupy a
    /// NIC at the model's bandwidth, capped by the caller's whole delay
    /// (explicit-delay sends, e.g. thread migration, may charge less than
    /// the raw serialization time).
    fn serialization(&self, bytes: usize, base_delay: SimDuration) -> SimDuration {
        let ser = SimDuration::from_micros_f64(bytes as f64 / self.bandwidth_bytes_per_us);
        ser.min(base_delay)
    }
}

impl<M: Send + 'static> Transport<M> for ContendedTransport {
    fn submit(&self, env: Envelope<M>, base_delay: SimDuration, tx: &DeliverySink<M>) {
        let (from, to) = (env.from, env.to);
        if from == to {
            // Loopback skips the NICs (same as it skips the wire).
            let arrival = self.inner.links.reserve(from, to, env.sent_at + base_delay);
            tx.send_at(arrival, env);
            return;
        }
        let ser = self.serialization(env.bytes, base_delay);
        let wire_latency = base_delay - ser;
        let start_tx = self.egress.reserve(from, env.sent_at, ser);
        let stall = start_tx.since(env.sent_at).as_nanos();
        tx.stats().wire_event(|wire| wire.egress_stall_ns += stall);
        // The frame's last bit reaches the destination NIC here; ingress
        // reservation happens *then*, as a scheduled event, so receivers
        // serve frames in arrival order. Same-link frames arrive in submit
        // order (the wire_heads clamp; ties resolve in event-seq = submit
        // order), which keeps the ingress pass FIFO per link.
        let at_nic = self
            .wire_heads
            .reserve(from, to, start_tx + ser + wire_latency);
        let inner = SliceRc::clone(&self.inner);
        let tx = tx.clone();
        // The wire-arrival event reserves the *receiver's* NIC, so it runs
        // on the receiver's shard, serialized with the node's other events.
        self.ctl.call_at_on(to.index() as u64, at_nic, move |ctl| {
            let now = ctl.now();
            let start_rx = inner.ingress.reserve(to, now, ser);
            let stall = start_rx.since(now).as_nanos();
            tx.stats().wire_event(|wire| wire.ingress_stall_ns += stall);
            let arrival = inner.links.reserve(from, to, start_rx);
            tx.send_at(arrival, env);
        });
    }
}

// ---------------------------------------------------------------------------
// Lossy
// ---------------------------------------------------------------------------

struct LossyLink<M> {
    /// Sequence number assigned to the next frame submitted on this link.
    next_seq: u64,
    /// Sequence number the receiver delivers next; everything below it has
    /// been handed to the endpoint exactly once.
    deliver_next: u64,
    /// Frames received ahead of `deliver_next`, waiting for the gap to fill.
    reorder: BTreeMap<u64, Envelope<M>>,
    /// FIFO guard over the delivered stream.
    last_arrival: SimTime,
}

impl<M> Default for LossyLink<M> {
    fn default() -> Self {
        LossyLink {
            next_seq: 0,
            deliver_next: 0,
            reorder: BTreeMap::new(),
            last_arrival: SimTime::ZERO,
        }
    }
}

struct LossyInner<M> {
    num_nodes: usize,
    links: Vec<SliceCell<LossyLink<M>>>,
}

impl<M> LossyInner<M> {
    fn link(&self, from: NodeId, to: NodeId) -> &SliceCell<LossyLink<M>> {
        &self.links[from.index() * self.num_nodes + to.index()]
    }
}

/// Seeded deterministic drop/duplication with per-link retransmission
/// timers and sequence numbers. Above the loss layer every link is still a
/// reliable FIFO channel: the receiver's reorder buffer releases frames in
/// sequence order and discards duplicates, so protocols observe exactly-once
/// in-order delivery — at a (deterministically) later time.
struct LossyTransport<M> {
    ctl: EngineCtl,
    config: LossyConfig,
    inner: SliceRc<LossyInner<M>>,
}

impl<M: Send + 'static> LossyTransport<M> {
    fn new(ctl: EngineCtl, mut config: LossyConfig, num_nodes: usize) -> Self {
        config.drop_per_mille = config.drop_per_mille.min(999);
        config.dup_per_mille = config.dup_per_mille.min(1000);
        LossyTransport {
            ctl,
            config,
            inner: SliceRc::new(LossyInner {
                num_nodes,
                links: (0..num_nodes * num_nodes)
                    .map(|_| SliceCell::new(LossyLink::default()))
                    .collect(),
            }),
        }
    }

    /// Deterministic per-(link, seq, attempt) dice roll in `0..1000`.
    fn roll(
        config: &LossyConfig,
        salt: u64,
        from: NodeId,
        to: NodeId,
        seq: u64,
        attempt: u32,
    ) -> u16 {
        let mut x = config.seed;
        x ^= salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= (from.index() as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= (to.index() as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= seq.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^= u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f);
        (splitmix64(x) % 1000) as u16
    }

    /// Run one wire attempt for frame `seq`, departing at `depart_at`: the
    /// frame is either dropped (schedule a retransmission one RTO later) or
    /// arrives `base_delay` after departure and goes through the receiver's
    /// reorder buffer.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        self_inner: &SliceRc<LossyInner<M>>,
        ctl: &EngineCtl,
        config: LossyConfig,
        seq: u64,
        attempt_no: u32,
        depart_at: SimTime,
        env: Envelope<M>,
        base_delay: SimDuration,
        tx: DeliverySink<M>,
    ) {
        let (from, to) = (env.from, env.to);
        let dropped = Self::roll(&config, 0xd209, from, to, seq, attempt_no)
            < config.drop_per_mille
            && attempt_no < MAX_ATTEMPTS;
        if dropped {
            tx.stats().wire_event(|wire| {
                wire.drops += 1;
                wire.retransmits += 1;
            });
            let rto = base_delay * RTO_FACTOR;
            let retransmit_at = depart_at + rto;
            let inner = SliceRc::clone(self_inner);
            ctl.call_at_on(to.index() as u64, retransmit_at, move |ctl| {
                LossyTransport::attempt(
                    &inner,
                    ctl,
                    config,
                    seq,
                    attempt_no + 1,
                    retransmit_at,
                    env,
                    base_delay,
                    tx,
                );
            });
            return;
        }
        if Self::roll(&config, 0x0d0b, from, to, seq, attempt_no) < config.dup_per_mille {
            // The wire delivers the frame twice; the sequence check discards
            // the second copy, which therefore only exists as a counter.
            tx.stats().wire_event(|wire| wire.duplicates += 1);
        }
        let arrive_at = depart_at + base_delay;
        let inner = SliceRc::clone(self_inner);
        // Arrival mutates the receiver-side reorder buffer: receiver shard.
        ctl.call_at_on(to.index() as u64, arrive_at, move |ctl| {
            let now = ctl.now();
            let mut link = inner.link(from, to).borrow();
            debug_assert!(seq >= link.deliver_next, "duplicate real frame {seq}");
            link.reorder.insert(seq, env);
            // Release the in-order prefix, oldest first, all at this instant
            // — the channel's send-sequence numbers keep them ordered.
            while let Some(ready) = {
                let next = link.deliver_next;
                link.reorder.remove(&next)
            } {
                let arrival = now.max(link.last_arrival);
                link.last_arrival = arrival;
                link.deliver_next += 1;
                tx.send_at(arrival, ready);
            }
        });
    }
}

impl<M: Send + 'static> Transport<M> for LossyTransport<M> {
    fn submit(&self, env: Envelope<M>, base_delay: SimDuration, tx: &DeliverySink<M>) {
        let (from, to) = (env.from, env.to);
        if from == to {
            // Loopback skips the wire, hence the loss layer.
            let mut link = self.inner.link(from, to).borrow();
            let arrival = (env.sent_at + base_delay).max(link.last_arrival);
            link.last_arrival = arrival;
            tx.send_at(arrival, env);
            return;
        }
        let seq = {
            let mut link = self.inner.link(from, to).borrow();
            let seq = link.next_seq;
            link.next_seq += 1;
            seq
        };
        LossyTransport::attempt(
            &self.inner,
            &self.ctl,
            self.config,
            seq,
            0,
            env.sent_at,
            env,
            base_delay,
            tx.clone(),
        );
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed hash for the dice rolls.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::transport::Network;
    use crate::WireStatsSnapshot;
    use dsmpm2_sim::Engine;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    fn net_with(engine: &Engine, tuning: TransportTuning, nodes: usize) -> Network<(usize, u64)> {
        Network::with_transport(
            engine.ctl(),
            profiles::bip_myrinet(),
            Topology::flat(nodes),
            tuning,
        )
    }

    /// Arrival time of a single uncontended transfer must be exactly the
    /// cost model's prediction under every backend (Lossy with drops off).
    #[test]
    fn uncontended_transfer_matches_model_under_every_backend() {
        let lossless = TransportTuning::Lossy(LossyConfig {
            drop_per_mille: 0,
            dup_per_mille: 0,
            ..LossyConfig::default()
        });
        for tuning in [
            TransportTuning::ideal(),
            TransportTuning::contended(),
            lossless,
        ] {
            let mut engine = Engine::new();
            let net = net_with(&engine, tuning, 2);
            let expected = profiles::bip_myrinet().message_time(4096);
            let arrived = Arc::new(AtomicU64::new(0));
            let rx = net.endpoint(NodeId(1));
            let a = arrived.clone();
            engine.spawn("rx", move |h| {
                let _ = rx.recv(h);
                a.store(h.global_now().as_nanos(), Ordering::SeqCst);
            });
            let net2 = net.clone();
            engine.spawn("tx", move |h| {
                net2.send(h, NodeId(0), NodeId(1), (0, 0), 4096);
            });
            engine.run().unwrap();
            assert_eq!(
                arrived.load(Ordering::SeqCst),
                expected.as_nanos(),
                "backend {}",
                tuning.name()
            );
        }
    }

    /// Two concurrent page transfers out of one node serialize at the egress
    /// NIC under Contended: the second arrives roughly one serialization
    /// time later than under Ideal.
    #[test]
    fn contended_egress_serializes_concurrent_transfers() {
        let last_arrival = |tuning: TransportTuning| -> u64 {
            let mut engine = Engine::new();
            let net = net_with(&engine, tuning, 3);
            let done = Arc::new(AtomicU64::new(0));
            for dest in [1usize, 2] {
                let rx = net.endpoint(NodeId(dest));
                let d = done.clone();
                engine.spawn(format!("rx{dest}"), move |h| {
                    let _ = rx.recv(h);
                    d.fetch_max(h.global_now().as_nanos(), Ordering::SeqCst);
                });
            }
            let net2 = net.clone();
            engine.spawn("tx", move |h| {
                net2.send(h, NodeId(0), NodeId(1), (0, 0), 4096);
                net2.send(h, NodeId(0), NodeId(2), (0, 1), 4096);
            });
            engine.run().unwrap();
            done.load(Ordering::SeqCst)
        };
        let ideal = last_arrival(TransportTuning::ideal());
        let contended = last_arrival(TransportTuning::contended());
        let ser =
            SimDuration::from_micros_f64(4096.0 / profiles::bip_myrinet().bandwidth_bytes_per_us);
        assert!(
            contended >= ideal + ser.as_nanos(),
            "egress did not serialize: ideal {ideal} vs contended {contended}"
        );
    }

    /// Two senders aimed at one receiver serialize at the ingress NIC.
    #[test]
    fn contended_ingress_serializes_fan_in() {
        let mut engine = Engine::new();
        let net = net_with(&engine, TransportTuning::contended(), 3);
        let times = Arc::new(Mutex::new(Vec::new()));
        let rx = net.endpoint(NodeId(2));
        let t = times.clone();
        engine.spawn("rx", move |h| {
            for _ in 0..2 {
                let _ = rx.recv(h);
                t.lock().unwrap().push(h.global_now().as_nanos());
            }
        });
        for src in [0usize, 1] {
            let net2 = net.clone();
            engine.spawn(format!("tx{src}"), move |h| {
                net2.send(h, NodeId(src), NodeId(2), (src, 0), 4096);
            });
        }
        engine.run().unwrap();
        let times = times.lock().unwrap().clone();
        let ser =
            SimDuration::from_micros_f64(4096.0 / profiles::bip_myrinet().bandwidth_bytes_per_us);
        assert!(
            times[1] >= times[0] + ser.as_nanos(),
            "ingress did not serialize: {times:?}"
        );
        assert!(net.wire_stats().ingress_stall_ns > 0);
    }

    /// The lossy backend drops (and retransmits) deterministically: the same
    /// seed reproduces the exact arrival times and counters, a different
    /// seed produces a different wire schedule.
    #[test]
    fn lossy_replays_deterministically_from_the_seed() {
        let run = |seed: u64| -> (Vec<u64>, WireStatsSnapshot) {
            let tuning = TransportTuning::Lossy(LossyConfig {
                seed,
                drop_per_mille: 300,
                dup_per_mille: 100,
            });
            let mut engine = Engine::new();
            let net = net_with(&engine, tuning, 2);
            let arrivals = Arc::new(Mutex::new(Vec::new()));
            let rx = net.endpoint(NodeId(1));
            let a = arrivals.clone();
            engine.spawn("rx", move |h| {
                for _ in 0..20 {
                    let _ = rx.recv(h);
                    a.lock().unwrap().push(h.global_now().as_nanos());
                }
            });
            let net2 = net.clone();
            engine.spawn("tx", move |h| {
                for i in 0..20u64 {
                    net2.send(h, NodeId(0), NodeId(1), (0, i), 512);
                    h.sleep(SimDuration::from_micros(5));
                }
            });
            engine.run().unwrap();
            let recorded = arrivals.lock().unwrap().clone();
            (recorded, net.wire_stats())
        };
        let (a1, s1) = run(7);
        let (a2, s2) = run(7);
        assert_eq!(a1, a2, "same seed must replay bit-identically");
        assert_eq!(s1, s2);
        assert!(s1.drops > 0, "drop rate 30% on 20 frames must drop some");
        let (a3, s3) = run(8);
        assert!(
            a1 != a3 || s1 != s3,
            "different seed should produce a different wire schedule"
        );
    }

    /// Messages survive drops in order: the receiver observes the send
    /// sequence exactly, even when later frames' attempts arrive first.
    #[test]
    fn lossy_preserves_fifo_and_exactly_once_across_drops() {
        let tuning = TransportTuning::Lossy(LossyConfig {
            seed: 42,
            drop_per_mille: 400,
            dup_per_mille: 200,
        });
        let mut engine = Engine::new();
        let net = net_with(&engine, tuning, 2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let rx = net.endpoint(NodeId(1));
        let o = order.clone();
        engine.spawn("rx", move |h| {
            for _ in 0..30 {
                let (_, i) = rx.recv(h).msg;
                o.lock().unwrap().push(i);
            }
        });
        let net2 = net.clone();
        engine.spawn("tx", move |h| {
            for i in 0..30u64 {
                // Mixed sizes: a dropped big frame must hold back the small
                // ones sent after it.
                let bytes = if i % 3 == 0 { 4096 } else { 64 };
                net2.send(h, NodeId(0), NodeId(1), (0, i), bytes);
            }
        });
        engine.run().unwrap();
        assert_eq!(order.lock().unwrap().clone(), (0..30).collect::<Vec<u64>>());
        assert!(net.wire_stats().drops > 0);
    }
}
