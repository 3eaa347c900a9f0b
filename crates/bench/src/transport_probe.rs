//! Virtual-time probes of the transport backends, which the model rows use
//! to pin every backend's uncontended transfer to the calibrated cost model.

use dsmpm2_madeleine::{
    Network, NetworkModel, NodeId, Topology, TransportTuning, CONTROL_MESSAGE_BYTES,
};
use dsmpm2_sim::{Engine, SimDuration, SimTime};

use dsmpm2_workloads::setup::Latest;

/// Virtual arrival time of a single, uncontended 4 kB page transfer (plus
/// control header) between two otherwise idle nodes under `tuning`. For the
/// `Ideal` backend this equals `model.page_transfer_time(4096)` exactly —
/// the calibration seam the model rows pin.
pub(crate) fn probe_single_transfer(model: &NetworkModel, tuning: TransportTuning) -> SimDuration {
    let mut engine = Engine::new();
    let net: Network<u8> =
        Network::with_transport(engine.ctl(), model.clone(), Topology::flat(2), tuning);
    let arrived = Latest::default();
    let rx = net.endpoint(NodeId(1));
    let a = arrived.clone();
    engine.spawn("rx", move |h| {
        let _ = rx.recv(h);
        a.record(h.global_now().since(SimTime::ZERO));
    });
    let net2 = net.clone();
    engine.spawn("tx", move |h| {
        net2.send(h, NodeId(0), NodeId(1), 0, 4096 + CONTROL_MESSAGE_BYTES);
    });
    engine.run().expect("probe must terminate");
    arrived.get()
}

/// Virtual completion time of a fan-in burst: `senders` nodes each fire
/// `messages` back-to-back 4 kB transfers at node 0 at virtual time zero;
/// returns the last arrival. Under `Contended` the shared ingress NIC
/// serializes the burst; under `Ideal` the transfers overlap for free.
pub(crate) fn probe_fan_in(
    model: &NetworkModel,
    tuning: TransportTuning,
    senders: usize,
    messages: usize,
) -> SimDuration {
    let mut engine = Engine::new();
    let net: Network<u8> = Network::with_transport(
        engine.ctl(),
        model.clone(),
        Topology::flat(senders + 1),
        tuning,
    );
    let last = Latest::default();
    let rx = net.endpoint(NodeId(0));
    let l = last.clone();
    let total = senders * messages;
    engine.spawn("rx", move |h| {
        for _ in 0..total {
            let _ = rx.recv(h);
        }
        l.record(h.global_now().since(SimTime::ZERO));
    });
    for s in 1..=senders {
        let net2 = net.clone();
        engine.spawn(format!("tx{s}"), move |h| {
            for _ in 0..messages {
                net2.send(h, NodeId(s), NodeId(0), 0, 4096 + CONTROL_MESSAGE_BYTES);
            }
        });
    }
    engine.run().expect("probe must terminate");
    last.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmpm2_madeleine::profiles;

    #[test]
    fn contended_fan_in_is_slower_than_ideal() {
        let model = profiles::bip_myrinet();
        let ideal = probe_fan_in(&model, TransportTuning::ideal(), 3, 4);
        let contended = probe_fan_in(&model, TransportTuning::contended(), 3, 4);
        assert!(contended > ideal, "{contended} vs {ideal}");
    }
}
