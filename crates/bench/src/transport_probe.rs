//! Virtual-time probes of the transport backends, used by the `compare`
//! perf gate (which pins the `Ideal` backend to the calibrated cost model).

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_madeleine::{
    Network, NetworkModel, NodeId, Topology, TransportTuning, CONTROL_MESSAGE_BYTES,
};
use dsmpm2_sim::{Engine, SimDuration, SimTime};

/// Virtual arrival time of a single, uncontended 4 kB page transfer (plus
/// control header) between two otherwise idle nodes under `tuning`. For the
/// `Ideal` backend this must equal `model.page_transfer_time(4096)` exactly
/// — the calibration seam the `compare` gate pins.
pub fn probe_single_transfer(model: &NetworkModel, tuning: TransportTuning) -> SimDuration {
    let mut engine = Engine::new();
    let net: Network<u8> =
        Network::with_transport(engine.ctl(), model.clone(), Topology::flat(2), tuning);
    let arrived = Arc::new(Mutex::new(SimTime::ZERO));
    let rx = net.endpoint(NodeId(1));
    let a = arrived.clone();
    engine.spawn("rx", move |h| {
        let _ = rx.recv(h);
        *a.lock() = h.global_now();
    });
    let net2 = net.clone();
    engine.spawn("tx", move |h| {
        net2.send(h, NodeId(0), NodeId(1), 0, 4096 + CONTROL_MESSAGE_BYTES);
    });
    engine.run().expect("probe must terminate");
    let arrived = *arrived.lock();
    arrived.since(SimTime::ZERO)
}

/// Virtual completion time of a fan-in burst: `senders` nodes each fire
/// `messages` back-to-back 4 kB transfers at node 0 at virtual time zero;
/// returns the last arrival. Under `Contended` the shared ingress NIC
/// serializes the burst; under `Ideal` the transfers overlap for free.
pub fn probe_fan_in(
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
    let last = Arc::new(Mutex::new(SimTime::ZERO));
    let rx = net.endpoint(NodeId(0));
    let l = last.clone();
    let total = senders * messages;
    engine.spawn("rx", move |h| {
        for _ in 0..total {
            let _ = rx.recv(h);
        }
        *l.lock() = h.global_now();
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
    let last = *last.lock();
    last.since(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmpm2_madeleine::profiles;

    #[test]
    fn ideal_probe_matches_the_calibrated_model_exactly() {
        for model in profiles::all() {
            let probed = probe_single_transfer(&model, TransportTuning::ideal());
            assert_eq!(probed, model.page_transfer_time(4096), "{}", model.name);
        }
    }

    #[test]
    fn contended_fan_in_is_slower_than_ideal() {
        let model = profiles::bip_myrinet();
        let ideal = probe_fan_in(&model, TransportTuning::ideal(), 3, 4);
        let contended = probe_fan_in(&model, TransportTuning::contended(), 3, 4);
        assert!(contended > ideal, "{contended} vs {ideal}");
    }
}
