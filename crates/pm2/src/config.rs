//! Cluster configuration and PM2 software cost constants.

use dsmpm2_madeleine::{profiles, NetworkModel, TransportTuning};
use dsmpm2_sim::SimDuration;

/// Demultiplexing an incoming message to its service handler: what one
/// message occupies its node's serial RPC dispatcher for.
pub const RPC_DISPATCH: SimDuration = SimDuration::from_micros(1);

/// Creating the (user-level, Marcel) thread that runs an RPC handler, charged
/// on top of [`RPC_DISPATCH`] to a service that asks for one.
pub const THREAD_CREATE: SimDuration = SimDuration::from_micros(3);

/// Configuration of a simulated PM2 cluster: the one value that describes a
/// run's deployment — node count, network profile, transport backend and the
/// DSM layer's default coherence granularity — to every layer.
#[derive(Clone, Debug)]
pub struct Pm2Config {
    /// Number of cluster nodes.
    pub num_nodes: usize,
    /// Interconnect cost model (see [`dsmpm2_madeleine::profiles`]).
    pub network: NetworkModel,
    /// Default coherence granularity in bytes of the DSM allocations made on
    /// this cluster: `None` (the default) manages whole pages; `Some(bytes)`
    /// must divide the page size and splits every page into
    /// independently-owned lines of that many bytes. A region's allocation
    /// attributes override it, and protocols without sub-page coherence
    /// clamp it back to whole pages.
    pub granularity: Option<usize>,
    /// The wire-level transport backend: the default is the `Ideal`
    /// uncontended pipe of the paper's cost model.
    pub transport: TransportTuning,
}

impl Pm2Config {
    /// A cluster of `num_nodes` nodes over the given network profile.
    pub fn new(num_nodes: usize, network: NetworkModel) -> Self {
        Pm2Config {
            num_nodes,
            network,
            granularity: None,
            transport: TransportTuning::default(),
        }
    }

    /// Replace the wire-level transport backend.
    pub fn with_transport_tuning(mut self, transport: TransportTuning) -> Self {
        self.transport = transport;
        self
    }

    /// The default experimental platform of the paper: BIP/Myrinet.
    pub fn bip_myrinet(num_nodes: usize) -> Self {
        Pm2Config::new(num_nodes, profiles::bip_myrinet())
    }

    /// SISCI/SCI cluster (used for the Java-consistency experiments).
    pub fn sisci_sci(num_nodes: usize) -> Self {
        Pm2Config::new(num_nodes, profiles::sisci_sci())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_small_relative_to_network() {
        let net = profiles::bip_myrinet();
        assert!(RPC_DISPATCH < net.control_time());
        assert!(THREAD_CREATE < net.control_time());
    }

    #[test]
    fn named_constructors_pick_the_right_profile() {
        assert_eq!(Pm2Config::bip_myrinet(4).network.name, "BIP/Myrinet");
        assert_eq!(Pm2Config::sisci_sci(2).network.name, "SISCI/SCI");
        assert_eq!(Pm2Config::bip_myrinet(4).num_nodes, 4);
    }

    #[test]
    fn granularity_defaults_to_whole_pages() {
        assert_eq!(Pm2Config::bip_myrinet(2).granularity, None);
    }

    #[test]
    fn transport_tuning_defaults_to_ideal_and_threads_through() {
        let config = Pm2Config::bip_myrinet(2);
        assert_eq!(config.transport, TransportTuning::ideal());
        let contended =
            Pm2Config::bip_myrinet(2).with_transport_tuning(TransportTuning::contended());
        assert_eq!(contended.transport, TransportTuning::Contended);
        let lossy = Pm2Config::bip_myrinet(2).with_transport_tuning(TransportTuning::lossy(7));
        assert!(matches!(lossy.transport, TransportTuning::Lossy(c) if c.seed == 7));
    }
}
