//! Cluster configuration and PM2 software cost constants.

use dsmpm2_madeleine::{profiles, NetworkModel, TransportTuning};
use dsmpm2_sim::SimDuration;

/// Software-path cost constants of the PM2 runtime itself (independent of the
/// interconnect). These model the user-level thread package (Marcel) and the
/// RPC dispatch machinery.
#[derive(Clone, Debug, PartialEq)]
pub struct Pm2Costs {
    /// Demultiplexing an incoming message to its service handler, in µs.
    pub rpc_dispatch_us: f64,
    /// Creating a (user-level) thread to run an RPC handler, in µs.
    pub thread_create_us: f64,
    /// A user-level context switch between Marcel threads, in µs.
    pub context_switch_us: f64,
    /// Default stack size assumed for application threads, in bytes. The
    /// paper's microbenchmark uses threads with ~1 kB stacks.
    pub default_stack_bytes: usize,
}

impl Default for Pm2Costs {
    fn default() -> Self {
        Pm2Costs {
            rpc_dispatch_us: 1.0,
            thread_create_us: 3.0,
            context_switch_us: 0.5,
            default_stack_bytes: 1024,
        }
    }
}

impl Pm2Costs {
    /// RPC dispatch cost as a virtual duration.
    pub fn rpc_dispatch(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.rpc_dispatch_us)
    }

    /// Thread creation cost as a virtual duration.
    pub fn thread_create(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.thread_create_us)
    }

    /// Context switch cost as a virtual duration.
    pub fn context_switch(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.context_switch_us)
    }
}

/// Configuration of a simulated PM2 cluster: the one value that describes a
/// run's deployment — node count, network profile, transport backend and the
/// DSM layer's default coherence granularity — to every layer.
#[derive(Clone, Debug)]
pub struct Pm2Config {
    /// Number of cluster nodes.
    pub num_nodes: usize,
    /// Interconnect cost model (see [`dsmpm2_madeleine::profiles`]).
    pub network: NetworkModel,
    /// PM2 software cost constants.
    pub costs: Pm2Costs,
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
            costs: Pm2Costs::default(),
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
        let costs = Pm2Costs::default();
        let net = profiles::bip_myrinet();
        assert!(costs.rpc_dispatch() < net.control_time());
        assert!(costs.thread_create() < net.control_time());
        assert_eq!(costs.default_stack_bytes, 1024);
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
