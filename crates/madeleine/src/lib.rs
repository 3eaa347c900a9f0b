//! # dsmpm2-madeleine — portable communication layer model
//!
//! The PM2 runtime achieves network portability through the Madeleine
//! communication library, which was ported to BIP, SISCI, VIA, TCP and MPI.
//! This crate models that layer for the simulated cluster:
//!
//! * [`NetworkModel`] — cost model (latency, bandwidth, migration cost) of one
//!   network interface, calibrated from the paper's measurements
//!   ([`profiles`]).
//! * [`Network`] — the transport: typed messages between nodes with
//!   virtual-time delivery delays derived from the model.
//! * [`Transport`] / [`TransportBackend`] — the pluggable wire-level seam:
//!   `Ideal` uncontended pipes (default), `Contended` per-node NIC
//!   serialization, or `Lossy` deterministic drop/duplication with
//!   retransmission — selected per cluster via [`TransportTuning`].
//! * [`NetStats`] / [`WireStats`] — communication counters feeding the
//!   monitoring reports and the transport ablations.
//!
//! Switching a whole DSM application from one interconnect to another is a
//! one-line change of profile, exactly like relinking a PM2 program against a
//! different Madeleine driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod model;
pub mod profiles;
mod stats;
mod topology;
mod transport;

pub use backend::{
    build_transport, LossyConfig, PermutedConfig, Transport, TransportBackend, TransportTuning,
};
pub use model::{NetworkModel, CONTROL_MESSAGE_BYTES};
pub use stats::{LinkCounters, NetStats, NetStatsSnapshot, WireStats, WireStatsSnapshot};
pub use topology::{NodeId, Topology};
pub use transport::{Delivery, DeliveryHook, DeliverySink, Envelope, Network, PreSendHook};
