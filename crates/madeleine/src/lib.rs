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
//!   virtual-time delivery delays derived from the model, each handed at its
//!   arrival to one delivery callback fixed when the network is built.
//! * [`Transport`] / [`TransportTuning`] — the pluggable wire-level seam:
//!   `Ideal` uncontended pipes (default), `Contended` per-node NIC
//!   serialization, `Lossy` deterministic drop/duplication with
//!   retransmission, or `Permuted` explorer-chosen delivery slots — selected
//!   per cluster.
//! * [`NetStats`] — the network's one counter store (message and byte
//!   totals and the wire totals of [`WireStatsSnapshot`]), feeding the
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

pub use backend::{build_transport, LossyConfig, PermutedConfig, Transport, TransportTuning};
pub use model::{NetworkModel, CONTROL_MESSAGE_BYTES};
pub use stats::{NetStats, WireStatsSnapshot};
pub use topology::{NodeId, Topology};
pub use transport::{Deliver, DeliverySink, Envelope, Network, PreSendHook};
