//! # dsmpm2-pm2 — the PM2 runtime model
//!
//! PM2 ("Parallel Multithreaded Machine") is the runtime DSM-PM2 is built on:
//! user-level threads (Marcel), portable communication (Madeleine), RPC-based
//! node interaction, iso-address allocation and preemptive thread migration.
//! This crate models those services on top of the simulation engine:
//!
//! * [`Pm2Cluster`] — boots a cluster of nodes with a service registry, the
//!   per-node serial RPC dispatch (a function of each message's arrival
//!   event, not a thread) and the blocking/one-way RPC primitives. Each
//!   service counts its own calls, one-way sends and handlers
//!   ([`ServiceStats`], read through [`Pm2Cluster::rpc_report`]): the
//!   post-mortem monitoring of the RPC layer.
//! * [`Pm2Context`] / [`Pm2ThreadState`] — application threads with a current
//!   location and preemptive [`Pm2Context::migrate_to`] migration, which
//!   moves a [`THREAD_STACK_BYTES`] stack.
//!
//! Iso-address allocation needs no allocator of its own here: the simulated
//! cluster has one address space, so the DSM layer's `dsm_malloc` bumps
//! shared addresses itself and every node sees a region at the same address.
//!
//! The DSM generic core (crate `dsmpm2-core`) is built exclusively on this
//! API, mirroring the layering of the original system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
mod config;
mod context;
mod rpc;

pub use cluster::Pm2Cluster;
pub use config::{Pm2Config, RPC_DISPATCH, THREAD_CREATE};
pub use context::{Pm2Context, Pm2ThreadState, THREAD_STACK_BYTES};
pub use rpc::{
    downcast, service_fn, FnService, OpStat, RpcClass, RpcMessage, RpcPayload, RpcReply,
    RpcRequestCtx, RpcService, ServiceId, ServiceKey, ServiceStats,
};

/// Convenience re-exports of the layers below, so applications can depend on
/// a single crate for cluster setup.
pub use dsmpm2_madeleine::{
    profiles, LossyConfig, NetworkModel, NodeId, PermutedConfig, Topology, TransportTuning,
    WireStatsSnapshot,
};
pub use dsmpm2_sim::{
    BlockReason, Engine, EngineCtl, SimDuration, SimError, SimHandle, SimTime, ThreadId,
};
