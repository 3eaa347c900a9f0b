//! # dsm-pm2 — a Rust reproduction of the DSM-PM2 platform
//!
//! DSM-PM2 (Antoniu & Bougé, IPDPS/HIPS 2001) is a portable implementation
//! platform for *multithreaded DSM consistency protocols*: a generic core
//! (page manager, DSM communication, access detection, synchronization) on
//! top of which consistency protocols are written as small sets of event
//! handlers, registered at run time, and compared experimentally.
//!
//! This crate is the facade of the reproduction: it re-exports every layer so
//! applications (and the examples in `examples/`) can depend on a single
//! crate.
//!
//! ```
//! use dsm_pm2::prelude::*;
//!
//! let engine = Engine::new();
//! let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
//! let protos = register_builtin_protocols(&rt);
//! rt.set_default_protocol(protos.li_hudak);
//!
//! let x = rt.dsm_malloc(4096, DsmAttr::default());
//! let done = rt.create_barrier(2, None);
//! rt.spawn_dsm_thread(NodeId(0), "writer", move |ctx| {
//!     ctx.write::<u64>(x, 34 + 1);
//!     ctx.dsm_barrier(done);
//! });
//! rt.spawn_dsm_thread(NodeId(1), "reader", move |ctx| {
//!     ctx.dsm_barrier(done);
//!     assert_eq!(ctx.read::<u64>(x), 35);
//! });
//! let mut engine = engine;
//! engine.run().unwrap();
//! ```
//!
//! ## Layers (bottom to top)
//!
//! * [`sim`] — deterministic discrete-event engine and cooperative threads.
//! * [`madeleine`] — network cost models (BIP/Myrinet, TCP/Myrinet,
//!   TCP/FastEthernet, SISCI/SCI) and the message transport.
//! * [`pm2`] — the PM2 runtime model: cluster, RPC with per-service
//!   statistics, thread migration.
//! * [`core`] — the DSM-PM2 generic core: page manager, DSM communication,
//!   access detection, protocol registry, protocol library, locks/barriers.
//! * [`protocols`] — the six built-in protocols of the paper, three extension
//!   protocols (fixed-manager sequential consistency, entry consistency, lazy
//!   release consistency with write notices).
//! * [`hyperion`] — the object layer used by the Java-consistency protocols.
//! * [`workloads`] — the applications of the evaluation (TSP, map colouring,
//!   Jacobi), the SPLASH-2-style kernels of the paper's outlook (matrix
//!   multiply, red-black SOR, LU, radix sort) and microkernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use dsmpm2_core as core;
pub use dsmpm2_hyperion as hyperion;
pub use dsmpm2_madeleine as madeleine;
pub use dsmpm2_pm2 as pm2;
pub use dsmpm2_protocols as protocols;
pub use dsmpm2_sim as sim;
pub use dsmpm2_workloads as workloads;

/// Convenient glob-import for applications: `use dsm_pm2::prelude::*;`.
pub mod prelude {
    pub use dsmpm2_core::{
        Access, BarrierId, DsmAddr, DsmAttr, DsmRuntime, DsmThreadCtx, HomePolicy, LockId, PageId,
        ProtocolId, PAGE_SIZE,
    };
    pub use dsmpm2_madeleine::{profiles, NetworkModel, NodeId};
    pub use dsmpm2_pm2::{Pm2Cluster, Pm2Config};
    pub use dsmpm2_protocols::{
        register_all_protocols, register_builtin_protocols, register_extension_protocols,
        BuiltinProtocols, ExtensionProtocols,
    };
    pub use dsmpm2_sim::{Engine, SimDuration, SimTime};
}
