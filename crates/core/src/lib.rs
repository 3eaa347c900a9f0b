//! # dsmpm2-core — the DSM-PM2 generic core
//!
//! This crate is the reproduction of the paper's central contribution: a
//! *platform* for designing, implementing and experimenting with
//! multithreaded DSM consistency protocols. It provides the generic layers of
//! Figure 1 of the paper:
//!
//! * the **DSM page manager** ([`PageTable`], [`PageEntry`], [`FrameStore`])
//!   — a distributed page table with generic fields protocols reuse as they
//!   see fit;
//! * the **DSM communication module** ([`DsmRuntime::send_page_request`],
//!   [`DsmRuntime::send_page`], [`DsmRuntime::send_invalidate`],
//!   [`DsmRuntime::send_burst`], ...) built on PM2 RPC;
//! * **access detection** (the typed accessors of [`DsmThreadCtx`], which
//!   fault in software and re-execute the access after the handler runs);
//! * the **DSM protocol library** ([`protolib`]) — thread-safe building
//!   blocks: bring a page copy, migrate the thread to the data, invalidate a
//!   copyset, twins and diffs;
//! * the **DSM protocol policy layer** ([`DsmProtocol`],
//!   [`DsmRuntime::register_protocol`], [`DsmRuntime::set_default_protocol`])
//!   — a protocol is a type implementing the 8 actions, each with a default,
//!   registered at run time and selectable per allocated region
//!   ([`DsmAttr`]);
//! * **synchronization** ([`LockId`], [`BarrierId`]) with consistency hooks
//!   at acquire/release, as required by the relaxed models.
//!
//! The built-in protocols of Table 2 live in the companion crate
//! `dsmpm2-protocols`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod access;
mod comm;
pub mod costs;
mod ctx;
mod diff;
mod frames;
mod msg;
pub mod mutant;
mod page;
mod page_table;
mod protocol;
pub mod protolib;
mod runtime;
mod stats;
mod sync;
mod verify;

pub use access::DsmScalar;
pub use comm::{DsmRpc, SVC_BARRIER, SVC_DSM, SVC_LOCK_ACQUIRE, SVC_LOCK_RELEASE};
pub use costs::DsmCosts;
pub use ctx::{DsmThreadCtx, ServerCtx};
pub use diff::{DiffRun, PageDiff};
pub use frames::{Frame, FrameStore};
pub use msg::{DsmMsg, Invalidation, PageRequest, PageTransfer};
pub use page::{
    line_of_offset, line_range, lines_per_page, pages_covering, Access, DsmAddr, LineIx, PageId,
    Unit, LINE0, MIN_LINE_SIZE, PAGE_SIZE, SHARED_BASE,
};
pub use page_table::{PageEntry, PageTable, UnitView};
pub use protocol::{DsmProtocol, FaultInfo, ProtocolId};
pub use runtime::{DsmAttr, DsmRuntime, HomePolicy, PageMeta};
pub use stats::{DsmStats, DsmStatsSnapshot};
pub use sync::{BarrierId, LockId};
pub use verify::{
    install_global_verify_hooks, ConsistencyModel, MemAccess, SyncEvent, VerifyHooks,
    VerifyHooksGuard,
};

/// Convenience re-exports from the runtime layers below.
pub use dsmpm2_madeleine::{NodeId, Topology};
pub use dsmpm2_pm2::{
    Engine, LossyConfig, PermutedConfig, Pm2Cluster, Pm2Config, Pm2ThreadState, SimDuration,
    SimTime, ThreadId, TransportTuning, WireStatsSnapshot,
};
pub use dsmpm2_sim::SliceCell;
