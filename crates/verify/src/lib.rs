//! # dsmpm2-verify — schedule exploration, race detection, invariant checking
//!
//! This crate turns the deterministic simulation engine into a *verification
//! harness* for the DSM protocol stack, in three layers:
//!
//! * [`explorer`] — bounded schedule-space exploration. The engine's
//!   [`dsmpm2_sim::ScheduleController`] seam exposes every same-instant
//!   cross-shard event-order tie and (on a `Permuted` transport) every
//!   message-delivery slot as an explicit choice point; a DFS over
//!   decision paths, trailing canonical choices trimmed and bounded by a
//!   preemption budget, enumerates the schedules of small [`scenario`]
//!   configurations exhaustively, each path once.
//! * [`hb`] — a happens-before race detector: vector clocks threaded
//!   through lock acquire/release and barrier rounds over the event log
//!   recorded by the core's [`dsmpm2_core::VerifyHooks`] seam. Conflicting
//!   unordered accesses are findings exactly on pages whose protocol
//!   declares a relaxed consistency model — a race on `erc_sw` is a bug in
//!   the application-protocol contract, the same pair under `li_hudak`'s
//!   sequential consistency is benign.
//! * per-step **invariant oracles** ([`log::RecordingHooks`]) — probed at
//!   every application access: single-writer exclusivity, copyset ⊇
//!   readers, owner-version monotonicity, no access to a missing frame.
//!
//! The `verify_gate` binary wires all three into the CI mutation gate: seven
//! historical protocol bugs are compiled back in behind `--cfg dsm_mutant`
//! ([`dsmpm2_core::mutant`]) and every one must be caught while an
//! unmutated build passes clean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod explorer;
pub mod hb;
pub mod log;
pub mod runner;
pub mod scenario;

pub use explorer::{explore, Choice, ExploreConfig, ExploreStats, ReplayController};
pub use log::{Finding, FindingKind, LogRecord, RecordingHooks};
pub use runner::{run_scenario, with_recording, Instrument, RunConfig, RunOutcome};
pub use scenario::{Op, Scenario, ThreadSpec};
