//! # dsmpm2-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the execution substrate on which the DSM-PM2
//! reproduction runs. The original system executes on real clusters with the
//! PM2 user-level thread package; here, "cluster nodes" and "PM2 threads" are
//! simulated. A simulated thread runs on a *worker* — a stackful coroutine
//! whose slices execute inline on the scheduler's own OS thread, mirroring
//! how Marcel multiplexes user-level threads onto a kernel thread — and
//! control passes to exactly one simulated thread at a time, in the order
//! dictated by one virtual-time event queue (a short sorted window of the
//! next events, a binary heap only for what overflows it). A worker whose
//! thread has finished runs the next thread spawned, the way PM2 serves a
//! request by a pre-existing thread, so a spawn costs a wake, not a new
//! stack. Every worker has the same 1 MiB stack, committed lazily. On targets
//! without a stack switch (anything but x86-64) each worker is instead an OS
//! thread passing a futex-style baton; the choice is the platform's, made at
//! compile time, and both produce the same fully deterministic execution in
//! *virtual time*, which is what the benchmark harness measures.
//!
//! ## Programming model
//!
//! ```
//! use dsmpm2_sim::{Engine, SimDuration};
//!
//! let mut engine = Engine::new();
//! engine.spawn("worker", |h| {
//!     h.charge(SimDuration::from_micros(10)); // local compute
//!     h.sleep(SimDuration::from_micros(5));   // yield + advance time
//!     assert_eq!(h.now().as_micros_f64(), 15.0);
//! });
//! engine.run().unwrap();
//! ```
//!
//! Key pieces:
//!
//! * [`Engine`] — owns the event queue and the scheduler loop.
//! * [`SimHandle`] — per-thread handle: virtual clock, compute charging,
//!   sleeping, spawning.
//! * [`WaitSet`] — condition-variable-like wait queues, keyed, and the one
//!   way a simulated thread blocks (channel receives, DSM page and ack
//!   waits, RPC replies, locks, barriers).
//! * [`SliceCell`] — state shared between simulated threads, borrowed
//!   without a lock because the hand-off already orders its users (used by
//!   the scheduler itself, the RPC layer, the transport and the DSM page
//!   tables, frame stores and counters).
//! * [`channel`] — virtual-time message channels with per-message delivery
//!   delays (used by the Madeleine transport model).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cell;
mod channel;
mod continuation;
mod engine;
mod error;
mod handle;
mod queue;
mod thread;
mod time;
mod wait;

pub use cell::{SliceCell, SliceRc, SliceRef, SliceWeak};
pub use channel::{channel, channel_on, SimReceiver, SimSender};
pub use engine::{BlockReason, Engine, EngineCtl, EventChoice, RunReport, ScheduleController};
pub use error::SimError;
pub use handle::SimHandle;
pub use thread::ThreadId;
pub use time::{SimDuration, SimTime};
pub use wait::WaitSet;
