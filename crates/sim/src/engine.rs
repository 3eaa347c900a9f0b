//! The discrete-event scheduler.
//!
//! The engine owns a set of priority queues ("shards") of events ordered by
//! `(virtual time, sequence number)`. Every event carries a *shard key*
//! (upper layers use the cluster node id; node-less events fall back to the
//! spawning thread's key), and each shard is owned by one *worker*.
//!
//! With the default `workers = 1` configuration the engine behaves exactly
//! like the historical single-threaded scheduler: one OS thread pops the
//! globally smallest event and hands the baton to at most one simulated
//! thread at a time. With `workers > 1` the engine drives the workers in
//! lock-step over virtual *instants*: all events at the current minimum time
//! execute in parallel across workers (each worker still runs its own events
//! one at a time, in sequence order), and every side effect produced during
//! the instant — wake-ups, scheduler calls, channel enqueues, spawns — is
//! buffered into the executing worker's *outbox*, tagged with the global
//! sequence number of the event that produced it. Before the clock advances,
//! the coordinator merges the outboxes in ascending parent-sequence order
//! and assigns fresh global sequence numbers in that order.
//!
//! Because each worker executes its instant-events in ascending sequence
//! order, and the merge orders effects by parent sequence, the resulting
//! global event order is exactly the order the single-worker engine would
//! have produced: runs are deterministic for a given program, and the final
//! memory and virtual time are independent of the worker count — which is
//! what the conformance matrix asserts. (Event *counts* may differ slightly
//! across worker counts: a same-instant cross-shard message that a polling
//! receiver would have observed immediately under one worker is deferred to
//! the instant's merge under many, costing one extra same-instant park/wake.
//! Virtual time and memory are unaffected; all blocking primitives re-check
//! their condition in a loop.)

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::continuation::{Coro, DEFAULT_STACK_BYTES};
use crate::error::SimError;
use crate::handle::SimHandle;
use crate::thread::{Backing, GrantSource, SchedHandle, ThreadId, ThreadSlot};
use crate::time::{SimDuration, SimTime};

/// Cap on the number of recycled continuation stacks kept around. Beyond
/// this, finished stacks are simply freed.
const STACK_POOL_CAP: usize = 32;

/// Marker panic payload used to unwind simulated threads during teardown.
pub(crate) struct ShutdownUnwind;

/// Best-effort extraction of a human-readable message from a panic payload,
/// so the payload is propagated as the run's error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Instant context: which worker/event is executing on this OS thread.
// ---------------------------------------------------------------------------

/// Per-OS-thread record of the event currently executing. Set when a worker
/// (or the coordinator) grants the baton to a simulated thread or runs a
/// scheduler callback; cleared when the thread parks again. Pushes into the
/// engine consult it to decide between the direct path (single active shard)
/// and the buffered per-worker outbox (parallel instant).
#[derive(Clone, Copy)]
pub(crate) struct InstantCtx {
    /// Identity of the engine (`Arc::as_ptr` of its `Shared`), so a push
    /// into a *different* engine is never mis-buffered.
    pub engine: usize,
    /// Index of the worker executing the parent event.
    pub worker: usize,
    /// Scheduled time of the parent event (its heap key, which together
    /// with `parent_seq` is the engine's execution order).
    pub parent_time: u64,
    /// Global sequence number of the parent event.
    pub parent_seq: u64,
    /// Shard key of the parent event (inherited by key-less pushes).
    pub shard: u64,
    /// True during a parallel instant: effects must be buffered.
    pub defer: bool,
    /// Monotone counter of ordered emissions (wait-set registrations) made
    /// by the parent event so far.
    pub sub: u64,
}

thread_local! {
    static INSTANT_CTX: Cell<Option<InstantCtx>> = const { Cell::new(None) };
}

// The four accessors below are the only code that touches `INSTANT_CTX`, and
// all four are `#[inline(never)]` on purpose. LLVM treats a thread-local's
// address as constant within a function; a continuation's frames span
// `raw_switch`, and the slice that resumes them may run on another OS thread
// (the coordinator at one instant, a worker at the next). Inlined into such a
// frame, an access after the switch would reuse the address computed before it
// and read or write the *previous* worker's context — which is what made
// release builds diverge at two or more workers. Out of line, the address is
// recomputed on every call, on whichever OS thread is executing it.

#[inline(never)]
pub(crate) fn set_instant_ctx(ctx: Option<InstantCtx>) {
    INSTANT_CTX.with(|c| c.set(ctx));
}

#[inline(never)]
pub(crate) fn instant_ctx() -> Option<InstantCtx> {
    INSTANT_CTX.with(|c| c.get())
}

/// Update the shard key recorded in the current instant context (thread
/// migration re-homes a running thread mid-event).
#[inline(never)]
pub(crate) fn set_instant_ctx_shard(shard: u64) {
    INSTANT_CTX.with(|c| {
        if let Some(mut ctx) = c.get() {
            ctx.shard = shard;
            c.set(Some(ctx));
        }
    });
}

/// Fallback for ordered emissions made outside any simulated context.
static EXTERNAL_ORDER: AtomicU64 = AtomicU64::new(0);

/// A totally ordered key identifying one "emission point" in the canonical
/// execution order: `(parent event time, parent event sequence, emission
/// index within the event)` — the first two components are exactly the
/// event heap's ordering, i.e. the order events *execute* in (an event
/// scheduled early for a late instant executes after a later-scheduled
/// event for an earlier instant). Emissions from outside the engine (setup
/// code) sort last, in program order. Used by [`crate::WaitSet`] and
/// [`crate::TickOutbox`] so that waiter/bucket order is a pure function of
/// the canonical execution order rather than of wall-clock interleaving
/// between workers — and coincides with the historical wall-clock FIFO on a
/// single worker.
#[inline(never)]
pub(crate) fn next_order_key() -> (u64, u64, u64) {
    INSTANT_CTX.with(|c| match c.get() {
        Some(mut ctx) => {
            let key = (ctx.parent_time, ctx.parent_seq, ctx.sub);
            ctx.sub += 1;
            c.set(Some(ctx));
            key
        }
        None => (
            u64::MAX,
            u64::MAX,
            EXTERNAL_ORDER.fetch_add(1, Ordering::SeqCst),
        ),
    })
}

// ---------------------------------------------------------------------------
// Tuning / configuration
// ---------------------------------------------------------------------------

/// How the scheduler hands control to a simulated thread for one slice.
///
/// The mode is purely a wall-clock mechanism: the virtual-time behaviour of
/// a run — final memory, virtual time, event order — is bit-identical across
/// all three, which the conformance matrix asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HandoffMode {
    /// Run the slice as a stackful continuation on the scheduler's own OS
    /// thread: a grant is a ~dozen-instruction stack switch, no OS thread
    /// wakes up. The default. Unsupported targets (non-x86-64) silently
    /// fall back to [`HandoffMode::Baton`].
    Continuation,
    /// The PR 3 futex-style baton: each simulated thread is backed by a
    /// dedicated OS thread; grant/park are one atomic store plus one
    /// `unpark` per side. Kept as the per-thread fallback for workloads a
    /// fixed-size private stack cannot carry (deep recursion) and as a
    /// conformance baseline.
    Baton,
    /// The original Mutex+Condvar baton (the pre-PR 3 substrate), kept
    /// selectable so the `sched_handoff` microbenchmark can measure the
    /// true historical baseline.
    LegacyCondvar,
}

impl HandoffMode {
    /// The mode that will actually be used on this target: continuations
    /// downgrade to the OS-thread baton where no stack switch exists.
    pub fn effective(self) -> HandoffMode {
        match self {
            HandoffMode::Continuation if !crate::continuation::SUPPORTED => HandoffMode::Baton,
            mode => mode,
        }
    }

    /// Parse the `DSM_SIM_HANDOFF` environment values.
    fn parse(s: &str) -> Option<HandoffMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "continuation" | "coro" => Some(HandoffMode::Continuation),
            "baton" | "futex" => Some(HandoffMode::Baton),
            "legacy" | "condvar" | "legacy_condvar" => Some(HandoffMode::LegacyCondvar),
            _ => None,
        }
    }
}

/// Tuning knobs of the simulation engine itself (as opposed to the DSM-layer
/// knobs on `Pm2Config`). The default is the continuation hand-off on a
/// single worker; the baton and legacy-Condvar protocols stay selectable so
/// conformance tests can assert all three produce bit-identical runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimTuning {
    /// Scheduler/thread hand-off implementation. Defaults to the
    /// `DSM_SIM_HANDOFF` environment variable (`continuation` | `baton` |
    /// `legacy`) when set — mirroring `DSM_SIM_WORKERS`, so CI can re-run
    /// the whole suite per mode — otherwise [`HandoffMode::Continuation`].
    pub handoff: HandoffMode,
    /// Iterations of `spin_loop` a baton side burns before parking its OS
    /// thread. This is the *configured ceiling*: the engine derives the
    /// effective per-worker budget from it (see [`SimTuning::handoff_spin`]
    /// semantics in `SpinMap`), zeroing it when the scheduler participants
    /// oversubscribe the host's cores or when a worker drives only
    /// continuations (which never wait on another OS thread).
    pub handoff_spin: u32,
    /// Number of event-queue shards / scheduler workers. `1` (the default)
    /// is the historical single-threaded engine; larger values run
    /// same-instant events of different shards in parallel OS threads while
    /// preserving the deterministic event order. Defaults to the
    /// `DSM_SIM_WORKERS` environment variable when set.
    pub workers: usize,
}

impl Default for SimTuning {
    fn default() -> Self {
        SimTuning {
            handoff: default_handoff(),
            handoff_spin: default_handoff_spin(),
            workers: default_workers(),
        }
    }
}

/// Default hand-off mode: the `DSM_SIM_HANDOFF` environment variable when
/// set (the CI matrix re-runs the suite with it), otherwise continuations.
fn default_handoff() -> HandoffMode {
    static MODE: std::sync::OnceLock<HandoffMode> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("DSM_SIM_HANDOFF")
            .ok()
            .and_then(|v| HandoffMode::parse(&v))
            .unwrap_or(HandoffMode::Continuation)
    })
}

/// Spinning before parking only pays off when the peer can actually make
/// progress on another core; on a single-CPU host every spin iteration just
/// burns the quantum the peer needs, so park immediately. The choice only
/// affects wall-clock speed, never simulated behaviour.
fn default_handoff_spin() -> u32 {
    static SPIN: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *SPIN.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 64,
        _ => 0,
    })
}

/// Hard cap on the worker count: beyond this the per-instant coordination
/// cost dwarfs any conceivable parallelism win.
const MAX_WORKERS: usize = 64;

/// Default worker count: the `DSM_SIM_WORKERS` environment variable when set
/// (the CI matrix re-runs the test suite with it), otherwise 1.
fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("DSM_SIM_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|w| w.clamp(1, MAX_WORKERS))
            .unwrap_or(1)
    })
}

impl SimTuning {
    /// The pre-futex behaviour: every hand-off goes through Mutex+Condvar on
    /// a single worker. Used as the microbenchmark baseline and by
    /// conformance-matrix rows.
    pub fn legacy() -> Self {
        SimTuning {
            handoff: HandoffMode::LegacyCondvar,
            handoff_spin: 0,
            workers: 1,
        }
    }

    /// The PR 3 OS-thread futex baton (otherwise default tuning). Used by
    /// conformance-matrix rows and the hand-off microbenchmark.
    pub fn baton() -> Self {
        SimTuning::default().with_handoff(HandoffMode::Baton)
    }

    /// This tuning with an explicit hand-off mode.
    pub fn with_handoff(mut self, handoff: HandoffMode) -> Self {
        self.handoff = handoff;
        self
    }

    /// This tuning with an explicit worker count (clamped to `1..=64`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.clamp(1, MAX_WORKERS);
        self
    }
}

// ---------------------------------------------------------------------------
// Per-worker spin budgets
// ---------------------------------------------------------------------------

/// Effective spin budget for one scheduler participant, derived from the
/// configured ceiling. Spinning before parking pays off only when the peer
/// the spinner waits for can make progress on another core *right now*:
/// each active worker pairs with at most one running simulated OS thread,
/// so a pool of `workers` workers needs `2 * workers` cores before spinning
/// beats parking. On an oversubscribed host every spin iteration burns the
/// quantum the peer needs. Pure function, unit-tested; only wall-clock
/// speed is affected, never simulated behaviour.
pub(crate) fn effective_spin(configured: u32, workers: usize, cores: usize) -> u32 {
    if cores <= 1 || 2 * workers > cores {
        0
    } else {
        configured
    }
}

/// Per-worker spin budgets, re-derived whenever the set of OS-thread-backed
/// (baton/legacy) simulated threads homed on a worker changes — at spawn, at
/// finish, and when a migration re-shards a thread
/// ([`crate::SimHandle::set_shard`]). A worker whose shard homes only
/// continuations never waits on another OS thread at a grant, so its budget
/// drops to zero; the historical implementation tuned one global budget
/// once, which both over-spun oversubscribed multi-worker runs and kept
/// spinning for workers that had nothing to spin for.
pub(crate) struct SpinMap {
    /// Effective budget per worker, read on every grant/park.
    budgets: Vec<AtomicU32>,
    /// Number of OS-thread-backed simulated threads currently homed on each
    /// worker's shard set.
    os_backed: Vec<AtomicU64>,
    /// `effective_spin(configured, workers, cores)` — the budget a worker
    /// gets while at least one OS-backed thread is homed on it.
    base: u32,
}

impl SpinMap {
    pub fn new(configured: u32, workers: usize, cores: usize) -> Self {
        SpinMap {
            budgets: (0..workers).map(|_| AtomicU32::new(0)).collect(),
            os_backed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            base: effective_spin(configured, workers, cores),
        }
    }

    fn worker_of(&self, shard_key: u64) -> usize {
        (shard_key % self.budgets.len() as u64) as usize
    }

    /// Budget for the worker owning `shard_key` (thread side of the baton).
    /// Relaxed: the budget is a wall-clock performance hint only — a stale
    /// read spins a few extra (or fewer) iterations before parking; no other
    /// state is published through it, and `retune`'s SeqCst store still
    /// becomes visible promptly.
    pub fn for_key(&self, shard_key: u64) -> u32 {
        self.budgets[self.worker_of(shard_key)].load(Ordering::Relaxed)
    }

    /// Budget for worker `w` (granting side of the baton). Relaxed: same
    /// hint-only reasoning as [`SpinMap::for_key`].
    pub fn for_worker(&self, w: usize) -> u32 {
        self.budgets[w].load(Ordering::Relaxed)
    }

    /// Budget for the coordinator's own waits (worker-pool round barriers):
    /// worth spinning only under the same core-subscription condition.
    pub fn scheduler_spin(&self) -> u32 {
        self.base
    }

    fn retune(&self, w: usize) {
        let budget = if self.os_backed[w].load(Ordering::SeqCst) > 0 {
            self.base
        } else {
            0
        };
        self.budgets[w].store(budget, Ordering::SeqCst);
    }

    /// An OS-thread-backed simulated thread is now homed on `shard_key`.
    pub fn home_os_thread(&self, shard_key: u64) {
        let w = self.worker_of(shard_key);
        self.os_backed[w].fetch_add(1, Ordering::SeqCst);
        self.retune(w);
    }

    /// An OS-thread-backed simulated thread left `shard_key` (finished, or
    /// migrated away).
    pub fn unhome_os_thread(&self, shard_key: u64) {
        let w = self.worker_of(shard_key);
        self.os_backed[w].fetch_sub(1, Ordering::SeqCst);
        self.retune(w);
    }

    /// Re-home an OS-thread-backed thread after a migration re-shards it.
    pub fn rehome_os_thread(&self, from_key: u64, to_key: u64) {
        if self.worker_of(from_key) != self.worker_of(to_key) {
            self.unhome_os_thread(from_key);
            self.home_os_thread(to_key);
        }
    }

    /// Number of OS-thread-backed simulated threads homed on worker `w`
    /// (test support for the migration re-tuning regression tests).
    #[cfg(test)]
    pub fn os_backed_count(&self, w: usize) -> u64 {
        self.os_backed[w].load(Ordering::SeqCst)
    }
}

/// Host core count used to derive spin budgets.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Spawn options and slice outcomes
// ---------------------------------------------------------------------------

/// Per-thread overrides for [`Engine::spawn_with`] /
/// [`crate::SimHandle::spawn_with`]. The defaults follow the engine tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpawnOptions {
    /// Force a hand-off mode for this thread regardless of the engine-wide
    /// [`SimTuning::handoff`]. The designed use is
    /// `Some(HandoffMode::Baton)`: an escape hatch for bodies a fixed-size
    /// continuation stack cannot carry (deep recursion), which then run on
    /// a dedicated OS thread with a guard page while the rest of the
    /// simulation stays on continuations.
    pub handoff: Option<HandoffMode>,
    /// Private stack size for this thread: the continuation's coroutine
    /// stack (default 1 MiB, committed lazily) or the backing OS thread's
    /// stack when combined with an OS-thread hand-off.
    pub stack_bytes: Option<usize>,
}

impl SpawnOptions {
    /// Options forcing the OS-thread baton for this thread.
    pub fn baton() -> Self {
        SpawnOptions {
            handoff: Some(HandoffMode::Baton),
            ..SpawnOptions::default()
        }
    }

    /// This set of options with an explicit continuation stack size.
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = Some(bytes);
        self
    }
}

/// Why a simulated thread yielded its slice back to the scheduler. Reified
/// at every yield site (sleep, wait sets, channels, DSM faults) so the
/// scheduler — and the profiling surface, [`Engine::block_profile`] — can
/// see *what* the simulation spends its blocking on, independent of the
/// hand-off mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BlockReason {
    /// Generic park with no annotated cause.
    Other = 0,
    /// Blocked on a [`crate::WaitSet`] without a finer-grained annotation.
    WaitSet = 1,
    /// Blocked receiving from a simulation channel.
    Channel = 2,
    /// Blocked on a DSM page fault (waiting for a page or diff to arrive).
    PageFault = 3,
    /// Blocked waiting for protocol acknowledgements (release/flush).
    Ack = 4,
    /// Blocked on an RPC reply.
    Rpc = 5,
    /// Blocked in a barrier round.
    Barrier = 6,
}

/// All reasons, in discriminant order (the [`Engine::block_profile`] rows).
pub(crate) const BLOCK_REASONS: [BlockReason; 7] = [
    BlockReason::Other,
    BlockReason::WaitSet,
    BlockReason::Channel,
    BlockReason::PageFault,
    BlockReason::Ack,
    BlockReason::Rpc,
    BlockReason::Barrier,
];

/// What a slice reported when it yielded: the scheduler-visible outcome of
/// one resumption of a simulated thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The thread advanced virtual time and scheduled its own wake-up.
    Yielded(SimTime),
    /// The thread blocked for `reason`; some other party will wake it.
    Blocked(BlockReason),
    /// The thread's body completed; it will never run again.
    Done,
}

/// Configuration for an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Upper bound on the number of processed events before the run aborts.
    /// Guards against runaway simulations in tests and benchmarks.
    pub max_events: u64,
    /// Human-readable label used in traces.
    pub name: String,
    /// Engine tuning knobs (baton hand-off selection, worker count).
    pub tuning: SimTuning,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_events: 50_000_000,
            name: "sim".to_string(),
            tuning: SimTuning::default(),
        }
    }
}

/// Summary of a completed simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time at which the last event was processed.
    pub final_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Number of times the baton was handed to a simulated thread.
    pub context_switches: u64,
    /// Total number of simulated threads spawned over the run.
    pub threads_spawned: u64,
    /// Number of virtual instants whose events were dispatched to more than
    /// one worker in parallel (always 0 with `workers = 1`).
    pub parallel_rounds: u64,
}

// ---------------------------------------------------------------------------
// Schedule control (the dsm-verify exploration seam)
// ---------------------------------------------------------------------------

/// One runnable alternative at a same-instant schedule choice point: the
/// lowest-sequence pending event of one shard key at the current virtual
/// instant. Executing any candidate preserves per-key (per-node) program
/// order; the *cross*-key order is exactly what a schedule explorer varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventChoice {
    /// Shard key of the candidate (upper layers use the cluster node id).
    pub shard_key: u64,
    /// Global sequence number of the candidate event. The candidate with the
    /// smallest sequence number is what the uncontrolled engine would run;
    /// candidates are presented in ascending sequence order, so index 0 is
    /// always the canonical choice.
    pub seq: u64,
    /// Thread the event would wake (`None` for scheduler calls such as
    /// message deliveries).
    pub wakes: Option<ThreadId>,
}

/// A hook consulted by the engine — and by permutation-aware transport
/// backends — at points where several orders are admissible and the engine
/// would otherwise resolve the tie canonically. Installing a controller
/// ([`Engine::set_controller`]) turns the deterministic engine into a
/// *controllable* one: a driver (the `dsm-verify` explorer) can replay a
/// recorded sequence of decisions and then deviate, enumerating the schedule
/// space of a program without touching the program itself.
///
/// Returning the canonical choice everywhere reproduces the uncontrolled run
/// bit for bit; that is what the replay proptest asserts.
pub trait ScheduleController: Send + Sync {
    /// Choose which same-instant event executes next. `choices` holds one
    /// candidate per shard key with pending events at the current instant, in
    /// ascending sequence order (index 0 = canonical). Only called when
    /// `choices.len() > 1`. The return value is an index into `choices`;
    /// out-of-range values are clamped to the last candidate.
    fn choose_event(&self, now: SimTime, choices: &[EventChoice]) -> usize;

    /// Choose a delivery slot for one message on a permutation-aware
    /// transport (`TransportBackend::Permuted`): a value in `0..options`,
    /// where 0 is the canonical (ideal) delivery and higher values add
    /// bounded extra arrival slack, permuting cross-link delivery order
    /// while per-link FIFO is preserved by the transport itself.
    fn choose_delivery(&self, now: SimTime, from: u64, to: u64, options: u32) -> u32;
}

// ---------------------------------------------------------------------------
// Events and buffered effects
// ---------------------------------------------------------------------------

enum EventKind {
    /// Hand the baton to a parked simulated thread. The slot pointer is a
    /// cache: a thread scheduling its *own* wake-up embeds its slot so the
    /// hot path (one wake per simulated step) skips the global thread-map
    /// lock. Cross-thread wakes pass `None` and resolve through the map.
    Wake(ThreadId, Option<Arc<ThreadSlot>>),
    /// Execute a closure on the scheduler (used for delayed message delivery).
    Call(Box<dyn FnOnce(&EngineCtl) + Send>),
}

struct Event {
    time: u64,
    seq: u64,
    /// Shard key the event was scheduled with (inherited by key-less pushes
    /// made while it executes).
    shard: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One side effect buffered during a parallel instant, applied at the merge
/// barrier in canonical `(parent seq, emission order)` order.
enum Effect {
    /// An event push (wake, call, spawn wake).
    Push {
        time: u64,
        shard: u64,
        kind: EventKind,
    },
    /// An arbitrary engine-state mutation that must run in canonical order
    /// (channel enqueues: their per-channel sequence numbers break delivery
    /// ties, so they must be assigned in canonical order, not wall-clock
    /// order).
    Action(Box<dyn FnOnce(&EngineCtl) + Send>),
}

struct ThreadEntry {
    slot: Arc<ThreadSlot>,
    join: Option<JoinHandle<()>>,
    /// Daemon threads (network dispatchers, protocol service loops) do not
    /// keep the simulation alive and are not reported as deadlocked.
    daemon: bool,
}

// ---------------------------------------------------------------------------
// Worker control
// ---------------------------------------------------------------------------

const W_IDLE: u32 = 0;
const W_REQUESTED: u32 = 1;
const W_RUNNING: u32 = 2;
const W_DONE: u32 = 3;
const W_QUIT: u32 = 4;

/// Coordinator → worker command mailbox (one per worker OS thread).
struct WorkerCtrl {
    state: AtomicU32,
    /// Virtual instant the requested round must drain.
    round_time: AtomicU64,
    /// The worker's OS thread, for coordinator-side unparks.
    os: std::sync::OnceLock<std::thread::Thread>,
}

impl WorkerCtrl {
    fn new() -> Self {
        WorkerCtrl {
            state: AtomicU32::new(W_IDLE),
            round_time: AtomicU64::new(0),
            os: std::sync::OnceLock::new(),
        }
    }
}

/// One event-queue shard and the state of the worker that owns it.
struct Shard {
    queue: Mutex<BinaryHeap<Reverse<Event>>>,
    /// The owning worker's scheduler handle: simulated threads granted by
    /// this worker unpark it through their slot's granter pointer.
    sched: Arc<SchedHandle>,
    /// Effects buffered during a parallel instant, tagged with the producing
    /// event's global sequence number (ascending within the vector).
    effects: Mutex<Vec<(u64, Effect)>>,
    ctrl: WorkerCtrl,
    /// Thread-id allocation lane for spawns executed on this worker during
    /// parallel instants (keeps ids deterministic without cross-worker
    /// coordination).
    next_tid: AtomicU64,
}

/// Base of the per-worker thread-id lanes: ids allocated during parallel
/// instants are `(worker + 1) << 32 | local`, disjoint from the sequential
/// lane used by setup code and single-shard instants (bounded by the event
/// budget, far below 2^32).
const TID_LANE_BASE: u64 = 1 << 32;

pub(crate) struct Shared {
    now: AtomicU64,
    seq: AtomicU64,
    shards: Vec<Shard>,
    /// The coordinator's (run()-calling thread's) handle; also the default
    /// granter of freshly created slots.
    coord: Arc<SchedHandle>,
    threads: Mutex<HashMap<u64, ThreadEntry>>,
    next_tid: AtomicU64,
    panic_info: Mutex<Option<(String, String)>>,
    /// Raised when `panic_info` holds something: lets the scheduler loop
    /// poll a plain atomic per event instead of taking the mutex.
    panic_flag: AtomicBool,
    context_switches: AtomicU64,
    events_processed: AtomicU64,
    threads_spawned: AtomicU64,
    parallel_rounds: AtomicU64,
    /// Set by a worker that exhausted the event budget mid-round.
    limit_hit: AtomicBool,
    worker_joins: Mutex<Vec<JoinHandle<()>>>,
    /// Per-worker spin budgets, re-tuned as OS-backed threads come, go and
    /// migrate (see [`SpinMap`]).
    spin_map: Arc<SpinMap>,
    /// Recycled private stacks of finished continuations.
    stack_pool: Mutex<Vec<Vec<u8>>>,
    /// Count of parks per [`BlockReason`] (indexed by discriminant) — the
    /// data behind [`Engine::block_profile`].
    block_counts: [AtomicU64; BLOCK_REASONS.len()],
    /// The installed [`ScheduleController`], if any (dsm-verify exploration).
    controller: Mutex<Option<Arc<dyn ScheduleController>>>,
    /// Raised when `controller` holds something, so the per-event scheduler
    /// loop and the transport hot paths poll one atomic instead of a mutex.
    controlled: AtomicBool,
    config: EngineConfig,
}

impl Shared {
    fn token(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn num_workers(&self) -> usize {
        self.shards.len()
    }

    fn worker_of(&self, shard_key: u64) -> usize {
        (shard_key % self.shards.len() as u64) as usize
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now.load(Ordering::SeqCst))
    }

    /// Append an event directly to its shard's queue with a fresh global
    /// sequence number. Only called from contexts that are serialized with
    /// respect to each other (setup code, inline execution, the merge
    /// barrier), so sequence assignment order is deterministic.
    fn push_direct(&self, time: u64, kind: EventKind, shard_key: u64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.shards[self.worker_of(shard_key)]
            .queue
            .lock()
            .push(Reverse(Event {
                time,
                seq,
                shard: shard_key,
                kind,
            }));
    }

    /// Push an event, buffering it into the executing worker's outbox when a
    /// parallel instant is in progress on this engine.
    fn submit(self: &Arc<Self>, time: SimTime, kind: EventKind, shard_key: u64) {
        if let Some(ctx) = instant_ctx() {
            if ctx.defer && ctx.engine == self.token() {
                self.shards[ctx.worker].effects.lock().push((
                    ctx.parent_seq,
                    Effect::Push {
                        time: time.as_nanos(),
                        shard: shard_key,
                        kind,
                    },
                ));
                return;
            }
        }
        self.push_direct(time.as_nanos(), kind, shard_key);
    }

    /// Run `f` immediately, or — during a parallel instant — buffer it to
    /// run at the merge barrier in canonical order. Used for engine-adjacent
    /// state whose mutation order must follow the canonical event order
    /// (channel enqueues).
    pub(crate) fn defer_or_run(self: &Arc<Self>, f: Box<dyn FnOnce(&EngineCtl) + Send + 'static>) {
        if let Some(ctx) = instant_ctx() {
            if ctx.defer && ctx.engine == self.token() {
                self.shards[ctx.worker]
                    .effects
                    .lock()
                    .push((ctx.parent_seq, Effect::Action(f)));
                return;
            }
        }
        let ctl = EngineCtl {
            shared: Arc::clone(self),
        };
        f(&ctl);
    }

    /// Shard key of `tid`: its slot's current key, falling back to the raw
    /// thread id for threads already reaped (stale wakes are no-ops anyway).
    fn shard_key_of(&self, tid: ThreadId) -> u64 {
        self.threads
            .lock()
            .get(&tid.0)
            .map(|e| e.slot.shard_key())
            .unwrap_or(tid.0)
    }

    pub(crate) fn schedule_wake(self: &Arc<Self>, tid: ThreadId, at: SimTime) {
        let key = self.shard_key_of(tid);
        self.submit(at, EventKind::Wake(tid, None), key);
    }

    /// Wake with a known shard key (a thread scheduling its own wake-up).
    pub(crate) fn schedule_wake_keyed(self: &Arc<Self>, tid: ThreadId, at: SimTime, key: u64) {
        self.submit(at, EventKind::Wake(tid, None), key);
    }

    /// Self-wake with the slot embedded in the event: the scheduler grants
    /// straight off the cached `Arc` instead of taking the thread-map lock.
    /// This is the per-step hot path (`sleep`/`yield_now`/`flush`).
    pub(crate) fn schedule_wake_cached(self: &Arc<Self>, slot: &Arc<ThreadSlot>, at: SimTime) {
        self.submit(
            at,
            EventKind::Wake(slot.id, Some(Arc::clone(slot))),
            slot.shard_key(),
        );
    }

    pub(crate) fn schedule_call(
        self: &Arc<Self>,
        at: SimTime,
        key: Option<u64>,
        f: Box<dyn FnOnce(&EngineCtl) + Send>,
    ) {
        // Key-less calls inherit the executing event's shard so their state
        // stays on the same worker; outside any event they default to shard 0.
        let key = key.or_else(|| instant_ctx().map(|c| c.shard)).unwrap_or(0);
        self.submit(at, EventKind::Call(f), key);
    }

    pub(crate) fn record_panic(&self, thread: String, message: String) {
        let mut info = self.panic_info.lock();
        if info.is_none() {
            *info = Some((thread, message));
        }
        self.panic_flag.store(true, Ordering::SeqCst);
    }

    /// Allocate a thread id. Spawns executed during a parallel instant draw
    /// from the executing worker's lane (deterministic: each worker runs its
    /// events in sequence order); everything else draws from the sequential
    /// lane, exactly as the historical engine did.
    fn alloc_tid(self: &Arc<Self>) -> ThreadId {
        match instant_ctx() {
            Some(ctx) if ctx.defer && ctx.engine == self.token() => {
                let local = self.shards[ctx.worker]
                    .next_tid
                    .fetch_add(1, Ordering::SeqCst);
                ThreadId(TID_LANE_BASE * (ctx.worker as u64 + 1) + local)
            }
            _ => ThreadId(self.next_tid.fetch_add(1, Ordering::SeqCst)),
        }
    }

    pub(crate) fn spawn_thread<F>(
        self: &Arc<Self>,
        name: Arc<str>,
        start_at: SimTime,
        daemon: bool,
        shard_key: Option<u64>,
        opts: SpawnOptions,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let tid = self.alloc_tid();
        // Key preference: explicit > inherited from the spawning event >
        // the thread's own id.
        let key = shard_key
            .or_else(|| {
                instant_ctx()
                    .filter(|c| c.engine == self.token())
                    .map(|c| c.shard)
            })
            .unwrap_or(tid.0);
        let mode = opts
            .handoff
            .unwrap_or(self.config.tuning.handoff)
            .effective();
        let backing = match mode {
            HandoffMode::Continuation => Backing::Continuation,
            HandoffMode::Baton => Backing::Baton,
            HandoffMode::LegacyCondvar => Backing::LegacyCondvar,
        };
        let slot = Arc::new(ThreadSlot::new(
            tid,
            Arc::clone(&name),
            backing,
            Arc::clone(&self.spin_map),
            Arc::clone(&self.coord),
            self.token(),
            key,
        ));
        let shared = Arc::clone(self);
        let slot_for_thread = Arc::clone(&slot);
        let join = match backing {
            Backing::Continuation => {
                // The thread is a coroutine: the body runs on whichever
                // scheduler participant grants its slices, switching onto a
                // private stack. No OS thread is created.
                let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                    // The first resume IS the first grant: the granter has
                    // already published the grant context.
                    if !slot_for_thread.continuation_first_grant() {
                        return;
                    }
                    let mut handle =
                        SimHandle::new(Arc::clone(&shared), tid, Arc::clone(&slot_for_thread));
                    let result = panic::catch_unwind(AssertUnwindSafe(|| {
                        f(&mut handle);
                        // Fold any compute charged after the last yield into
                        // the global clock, so completion times are accurate.
                        handle.flush();
                    }));
                    if let Err(payload) = result {
                        if payload.downcast_ref::<ShutdownUnwind>().is_none() {
                            shared.record_panic(
                                slot_for_thread.name.to_string(),
                                panic_message(&*payload),
                            );
                        }
                    }
                    set_instant_ctx(None);
                });
                let stack_bytes = opts.stack_bytes.unwrap_or(DEFAULT_STACK_BYTES);
                let recycled = self.stack_pool.lock().pop();
                slot.init_continuation(Coro::new(body, stack_bytes, recycled));
                None
            }
            Backing::Baton | Backing::LegacyCondvar => {
                let mut builder = std::thread::Builder::new().name(format!("sim-{name}"));
                if let Some(bytes) = opts.stack_bytes {
                    builder = builder.stack_size(bytes);
                }
                let join = builder
                    .spawn(move || {
                        // Wait for the first grant before touching user code.
                        if !slot_for_thread.park_and_wait() {
                            slot_for_thread.mark_finished();
                            return;
                        }
                        let mut handle =
                            SimHandle::new(Arc::clone(&shared), tid, Arc::clone(&slot_for_thread));
                        let result = panic::catch_unwind(AssertUnwindSafe(|| {
                            f(&mut handle);
                            handle.flush();
                        }));
                        if let Err(payload) = result {
                            if payload.downcast_ref::<ShutdownUnwind>().is_none() {
                                shared.record_panic(
                                    slot_for_thread.name.to_string(),
                                    panic_message(&*payload),
                                );
                            }
                        }
                        slot_for_thread.mark_finished();
                    })
                    .expect("failed to spawn backing OS thread for simulated thread");
                Some(join)
            }
        };

        self.threads
            .lock()
            .insert(tid.0, ThreadEntry { slot, join, daemon });
        self.threads_spawned.fetch_add(1, Ordering::SeqCst);
        self.schedule_wake_keyed(tid, start_at, key);
        tid
    }

    /// Bump the engine-wide profile counter for `reason`.
    pub(crate) fn record_block(&self, reason: BlockReason) {
        // Relaxed: pure statistics counter, read only after `run()` returned
        // (the thread join inside `run` is the happens-before edge to the
        // reader); no other memory is published under it.
        self.block_counts[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The installed schedule controller, if any. One atomic flag guards the
    /// mutex so uncontrolled runs (the default) pay a single relaxed-ish
    /// load per query.
    pub(crate) fn controller(&self) -> Option<Arc<dyn ScheduleController>> {
        if !self.controlled.load(Ordering::SeqCst) {
            return None;
        }
        self.controller.lock().clone()
    }

    /// Pop the next event under schedule control: drain every pending event
    /// of the current minimum instant, present the per-shard-key heads to the
    /// controller (ascending sequence order, so index 0 is the canonical
    /// pick), execute the chosen head and reinsert the rest. Per-key
    /// sequence order — per-node program order and per-link FIFO — is
    /// preserved by construction; only the cross-key interleaving varies.
    /// Single-worker engines only.
    fn pop_controlled(&self, controller: &Arc<dyn ScheduleController>) -> Option<Event> {
        let mut queue = self.shards[0].queue.lock();
        let head_time = queue.peek()?.0.time;
        // Heap pops yield ascending (time, seq): `batch` ends up sorted by
        // sequence number.
        let mut batch: Vec<Event> = Vec::new();
        while queue.peek().is_some_and(|r| r.0.time == head_time) {
            batch.push(queue.pop().expect("peeked event").0);
        }
        drop(queue);
        // Index (into `batch`) of the lowest-sequence event of each distinct
        // shard key, in ascending sequence order. Choice points are tiny
        // (2–4 nodes), so the quadratic scan beats a hash map.
        let mut heads: Vec<usize> = Vec::new();
        for (i, e) in batch.iter().enumerate() {
            if !heads.iter().any(|&h| batch[h].shard == e.shard) {
                heads.push(i);
            }
        }
        let pick = if heads.len() > 1 {
            let choices: Vec<EventChoice> = heads
                .iter()
                .map(|&h| EventChoice {
                    shard_key: batch[h].shard,
                    seq: batch[h].seq,
                    wakes: match &batch[h].kind {
                        EventKind::Wake(tid, _) => Some(*tid),
                        EventKind::Call(_) => None,
                    },
                })
                .collect();
            let idx = controller.choose_event(SimTime::from_nanos(head_time), &choices);
            heads[idx.min(heads.len() - 1)]
        } else {
            heads[0]
        };
        let chosen = batch.swap_remove(pick);
        let mut queue = self.shards[0].queue.lock();
        for e in batch {
            queue.push(Reverse(e));
        }
        Some(chosen)
    }

    /// Join and drop the backing OS threads of simulated threads that have
    /// finished. Message-driven workloads spawn one short-lived handler
    /// thread per request; without eager reaping a long run accumulates tens
    /// of thousands of exited-but-unjoined OS threads and eventually exhausts
    /// the process's thread quota.
    fn reap_finished(&self) {
        let mut handles = Vec::new();
        let mut stacks = Vec::new();
        {
            let mut threads = self.threads.lock();
            let finished: Vec<u64> = threads
                .iter()
                .filter(|(_, e)| e.slot.is_finished())
                .map(|(&tid, _)| tid)
                .collect();
            for tid in finished {
                if let Some(entry) = threads.remove(&tid) {
                    // Recycle the private stack of a finished continuation
                    // (also breaks the body's Arc cycle back to this Shared).
                    if entry.slot.backing() == Backing::Continuation {
                        if let Some(stack) = entry.slot.reclaim_stack() {
                            stacks.push(stack);
                        }
                    }
                    handles.push(entry.join);
                }
            }
        }
        if !stacks.is_empty() {
            let mut pool = self.stack_pool.lock();
            for stack in stacks {
                if pool.len() < STACK_POOL_CAP {
                    pool.push(stack);
                }
            }
        }
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

/// A lightweight, cloneable controller over the engine. It is handed to
/// scheduler callbacks and embedded in simulation-aware data structures
/// (channels, wait queues) so they can schedule wake-ups.
#[derive(Clone)]
pub struct EngineCtl {
    pub(crate) shared: Arc<Shared>,
}

impl EngineCtl {
    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Schedule a wake-up for `tid` at absolute virtual time `at`. Stale
    /// wake-ups (the thread finished, or is running when the event fires) are
    /// ignored, so spurious wakes are harmless; all blocking primitives
    /// re-check their condition in a loop.
    pub fn wake_at(&self, tid: ThreadId, at: SimTime) {
        self.shared.schedule_wake(tid, at);
    }

    /// Schedule a wake-up for `tid` after `delay` from the current global time.
    pub fn wake_after(&self, tid: ThreadId, delay: SimDuration) {
        let at = self.now() + delay;
        self.shared.schedule_wake(tid, at);
    }

    /// Schedule a closure to run on the scheduler at absolute time `at`. The
    /// event inherits the shard of the context scheduling it (shard 0 when
    /// scheduled from outside the simulation).
    pub fn call_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared.schedule_call(at, None, Box::new(f));
    }

    /// Schedule a closure on an explicit shard: the closure will execute on
    /// the worker owning `shard_key`, serialized with every other event of
    /// that shard. Layers use this to pin callbacks that touch a node's
    /// state to the node's shard (e.g. transport delivery at the receiver).
    pub fn call_at_on<F>(&self, shard_key: u64, at: SimTime, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared.schedule_call(at, Some(shard_key), Box::new(f));
    }

    /// Spawn a simulated thread that becomes runnable at the current global
    /// time. Mirrors [`Engine::spawn`] for code that only holds a controller.
    pub fn spawn<F>(&self, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared
            .spawn_thread(name.into(), now, false, None, SpawnOptions::default(), f)
    }

    /// Spawn a simulated thread bound to shard `shard_key` (see
    /// [`Engine::spawn_on`]).
    pub fn spawn_on<F>(&self, shard_key: u64, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.spawn_on_with(shard_key, name, SpawnOptions::default(), f)
    }

    /// Spawn a simulated thread bound to shard `shard_key` with per-thread
    /// [`SpawnOptions`] (hand-off override, continuation stack size). Upper
    /// layers use this to keep deep-recursion workloads on the OS-thread
    /// baton while the rest of the simulation runs on continuations.
    pub fn spawn_on_with<F>(
        &self,
        shard_key: u64,
        name: impl Into<Arc<str>>,
        opts: SpawnOptions,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared
            .spawn_thread(name.into(), now, false, Some(shard_key), opts, f)
    }

    /// Spawn a simulated thread bound to shard `shard_key` that becomes
    /// runnable at the absolute virtual time `start_at` (the current instant
    /// if that is already past). An event that knows *when* work it hands to
    /// a thread may start — an RPC dispatch that ends after its software
    /// cost — spawns the thread for that time directly instead of waking an
    /// intermediary to sleep the cost off. A shared `Arc<str>` name is taken
    /// as is, so spawning from a prepared name allocates no string.
    pub fn spawn_on_at<F>(
        &self,
        shard_key: u64,
        name: impl Into<Arc<str>>,
        start_at: SimTime,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.shared.spawn_thread(
            name.into(),
            start_at,
            false,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// Spawn a daemon thread (see [`Engine::spawn_daemon`]) from a controller.
    pub fn spawn_daemon<F>(&self, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared
            .spawn_thread(name.into(), now, true, None, SpawnOptions::default(), f)
    }

    /// Spawn a daemon thread bound to shard `shard_key`.
    pub fn spawn_daemon_on<F>(&self, shard_key: u64, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared.spawn_thread(
            name.into(),
            now,
            true,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// The engine's installed [`ScheduleController`], if any. Transport
    /// backends with controllable delivery order (`Permuted`) query this on
    /// every submit; the common uncontrolled case is one atomic load.
    pub fn controller(&self) -> Option<Arc<dyn ScheduleController>> {
        self.shared.controller()
    }

    /// Run `f` now, or at the end of the current parallel instant in
    /// canonical order (see [`Shared::defer_or_run`]).
    pub(crate) fn defer_or_run<F>(&self, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared.defer_or_run(Box::new(f));
    }
}

impl std::fmt::Debug for EngineCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineCtl(now={})", self.now())
    }
}

// ---------------------------------------------------------------------------
// The engine proper
// ---------------------------------------------------------------------------

/// The discrete-event simulation engine.
pub struct Engine {
    shared: Arc<Shared>,
    ran: bool,
}

impl Engine {
    /// Create a new engine with the default configuration.
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    /// Create a new engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let workers = config.tuning.workers.clamp(1, MAX_WORKERS);
        let shards = (0..workers)
            .map(|_| Shard {
                queue: Mutex::new(BinaryHeap::new()),
                sched: Arc::new(SchedHandle::new()),
                effects: Mutex::new(Vec::new()),
                ctrl: WorkerCtrl::new(),
                next_tid: AtomicU64::new(0),
            })
            .collect();
        Engine {
            shared: Arc::new(Shared {
                now: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                shards,
                coord: Arc::new(SchedHandle::new()),
                threads: Mutex::new(HashMap::new()),
                next_tid: AtomicU64::new(0),
                panic_info: Mutex::new(None),
                panic_flag: AtomicBool::new(false),
                context_switches: AtomicU64::new(0),
                events_processed: AtomicU64::new(0),
                threads_spawned: AtomicU64::new(0),
                parallel_rounds: AtomicU64::new(0),
                limit_hit: AtomicBool::new(false),
                worker_joins: Mutex::new(Vec::new()),
                spin_map: Arc::new(SpinMap::new(
                    config.tuning.handoff_spin,
                    workers,
                    host_cores(),
                )),
                stack_pool: Mutex::new(Vec::new()),
                block_counts: std::array::from_fn(|_| AtomicU64::new(0)),
                controller: Mutex::new(None),
                controlled: AtomicBool::new(false),
                config,
            }),
            ran: false,
        }
    }

    /// A controller that can be stored in simulation-aware data structures.
    pub fn ctl(&self) -> EngineCtl {
        EngineCtl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Spawn a simulated thread that becomes runnable at virtual time zero
    /// (or at the current time if the engine is already running).
    pub fn spawn<F>(&self, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.spawn_with(name, SpawnOptions::default(), f)
    }

    /// Spawn a simulated thread with per-thread [`SpawnOptions`]: force a
    /// hand-off mode (the baton escape hatch for deep recursion) or size the
    /// continuation's private stack.
    pub fn spawn_with<F>(&self, name: impl Into<Arc<str>>, opts: SpawnOptions, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared
            .spawn_thread(name.into(), now, false, None, opts, f)
    }

    /// Spawn a simulated thread bound to shard `shard_key`: all its wake-ups
    /// execute on the worker owning that shard, serialized with every other
    /// event of the shard. Upper layers pass the cluster node id so that all
    /// activity of one node stays on one worker.
    pub fn spawn_on<F>(&self, shard_key: u64, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared.spawn_thread(
            name.into(),
            now,
            false,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// Spawn a daemon thread: it behaves like a normal simulated thread but
    /// does not keep the simulation alive. Used for service loops such as RPC
    /// dispatchers, which block on their incoming queue forever.
    pub fn spawn_daemon<F>(&self, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared
            .spawn_thread(name.into(), now, true, None, SpawnOptions::default(), f)
    }

    /// Spawn a daemon thread bound to shard `shard_key`.
    pub fn spawn_daemon_on<F>(&self, shard_key: u64, name: impl Into<Arc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared.spawn_thread(
            name.into(),
            now,
            true,
            Some(shard_key),
            SpawnOptions::default(),
            f,
        )
    }

    /// Install a [`ScheduleController`]: every same-instant event-order tie
    /// (and every delivery on a `Permuted` transport) is resolved by the
    /// controller instead of canonically. Exploration requires the
    /// single-worker scheduler — the parallel-instant path has no meaningful
    /// sequential choice points — so this panics when the engine was
    /// configured with more than one worker.
    pub fn set_controller(&self, controller: Arc<dyn ScheduleController>) {
        assert_eq!(
            self.shared.num_workers(),
            1,
            "schedule controllers require a single-worker engine \
             (SimTuning::with_workers(1))"
        );
        *self.shared.controller.lock() = Some(controller);
        self.shared.controlled.store(true, Ordering::SeqCst);
    }

    /// Engine-wide count of parks per [`BlockReason`] so far: what the
    /// simulation spends its blocking on (page faults, acks, RPC replies,
    /// barriers, channels...). Purely observational — deliberately *not*
    /// part of [`RunReport`], whose cross-mode equality the conformance
    /// matrix asserts.
    pub fn block_profile(&self) -> Vec<(BlockReason, u64)> {
        BLOCK_REASONS
            .iter()
            .map(|&r| {
                (
                    r,
                    self.shared.block_counts[r as usize].load(Ordering::SeqCst),
                )
            })
            .collect()
    }

    /// Run the simulation to completion.
    ///
    /// Returns a [`RunReport`] on success, or a [`SimError`] if the simulated
    /// program deadlocked, a thread panicked, or the event budget was hit.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        if self.ran {
            return Err(SimError::AlreadyRan);
        }
        self.ran = true;
        // The scheduler loop itself must never skip teardown: a panic that
        // escaped run_inner (e.g. out of a scheduler callback, or a bug in
        // the engine) would otherwise leave simulated threads parked forever
        // with no one holding the baton. Shut the worker pool down and tear
        // every slot down first, then re-raise.
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.run_inner()));
        self.shutdown_workers();
        self.teardown();
        match result {
            Ok(result) => result,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Verdict once every event queue is empty: clean completion (`Ok`) or
    /// a deadlock report naming each parked non-daemon thread and, when the
    /// slot recorded one, the [`BlockReason`] it is stuck on.
    fn drained_verdict(&self) -> Result<(), SimError> {
        let shared = &self.shared;
        let mut parked: Vec<String> = shared
            .threads
            .lock()
            .values()
            .filter(|e| !e.daemon && e.slot.is_parked() && !e.slot.is_finished())
            .map(|e| match e.slot.blocked_on() {
                Some(reason) => {
                    format!("{} ({}) blocked on {:?}", e.slot.name, e.slot.id, reason)
                }
                None => format!("{} ({})", e.slot.name, e.slot.id),
            })
            .collect();
        if parked.is_empty() {
            return Ok(());
        }
        parked.sort();
        Err(SimError::Deadlock {
            at: shared.now(),
            parked_threads: parked,
        })
    }

    fn run_inner(&self) -> Result<RunReport, SimError> {
        let shared = &self.shared;
        // Publish the coordinator's OS-thread handle before the first grant
        // so simulated threads can wake us from their futex batons.
        shared.coord.register_current();
        if shared.num_workers() > 1 {
            self.spawn_workers();
        }
        let spin = shared.spin_map.scheduler_spin();
        let single_shard = shared.shards.len() == 1;
        // Events processed since the last reap of finished OS threads.
        let mut since_reap = 0u64;
        let mut last_processed = 0u64;
        // Reused across iterations: the per-event allocation would otherwise
        // dominate the continuation hot path.
        let mut active: Vec<usize> = Vec::new();
        loop {
            // The mutex is only taken once the flag says there is something
            // to read — the loop head runs once per event.
            if shared.panic_flag.load(Ordering::SeqCst) {
                if let Some((thread, message)) = shared.panic_info.lock().take() {
                    return Err(SimError::ThreadPanic { thread, message });
                }
            }
            if shared.limit_hit.load(Ordering::SeqCst) {
                return Err(SimError::EventLimitExceeded {
                    limit: shared.config.max_events,
                });
            }

            // Periodically reclaim the OS threads of finished simulated
            // threads so message-heavy runs do not exhaust the thread quota.
            let processed = shared.events_processed.load(Ordering::SeqCst);
            since_reap += processed - last_processed;
            last_processed = processed;
            if since_reap >= 512 {
                since_reap = 0;
                shared.reap_finished();
            }

            // Single shard (workers = 1, the historical engine): pop the
            // globally smallest event under one lock acquisition instead of
            // the peek-scan-pop dance below. Under an installed controller
            // (dsm-verify exploration) the pop consults the controller at
            // every same-instant choice point instead.
            if single_shard {
                let popped = match shared.controller() {
                    Some(controller) => shared.pop_controlled(&controller),
                    None => shared.shards[0].queue.lock().pop().map(|Reverse(e)| e),
                };
                let event = match popped {
                    Some(e) => e,
                    None => match self.drained_verdict() {
                        Ok(()) => return Ok(self.report()),
                        Err(e) => return Err(e),
                    },
                };
                if event.time > shared.now.load(Ordering::SeqCst) {
                    shared.now.store(event.time, Ordering::SeqCst);
                }
                let processed = shared.events_processed.fetch_add(1, Ordering::SeqCst) + 1;
                if processed > shared.config.max_events {
                    return Err(SimError::EventLimitExceeded {
                        limit: shared.config.max_events,
                    });
                }
                // Coordinator-only granting (no worker is ever running in
                // single-shard mode), so the whole instant is one solo
                // burst: continuation grants skip the arbitration protocol.
                let source = GrantSource::solo(&shared.coord, shared.spin_map.for_worker(0));
                execute_event(shared, event, 0, false, &source);
                continue;
            }

            // Find the minimum event time across the shards and the set of
            // shards holding events at it.
            let mut min_time = u64::MAX;
            active.clear();
            for (i, shard) in shared.shards.iter().enumerate() {
                let queue = shard.queue.lock();
                if let Some(Reverse(head)) = queue.peek() {
                    match head.time.cmp(&min_time) {
                        std::cmp::Ordering::Less => {
                            min_time = head.time;
                            active.clear();
                            active.push(i);
                        }
                        std::cmp::Ordering::Equal => active.push(i),
                        std::cmp::Ordering::Greater => {}
                    }
                }
            }

            if active.is_empty() {
                match self.drained_verdict() {
                    Ok(()) => return Ok(self.report()),
                    Err(e) => return Err(e),
                }
            }

            // The clock never moves backwards: events scheduled "in the
            // past" (e.g. zero-delay wake-ups racing with compute charges)
            // are processed at the current time.
            if min_time > shared.now.load(Ordering::SeqCst) {
                shared.now.store(min_time, Ordering::SeqCst);
            }

            if active.len() == 1 {
                // Single active shard: execute the globally smallest event
                // inline on the coordinator — the historical engine, and the
                // only path ever taken with workers = 1.
                let worker = active[0];
                let event = match shared.shards[worker].queue.lock().pop() {
                    Some(Reverse(e)) => e,
                    None => continue,
                };
                let processed = shared.events_processed.fetch_add(1, Ordering::SeqCst) + 1;
                if processed > shared.config.max_events {
                    return Err(SimError::EventLimitExceeded {
                        limit: shared.config.max_events,
                    });
                }
                // Per-worker spin budget: zero when the event's shard homes
                // only continuations (nothing to spin for). Every worker is
                // parked between parallel rounds, so the coordinator is the
                // sole granter here too — a solo burst.
                let source = GrantSource::solo(&shared.coord, shared.spin_map.for_worker(worker));
                execute_event(shared, event, worker, false, &source);
            } else {
                // Parallel instant: every active shard drains its events at
                // `min_time` on its own worker; effects buffer into the
                // per-worker outboxes and merge canonically afterwards.
                shared.parallel_rounds.fetch_add(1, Ordering::SeqCst);
                for &w in &active {
                    let ctrl = &shared.shards[w].ctrl;
                    ctrl.round_time.store(min_time, Ordering::SeqCst);
                    ctrl.state.store(W_REQUESTED, Ordering::SeqCst);
                    if let Some(t) = ctrl.os.get() {
                        t.unpark();
                    }
                }
                let mut spins = 0u32;
                loop {
                    let all_done = active
                        .iter()
                        .all(|&w| shared.shards[w].ctrl.state.load(Ordering::SeqCst) == W_DONE);
                    if all_done {
                        break;
                    }
                    if spins < spin {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        std::thread::park();
                    }
                }
                for &w in &active {
                    let _ = shared.shards[w].ctrl.state.compare_exchange(
                        W_DONE,
                        W_IDLE,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
                self.merge_effects();
            }
        }
    }

    /// Apply every buffered effect in ascending parent-sequence order,
    /// assigning fresh global sequence numbers in that order. Each worker's
    /// vector is already sorted (it executed its events in sequence order),
    /// so this is a k-way merge.
    fn merge_effects(&self) {
        let shared = &self.shared;
        let mut lists: Vec<std::vec::IntoIter<(u64, Effect)>> = shared
            .shards
            .iter()
            .map(|s| std::mem::take(&mut *s.effects.lock()).into_iter())
            .collect();
        let mut heads: Vec<Option<(u64, Effect)>> = lists.iter_mut().map(|l| l.next()).collect();
        let ctl = EngineCtl {
            shared: Arc::clone(shared),
        };
        loop {
            let mut best: Option<usize> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some((seq, _)) = head {
                    if best.is_none_or(|b| *seq < heads[b].as_ref().expect("head").0) {
                        best = Some(i);
                    }
                }
            }
            let Some(i) = best else { break };
            let (_, effect) = heads[i].take().expect("selected head");
            heads[i] = lists[i].next();
            match effect {
                Effect::Push { time, shard, kind } => shared.push_direct(time, kind, shard),
                Effect::Action(f) => {
                    // Runs with no instant context: its pushes go directly
                    // into the shards, in canonical order.
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(&ctl))) {
                        shared.record_panic("merge-action".to_string(), panic_message(&*payload));
                    }
                }
            }
        }
    }

    fn spawn_workers(&self) {
        let mut joins = self.shared.worker_joins.lock();
        for w in 0..self.shared.num_workers() {
            let shared = Arc::clone(&self.shared);
            let join = std::thread::Builder::new()
                .name(format!("sim-worker-{w}"))
                .spawn(move || worker_main(shared, w))
                .expect("failed to spawn scheduler worker");
            joins.push(join);
        }
    }

    /// Signal every worker to quit and join them. A worker that is still
    /// draining a round observes the quit when it tries to publish its
    /// completion and exits instead.
    fn shutdown_workers(&self) {
        let joins: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.worker_joins.lock());
        if joins.is_empty() {
            return;
        }
        for shard in &self.shared.shards {
            shard.ctrl.state.swap(W_QUIT, Ordering::SeqCst);
            if let Some(t) = shard.ctrl.os.get() {
                t.unpark();
            }
        }
        for join in joins {
            let _ = join.join();
        }
    }

    fn report(&self) -> RunReport {
        RunReport {
            final_time: self.shared.now(),
            events: self.shared.events_processed.load(Ordering::SeqCst),
            context_switches: self.shared.context_switches.load(Ordering::SeqCst),
            threads_spawned: self.shared.threads_spawned.load(Ordering::SeqCst),
            parallel_rounds: self.shared.parallel_rounds.load(Ordering::SeqCst),
        }
    }

    fn teardown(&self) {
        // Release every thread still waiting for the baton so its OS thread
        // can exit, then join them all. Runs after the scheduler loop ended
        // and the worker pool quit, so this thread owns every slot.
        let mut entries: Vec<(Arc<ThreadSlot>, Option<JoinHandle<()>>)> = Vec::new();
        {
            let mut threads = self.shared.threads.lock();
            for entry in threads.values_mut() {
                entries.push((Arc::clone(&entry.slot), entry.join.take()));
            }
        }
        for (slot, _) in &entries {
            slot.request_shutdown();
        }
        for (slot, _) in &entries {
            // Unwind suspended continuations (destructors of the frames
            // parked on their private stacks must run) and drop never-started
            // bodies — both hold an Arc cycle back to `Shared`.
            slot.teardown_continuation();
            let _ = slot.reclaim_stack();
        }
        for (_, join) in entries {
            if let Some(handle) = join {
                let _ = handle.join();
            }
        }
    }
}

/// Execute one event. For `Wake` events the baton goes to the slot through
/// `source` (the executing worker's — or the coordinator's — handle); for
/// `Call` events the closure runs right here with the instant context
/// installed, so its pushes route correctly.
fn execute_event(
    shared: &Arc<Shared>,
    event: Event,
    worker: usize,
    defer: bool,
    source: &GrantSource<'_>,
) {
    match event.kind {
        EventKind::Wake(tid, cached) => {
            let slot = match cached {
                Some(slot) => Some(slot),
                None => shared
                    .threads
                    .lock()
                    .get(&tid.0)
                    .map(|e| Arc::clone(&e.slot)),
            };
            if let Some(slot) = slot {
                if !slot.is_finished()
                    && slot.grant_and_wait(source, worker, event.time, event.seq, defer)
                {
                    shared.context_switches.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        EventKind::Call(f) => {
            let ctl = EngineCtl {
                shared: Arc::clone(shared),
            };
            set_instant_ctx(Some(InstantCtx {
                engine: shared.token(),
                worker,
                parent_time: event.time,
                parent_seq: event.seq,
                shard: event.shard,
                defer,
                sub: 0,
            }));
            // A panicking scheduler callback must not take down the
            // scheduler loop (teardown would never release the other
            // threads' batons); record it like a thread panic and let the
            // loop head convert it into the run's error.
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(&ctl))) {
                shared.record_panic("scheduler-call".to_string(), panic_message(&*payload));
            }
            set_instant_ctx(None);
        }
    }
}

/// Body of one scheduler worker OS thread: wait for a round request, drain
/// this shard's events at the requested instant, publish completion.
fn worker_main(shared: Arc<Shared>, w: usize) {
    let shard = &shared.shards[w];
    shard
        .ctrl
        .os
        .set(std::thread::current())
        .expect("worker registers its handle once");
    shard.sched.register_current();
    let spin = shared.spin_map.scheduler_spin();
    loop {
        // Wait for a command.
        let mut spins = 0u32;
        loop {
            match shard.ctrl.state.load(Ordering::SeqCst) {
                W_REQUESTED => break,
                W_QUIT => return,
                _ => {
                    if spins < spin {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        std::thread::park();
                    }
                }
            }
        }
        shard.ctrl.state.store(W_RUNNING, Ordering::SeqCst);
        let t = shard.ctrl.round_time.load(Ordering::SeqCst);
        let result = panic::catch_unwind(AssertUnwindSafe(|| drain_instant(&shared, w, t)));
        if let Err(payload) = result {
            set_instant_ctx(None);
            shared.record_panic(format!("sim-worker-{w}"), panic_message(&*payload));
        }
        // Publish completion — unless the engine is tearing down, in which
        // case quit without clobbering the signal.
        if shard
            .ctrl
            .state
            .compare_exchange(W_RUNNING, W_DONE, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        shared.coord.unpark();
    }
}

/// Drain every event of shard `w` at virtual times `<= t`, in sequence
/// order, buffering all effects.
fn drain_instant(shared: &Arc<Shared>, w: usize, t: u64) {
    // One arbitrated burst per drained instant: other active shards grant
    // concurrently and a migrating thread's same-instant wakes can race, so
    // the full protocol stays — but the worker's handle registration is
    // still amortized over the whole burst by the shared source.
    let source = GrantSource::new(&shared.shards[w].sched, shared.spin_map.for_worker(w));
    loop {
        let event = {
            let mut queue = shared.shards[w].queue.lock();
            match queue.peek() {
                Some(Reverse(head)) if head.time <= t => queue.pop().map(|Reverse(e)| e),
                _ => None,
            }
        };
        let Some(event) = event else { break };
        let processed = shared.events_processed.fetch_add(1, Ordering::SeqCst) + 1;
        if processed > shared.config.max_events {
            shared.limit_hit.store(true, Ordering::SeqCst);
            break;
        }
        execute_event(shared, event, w, true, &source);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if !self.ran {
            self.shutdown_workers();
            self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_engine_runs_to_completion() {
        let mut engine = Engine::new();
        let report = engine.run().unwrap();
        assert_eq!(report.final_time, SimTime::ZERO);
        assert_eq!(report.threads_spawned, 0);
    }

    #[test]
    fn single_thread_advances_virtual_time() {
        let mut engine = Engine::new();
        let observed = Arc::new(AtomicU64::new(0));
        let obs = observed.clone();
        engine.spawn("worker", move |h| {
            h.sleep(SimDuration::from_micros(100));
            obs.store(h.now().as_nanos(), Ordering::SeqCst);
        });
        let report = engine.run().unwrap();
        assert_eq!(observed.load(Ordering::SeqCst), 100_000);
        assert_eq!(report.final_time, SimTime::from_micros(100));
        assert_eq!(report.threads_spawned, 1);
    }

    #[test]
    fn spawn_on_at_starts_the_thread_at_an_absolute_time() {
        let mut engine = Engine::new();
        let started = Arc::new(AtomicU64::new(0));
        let s = started.clone();
        let name: Arc<str> = "handler".into();
        let ctl = engine.ctl();
        engine.spawn("early", move |h| {
            h.sleep(SimDuration::from_micros(10));
            // From a running simulation, for a time still ahead.
            ctl.spawn_on_at(3, name, SimTime::from_micros(40), move |h| {
                assert_eq!((h.name(), h.shard()), ("handler", 3));
                s.store(h.now().as_nanos(), Ordering::SeqCst);
            });
        });
        let report = engine.run().unwrap();
        assert_eq!(started.load(Ordering::SeqCst), 40_000);
        assert_eq!(report.threads_spawned, 2);
    }

    #[test]
    fn threads_interleave_deterministically_by_time() {
        let mut engine = Engine::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("late", 30u64), ("early", 10), ("mid", 20)] {
            let order = order.clone();
            engine.spawn(name, move |h| {
                h.sleep(SimDuration::from_micros(delay));
                order.lock().push(name.to_string());
            });
        }
        engine.run().unwrap();
        assert_eq!(order.lock().clone(), vec!["early", "mid", "late"]);
    }

    #[test]
    fn spawn_inside_thread_starts_child() {
        let mut engine = Engine::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        engine.spawn("parent", move |h| {
            let c2 = c.clone();
            h.spawn("child", move |h| {
                h.sleep(SimDuration::from_micros(5));
                c2.fetch_add(1, Ordering::SeqCst);
            });
            c.fetch_add(1, Ordering::SeqCst);
        });
        let report = engine.run().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!(report.threads_spawned, 2);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut engine = Engine::new();
        engine.spawn("stuck", |h| {
            // Park with no one to ever wake us.
            h.park();
        });
        match engine.run() {
            Err(SimError::Deadlock { parked_threads, .. }) => {
                assert_eq!(parked_threads.len(), 1);
                assert!(parked_threads[0].starts_with("stuck"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn thread_panic_is_reported() {
        let mut engine = Engine::new();
        engine.spawn("bad", |_h| panic!("intentional test panic"));
        match engine.run() {
            Err(SimError::ThreadPanic { thread, message }) => {
                assert_eq!(thread, "bad");
                assert!(message.contains("intentional"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_guard_triggers() {
        let mut engine = Engine::with_config(EngineConfig {
            max_events: 10,
            name: "tiny".into(),
            ..EngineConfig::default()
        });
        engine.spawn("spinner", |h| loop {
            h.sleep(SimDuration::from_micros(1));
        });
        match engine.run() {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 10),
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn run_twice_is_an_error() {
        let mut engine = Engine::new();
        engine.run().unwrap();
        assert!(matches!(engine.run(), Err(SimError::AlreadyRan)));
    }

    #[test]
    fn wake_between_threads() {
        let mut engine = Engine::new();
        let ctl = engine.ctl();
        let woken_at = Arc::new(AtomicU64::new(0));
        let w = woken_at.clone();
        let sleeper = engine.spawn("sleeper", move |h| {
            h.park();
            w.store(h.now().as_nanos(), Ordering::SeqCst);
        });
        engine.spawn("waker", move |h| {
            h.sleep(SimDuration::from_micros(50));
            ctl.wake_at(sleeper, h.now());
        });
        engine.run().unwrap();
        assert_eq!(woken_at.load(Ordering::SeqCst), 50_000);
    }

    #[test]
    fn scheduled_call_runs_at_requested_time() {
        let mut engine = Engine::new();
        let ctl = engine.ctl();
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        ctl.call_at(SimTime::from_micros(25), move |c| {
            s.store(c.now().as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 25_000);
    }

    #[test]
    fn charge_accumulates_until_yield() {
        let mut engine = Engine::new();
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        engine.spawn("computer", move |h| {
            h.charge(SimDuration::from_micros(3));
            h.charge(SimDuration::from_micros(4));
            // Local view includes pending compute.
            assert_eq!(h.now().as_nanos(), 7_000);
            h.flush();
            t2.store(h.global_now().as_nanos(), Ordering::SeqCst);
        });
        engine.run().unwrap();
        assert_eq!(t.load(Ordering::SeqCst), 7_000);
    }

    // ----- multi-worker engine ----------------------------------------------

    fn multi(workers: usize) -> Engine {
        Engine::with_config(EngineConfig {
            tuning: SimTuning::default().with_workers(workers),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn worker_pool_runs_an_empty_engine() {
        for workers in [2, 4] {
            let mut engine = multi(workers);
            let report = engine.run().unwrap();
            assert_eq!(report.final_time, SimTime::ZERO);
            assert_eq!(report.parallel_rounds, 0);
        }
    }

    #[test]
    fn same_instant_events_on_distinct_shards_run_in_parallel_rounds() {
        for workers in [2, 4] {
            let mut engine = multi(workers);
            let hits = Arc::new(AtomicUsize::new(0));
            for shard in 0..4u64 {
                let hits = hits.clone();
                engine.spawn_on(shard, format!("t{shard}"), move |h| {
                    // Everyone wakes at the same instants.
                    for _ in 0..3 {
                        h.sleep(SimDuration::from_micros(10));
                    }
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
            let report = engine.run().unwrap();
            assert_eq!(hits.load(Ordering::SeqCst), 4);
            assert!(
                report.parallel_rounds > 0,
                "{workers} workers: same-instant events of distinct shards \
                 must be dispatched in parallel"
            );
            assert_eq!(report.final_time, SimTime::from_micros(30));
        }
    }

    #[test]
    fn virtual_time_and_order_match_across_worker_counts() {
        // A small cross-shard program: per-shard threads sleep, wake each
        // other and spawn children. Per-shard observation logs (appended
        // only by that shard's threads) and the final virtual time must be
        // identical across worker counts.
        fn run(workers: usize) -> (Vec<Vec<u64>>, SimTime) {
            let mut engine = multi(workers);
            let logs: Vec<Arc<Mutex<Vec<u64>>>> =
                (0..4).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
            for shard in 0..4u64 {
                let log = logs[shard as usize].clone();
                engine.spawn_on(shard, format!("t{shard}"), move |h| {
                    for i in 0..5u64 {
                        h.sleep(SimDuration::from_micros(7 + (shard + i) % 3));
                        log.lock().push(h.now().as_nanos());
                        if i == 2 {
                            let log2 = log.clone();
                            h.spawn_on(shard, format!("child{shard}"), move |h| {
                                h.sleep(SimDuration::from_micros(1));
                                log2.lock().push(h.now().as_nanos());
                            });
                        }
                    }
                });
            }
            let report = engine.run().unwrap();
            let logs = logs.iter().map(|l| l.lock().clone()).collect();
            (logs, report.final_time)
        }
        let (logs1, t1) = run(1);
        for workers in [2, 4] {
            let (logs, t) = run(workers);
            assert_eq!(logs, logs1, "{workers} workers diverged");
            assert_eq!(t, t1, "{workers} workers: virtual time diverged");
        }
    }

    #[test]
    fn worker_thread_panic_is_reported_and_torn_down() {
        for workers in [1, 4] {
            let mut engine = multi(workers);
            for shard in 0..4u64 {
                engine.spawn_on(shard, format!("t{shard}"), move |h| {
                    h.sleep(SimDuration::from_micros(10));
                    if shard == 2 {
                        panic!("intentional worker-pool panic");
                    }
                    h.sleep(SimDuration::from_micros(10));
                });
            }
            match engine.run() {
                Err(SimError::ThreadPanic { thread, message }) => {
                    assert_eq!(thread, "t2", "{workers} workers");
                    assert!(message.contains("intentional worker-pool panic"));
                }
                other => panic!("{workers} workers: expected panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn event_limit_stops_a_parallel_run() {
        let mut engine = Engine::with_config(EngineConfig {
            max_events: 40,
            name: "tiny".into(),
            tuning: SimTuning::default().with_workers(4),
        });
        for shard in 0..4u64 {
            engine.spawn_on(shard, format!("spin{shard}"), move |h| loop {
                h.sleep(SimDuration::from_micros(1));
            });
        }
        match engine.run() {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 40),
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn cross_shard_wakes_merge_canonically() {
        // Shard-0 and shard-1 threads wake a shard-2 sleeper at the same
        // instant; the sleeper observes exactly one wake time regardless of
        // the worker count.
        fn run(workers: usize) -> u64 {
            let mut engine = multi(workers);
            let ctl = engine.ctl();
            let woken = Arc::new(AtomicU64::new(0));
            let w = woken.clone();
            let sleeper = engine.spawn_on(2, "sleeper", move |h| {
                h.park();
                w.store(h.now().as_nanos(), Ordering::SeqCst);
            });
            for shard in 0..2u64 {
                let ctl = ctl.clone();
                engine.spawn_on(shard, format!("waker{shard}"), move |h| {
                    h.sleep(SimDuration::from_micros(50));
                    ctl.wake_at(sleeper, h.now());
                });
            }
            engine.run().unwrap();
            woken.load(Ordering::SeqCst)
        }
        let t1 = run(1);
        assert_eq!(t1, 50_000);
        assert_eq!(run(2), t1);
        assert_eq!(run(4), t1);
    }

    #[test]
    fn effective_spin_collapses_when_oversubscribed() {
        // Single core: the peer can never run concurrently, spinning only
        // steals its quantum.
        assert_eq!(effective_spin(1000, 1, 1), 0);
        // 2 * workers > cores: at least one worker/thread pair shares a core.
        assert_eq!(effective_spin(1000, 4, 4), 0);
        assert_eq!(effective_spin(1000, 3, 5), 0);
        // Enough cores for every pair: the configured ceiling applies.
        assert_eq!(effective_spin(1000, 2, 4), 1000);
        assert_eq!(effective_spin(1000, 1, 2), 1000);
        // A zero ceiling stays zero regardless of topology.
        assert_eq!(effective_spin(0, 2, 16), 0);
    }

    #[test]
    fn spin_budgets_retune_as_os_threads_home_and_migrate() {
        let map = SpinMap::new(500, 2, 16);
        // No OS-backed threads homed anywhere: continuation-only shards
        // never wait on another OS thread, so nobody spins.
        assert_eq!(map.for_worker(0), 0);
        assert_eq!(map.for_worker(1), 0);
        map.home_os_thread(0);
        assert_eq!(map.for_worker(0), 500);
        assert_eq!(map.for_worker(1), 0);
        assert_eq!(map.for_key(2), 500); // key 2 -> worker 0 with 2 workers
                                         // A migration re-shards the thread: the budget follows it, and the
                                         // vacated worker drops back to zero.
        map.rehome_os_thread(0, 1);
        assert_eq!(map.for_worker(0), 0);
        assert_eq!(map.for_worker(1), 500);
        // Same-worker migration is a no-op.
        map.rehome_os_thread(1, 3);
        assert_eq!(map.for_worker(1), 500);
        // The thread finished: its worker stops spinning.
        map.unhome_os_thread(3);
        assert_eq!(map.for_worker(1), 0);
    }

    #[test]
    fn set_shard_retunes_spin_budgets_after_migration() {
        // End-to-end flavour of the unit test above: an OS-thread-backed
        // (baton) simulated thread migrating via SimHandle::set_shard must
        // re-tune the per-worker budgets while the engine runs.
        let mut engine = multi(2);
        let observed = Arc::new(Mutex::new(Vec::new()));
        let obs = Arc::clone(&observed);
        let shared = Arc::clone(&engine.shared);
        let ctl = engine.ctl();
        ctl.spawn_on_with(0, "migrant", SpawnOptions::baton(), move |h| {
            obs.lock().push((
                shared.spin_map.os_backed_count(0),
                shared.spin_map.os_backed_count(1),
            ));
            h.set_shard(1);
            h.yield_now();
            obs.lock().push((
                shared.spin_map.os_backed_count(0),
                shared.spin_map.os_backed_count(1),
            ));
        });
        engine.run().unwrap();
        let seen = observed.lock().clone();
        // Spawned on shard 0 (worker 0), migrated to shard 1 (worker 1).
        assert_eq!(seen, vec![(1, 0), (0, 1)]);
    }
}
