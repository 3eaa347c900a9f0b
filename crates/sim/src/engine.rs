//! The discrete-event scheduler.
//!
//! The engine owns one queue of events ordered by `(virtual time, sequence
//! number)` (`EventQueue`: a short sorted window, a heap for the overflow)
//! and runs on one OS thread — whichever thread calls [`Engine::run`]. The
//! loop pops the smallest event and executes it: a *wake* hands control to
//! one simulated thread for a slice and takes it back when the thread
//! parks, a *call* runs a closure on the scheduler itself. At most one
//! simulated thread executes at any wall-clock instant, the way PM2
//! multiplexes its Marcel threads onto one kernel thread, so a run is a
//! pure function of the program: same final memory, same virtual time, same
//! event count, every time.
//!
//! # Who may touch scheduler state
//!
//! The same three kinds of code that may touch any [`SliceCell`]: a *slice*
//! (a simulated thread between two yields: it submits events, spawns, parks),
//! a *scheduler event* (the loop itself and the `Call` closures it runs), and
//! the *host thread* outside [`Engine::run`] (set-up, teardown, reading
//! results). The hand-off orders them totally, so the event queue and the
//! thread table, each with its counters, sit in cells and take no lock; the
//! clock and the executing shard are words read from inside those borrows,
//! written with a relaxed store. Nothing here may be called from an OS thread the engine
//! does not know while `run` is in progress. Every borrow below is released
//! before control leaves this module — before a closure runs, before a slice
//! is granted — so an event or a slice may submit, spawn and wake freely.
//!
//! Sequence numbers are assigned at submission and a time already past is
//! submitted as the current instant, so events execute in strictly
//! increasing `(time, seq)` order and "the order things were submitted in"
//! is the same thing as "the order they happen in". [`crate::WaitSet`]
//! rests on that: its plain FIFO order is the event order.
//!
//! A simulated thread's life is this. It runs on a *worker* (`ThreadSlot`):
//! a private stack and a coroutine on the continuation lane, an OS thread on
//! the baton lane, and one [`SimHandle`], all kept by the engine for the whole
//! run. *Spawn* gives the thread a fresh id, hands its body, name and shard to
//! an idle worker — or makes a worker when none is idle — and submits its
//! first wake, which — like every wake: a thread's own sleep, a
//! [`crate::WaitSet`]'s notify — carries the worker and the id of the thread
//! it is for, so executing it looks nothing up. A wake for a thread its
//! worker no longer runs is dropped: it counts as an event, not a switch.
//! The only way to park is a wait set's, so there is no wake by bare id
//! either. A thread parked in a wait carries its waiter record on its
//! worker, and a wake for it first runs the record's condition, on the
//! scheduler: still false, and the wake registers the thread in its set
//! again and ends without a slice — an event, not a switch — just as the
//! thread would have parked again at once had it run (see
//! [`crate::WaitSet`]). Any other wake grants one *slice*, until the thread
//! parks again. The grant in which the body returns (or panics) is the
//! *finishing grant*: the worker falls vacant and parks, and the loop puts it
//! on the idle list right there — nothing is freed, unhashed or joined — so
//! a thread that never blocks costs one event, and a message-driven run that
//! spawns a handler per request holds as many workers as it ever had threads
//! live at once. What the body charged after its last yield is not slept off
//! in one more slice (nobody is left to observe it): it only moves the
//! thread's *completion instant*, and a run ends — [`RunReport::final_time`],
//! [`Engine::now`], a deadlock's `at` — at the later of its last event and
//! its latest completion.
//!
//! Every event carries a *shard key* (upper layers use the cluster node id;
//! key-less events inherit the key of the event that scheduled them). Keys
//! do not influence the order above. They name the lanes whose relative
//! order a [`ScheduleController`] may vary at one virtual instant — per-key
//! program order is always preserved — which is how `dsm-verify` explores
//! schedules on this same engine.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::cell::{SliceCell, SliceRc};
use crate::continuation::Coro;
use crate::error::SimError;
use crate::handle::SimHandle;
use crate::queue::{Event, EventKind, EventQueue, NO_THREAD};
use crate::thread::{Backing, SchedHandle, ThreadId, ThreadSlot};
use crate::time::{SimDuration, SimTime};

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
// Block reasons
// ---------------------------------------------------------------------------

/// Why a simulated thread yielded its slice back to the scheduler. Reified
/// at every yield site (sleep, wait sets, channels, DSM faults) so the
/// scheduler — and the profiling surface, [`Engine::block_profile`] — can
/// see *what* the simulation spends its blocking on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BlockReason {
    /// Blocked on a [`crate::WaitSet`] without a finer-grained annotation.
    WaitSet = 0,
    /// Blocked receiving from a simulation channel.
    Channel = 1,
    /// Blocked on a DSM page fault (waiting for a page or diff to arrive).
    PageFault = 2,
    /// Blocked waiting for protocol acknowledgements (release/flush).
    Ack = 3,
    /// Blocked on an RPC reply.
    Rpc = 4,
    /// Blocked in a barrier round.
    Barrier = 5,
}

/// All reasons, in discriminant order (the [`Engine::block_profile`] rows).
pub(crate) const BLOCK_REASONS: [BlockReason; 6] = [
    BlockReason::WaitSet,
    BlockReason::Channel,
    BlockReason::PageFault,
    BlockReason::Ack,
    BlockReason::Rpc,
    BlockReason::Barrier,
];

/// Summary of a completed simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time at which the run ended: its last event, or the completion
    /// of a thread that charged past it.
    pub final_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Number of times control was handed to a simulated thread. A wake
    /// can end without one: addressed to a thread that has finished, or to a
    /// thread parked in a wait whose condition the wake finds still false.
    pub context_switches: u64,
    /// Total number of simulated threads spawned over the run.
    pub threads_spawned: u64,
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
    /// transport (`TransportTuning::Permuted`): a value in `0..options`,
    /// where 0 is the canonical (ideal) delivery and higher values add
    /// bounded extra arrival slack, permuting cross-link delivery order
    /// while per-link FIFO is preserved by the transport itself.
    fn choose_delivery(&self, now: SimTime, from: u64, to: u64, options: u32) -> u32;
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// A worker of the thread table: its slot and, on the baton lane, its OS
/// thread.
struct Worker {
    slot: SliceRc<ThreadSlot>,
    os_thread: Option<JoinHandle<()>>,
}

/// Value of [`Shared::executing_shard`] while no event is executing. Not
/// usable as a shard key.
const NO_EVENT: u64 = u64::MAX;

/// The event queue and what is counted per submission, per park and per
/// finished thread.
struct EventState {
    queue: EventQueue,
    /// Sequence number of the next submission.
    seq: u64,
    /// Latest instant at which a thread's body ended, its unflushed charge
    /// included (see [`work`]); the clock is raised to it when the queue
    /// drains.
    latest_completion: u64,
    /// Count of parks per [`BlockReason`] (indexed by discriminant) — the
    /// data behind [`Engine::block_profile`].
    block_counts: [u64; BLOCK_REASONS.len()],
}

/// The workers of a run and the count of the threads they ran.
#[derive(Default)]
struct ThreadTable {
    /// Every worker made, by index, for the deadlock report and teardown. No
    /// wake reads it: a wake carries its worker.
    workers: Vec<Worker>,
    /// Indices of the vacant workers, the last one vacated last.
    idle: Vec<usize>,
    next_tid: u64,
    spawned: u64,
}

/// Scheduler state (see the module doc for who may touch it). Relaxed
/// throughout: for a continuation every access is on one OS thread, and a
/// baton thread runs strictly between the SeqCst `Granted` and `Parked`
/// stores of its slot, which publish everything else it wrote.
pub(crate) struct Shared {
    /// The clock: written by the scheduler loop only, read by everyone.
    now: AtomicU64,
    events: SliceCell<EventState>,
    /// Shard key of the event being executed ([`NO_EVENT`] between events):
    /// what key-less calls and spawns made by that event inherit. Written by
    /// the scheduler around each event and by the running thread when it
    /// migrates, read by that event's own pushes.
    executing_shard: AtomicU64,
    /// The scheduler's OS-thread handle: baton threads unpark it when they
    /// park or finish.
    sched: Arc<SchedHandle>,
    threads: SliceCell<ThreadTable>,
    panic_info: SliceCell<Option<(String, String)>>,
    /// Raised when `panic_info` holds something: the scheduler loop polls one
    /// word per event instead of borrowing the cell.
    panic_flag: AtomicBool,
    /// The installed [`ScheduleController`], if any (dsm-verify exploration).
    controller: SliceCell<Option<Arc<dyn ScheduleController>>>,
    /// Raised when `controller` holds something, so the per-event scheduler
    /// loop and the transport hot paths poll one word instead of the cell.
    controlled: AtomicBool,
    /// Processed events after which the run aborts with
    /// [`SimError::EventLimitExceeded`].
    max_events: u64,
}

impl Shared {
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now.load(Ordering::Relaxed))
    }

    /// Shard key of the executing event, `None` outside any event.
    fn executing_shard(&self) -> Option<u64> {
        match self.executing_shard.load(Ordering::Relaxed) {
            NO_EVENT => None,
            key => Some(key),
        }
    }

    /// Called by the scheduler around each event, and by the running thread
    /// when it re-homes itself (migration): what it pushes from then on
    /// inherits the new key.
    pub(crate) fn set_executing_shard(&self, key: u64) {
        self.executing_shard.store(key, Ordering::Relaxed);
    }

    /// Append an event with a fresh sequence number. A `time` already past
    /// is the current instant: keeping the past key would run the event
    /// *before* events queued earlier for this instant.
    fn submit(&self, time: SimTime, kind: EventKind, to: ThreadId, shard_key: u64) {
        let time = time.as_nanos().max(self.now.load(Ordering::Relaxed));
        let mut events = self.events.borrow();
        let seq = events.seq;
        events.seq += 1;
        events.queue.push(Event {
            time,
            seq,
            shard: shard_key,
            to,
            kind,
        });
    }

    /// Wake thread `id` with its worker embedded in the event, on the
    /// thread's current shard: the scheduler grants straight off the handle,
    /// which the event takes over, unless the worker has moved on to another
    /// thread by then. Every wake comes through here — a thread's own
    /// (`sleep`/`yield_now`/`flush`), a spawn's first, a wait set's notify;
    /// a wait set hands over the reference it popped.
    pub(crate) fn schedule_wake(&self, slot: SliceRc<ThreadSlot>, id: ThreadId, at: SimTime) {
        let key = slot.shard_key();
        self.submit(at, EventKind::Wake(slot), id, key);
    }

    pub(crate) fn schedule_call(
        &self,
        at: SimTime,
        key: Option<u64>,
        f: Box<dyn FnOnce(&EngineCtl) + Send>,
    ) {
        // Key-less calls inherit the executing event's shard; outside any
        // event they default to shard 0.
        let key = key.or_else(|| self.executing_shard()).unwrap_or(0);
        self.submit(at, EventKind::Call(f), NO_THREAD, key);
    }

    pub(crate) fn record_panic(&self, thread: String, message: String) {
        let mut info = self.panic_info.borrow();
        if info.is_none() {
            *info = Some((thread, message));
        }
        self.panic_flag.store(true, Ordering::Relaxed);
    }

    pub(crate) fn spawn_thread<F>(
        self: &Arc<Self>,
        name: SliceRc<str>,
        start_at: SimTime,
        shard_key: Option<u64>,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        // Held to the end: nothing below runs simulated code (a new worker
        // waits for its first grant).
        let mut threads = self.threads.borrow();
        let tid = ThreadId(threads.next_tid);
        threads.next_tid += 1;
        threads.spawned += 1;
        // Key preference: explicit > inherited from the spawning event >
        // the thread's own id.
        let key = shard_key
            .or_else(|| self.executing_shard())
            .unwrap_or(tid.0);
        let slot = match threads.idle.pop() {
            Some(w) => SliceRc::clone(&threads.workers[w].slot),
            None => self.new_worker(&mut threads),
        };
        slot.occupy(tid, name, key, Box::new(f));
        self.schedule_wake(slot, tid, start_at);
        tid
    }

    /// Make a worker, vacant, enter it in `threads` and start it up to its
    /// first park: a coroutine whose first resume is its first occupant's
    /// first grant, or an OS thread parked until then.
    fn new_worker(self: &Arc<Self>, threads: &mut ThreadTable) -> SliceRc<ThreadSlot> {
        let index = threads.workers.len();
        let slot = SliceRc::new(ThreadSlot::new(index, Backing::PLATFORM, &self.sched));
        // The worker's handle for life, and its reference to this `Shared`:
        // teardown breaks the cycle by ending the worker.
        let mut handle = SimHandle::new(
            EngineCtl {
                shared: Arc::clone(self),
            },
            SliceRc::clone(&slot),
        );
        let os_thread = match Backing::PLATFORM {
            Backing::Continuation => {
                slot.init_continuation(Coro::new(Box::new(move || work(&mut handle))));
                None
            }
            Backing::Baton => {
                let thread = std::thread::Builder::new()
                    .name(format!("sim-worker-{index}"))
                    .spawn(move || {
                        if handle.slot.park_and_wait() {
                            work(&mut handle);
                        }
                        handle.slot.mark_finished();
                    })
                    .expect("failed to spawn the OS thread of a simulated thread's worker");
                Some(thread)
            }
        };
        threads.workers.push(Worker {
            slot: SliceRc::clone(&slot),
            os_thread,
        });
        slot
    }

    /// Bump the engine-wide profile counter for `reason`.
    pub(crate) fn record_block(&self, reason: BlockReason) {
        self.events.borrow().block_counts[reason as usize] += 1;
    }

    /// The installed schedule controller, if any. One flag guards the cell
    /// so uncontrolled runs (the default) pay a single load per query.
    pub(crate) fn controller(&self) -> Option<Arc<dyn ScheduleController>> {
        if !self.controlled.load(Ordering::Relaxed) {
            return None;
        }
        self.controller.borrow().clone()
    }

    /// Pop the next event under schedule control: drain every pending event
    /// of the current minimum instant, present the per-shard-key heads to the
    /// controller (ascending sequence order, so index 0 is the canonical
    /// pick), execute the chosen head and reinsert the rest. Per-key
    /// sequence order — per-node program order and per-link FIFO — is
    /// preserved by construction; only the cross-key interleaving varies.
    fn pop_controlled(&self, controller: &Arc<dyn ScheduleController>) -> Option<Event> {
        let mut events = self.events.borrow();
        let head_time = events.queue.peek()?.time;
        // Pops yield ascending (time, seq): `batch` ends up sorted by
        // sequence number.
        let mut batch: Vec<Event> = Vec::new();
        while events.queue.peek().is_some_and(|e| e.time == head_time) {
            batch.push(events.queue.pop().expect("peeked event"));
        }
        // The controller is foreign code: not under the borrow.
        drop(events);
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
                        EventKind::Wake(_) => Some(batch[h].to),
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
        let mut events = self.events.borrow();
        for e in batch {
            events.queue.push(e);
        }
        Some(chosen)
    }
}

/// What a worker runs, on either lane, from its first grant to teardown: take
/// the occupant's body and run it, note the instant it completes — the
/// event's plus whatever was charged since the last yield; nobody is left to
/// observe a slice that sleeps that off — turn a panic into the run's error
/// (the teardown unwind is not one), vacate the slot and park until the next
/// occupant's first grant.
fn work(handle: &mut SimHandle) {
    loop {
        let body = handle
            .slot
            .take_body()
            .expect("an occupied worker is granted its body");
        handle.name = handle.slot.name();
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(handle)));
        let ended = handle.now().as_nanos();
        handle.pending = SimDuration::ZERO;
        let shared = &handle.ctl.shared;
        {
            let mut events = shared.events.borrow();
            events.latest_completion = events.latest_completion.max(ended);
        }
        if let Err(payload) = result {
            if payload.downcast_ref::<ShutdownUnwind>().is_none() {
                shared.record_panic(handle.name().to_string(), panic_message(&*payload));
            }
        }
        handle.slot.vacate();
        if handle.slot.shutdown_requested() || !handle.slot.park_and_wait() {
            return;
        }
    }
}

/// A lightweight, cloneable controller over the engine. It is handed to
/// scheduler callbacks and embedded in simulation-aware data structures
/// (channels, wait queues) so they can schedule calls, spawn threads and
/// notify wait sets.
#[derive(Clone)]
pub struct EngineCtl {
    pub(crate) shared: Arc<Shared>,
}

impl EngineCtl {
    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Schedule a closure to run on the scheduler at absolute time `at` (the
    /// current instant if that is already past). The event inherits the
    /// shard of the context scheduling it (shard 0 when scheduled from
    /// outside the simulation).
    pub fn call_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared.schedule_call(at, None, Box::new(f));
    }

    /// Schedule a closure on an explicit shard. Layers use this to pin
    /// callbacks that touch a node's state to the node's shard (e.g.
    /// transport delivery at the receiver), so a [`ScheduleController`]
    /// keeps them in program order with the node's other events.
    pub fn call_at_on<F>(&self, shard_key: u64, at: SimTime, f: F)
    where
        F: FnOnce(&EngineCtl) + Send + 'static,
    {
        self.shared.schedule_call(at, Some(shard_key), Box::new(f));
    }

    /// Spawn a simulated thread that becomes runnable at the current global
    /// time. Mirrors [`Engine::spawn`] for code that only holds a controller.
    pub fn spawn<F>(&self, name: impl Into<SliceRc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.shared.spawn_thread(name.into(), now, None, f)
    }

    /// Spawn a simulated thread bound to shard `shard_key` (see
    /// [`Engine::spawn_on`]).
    pub fn spawn_on<F>(&self, shard_key: u64, name: impl Into<SliceRc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.now();
        self.spawn_on_at(shard_key, name, now, f)
    }

    /// Spawn a simulated thread bound to shard `shard_key` that becomes
    /// runnable at the absolute virtual time `start_at` (the current instant
    /// if that is already past). An event that knows *when* work it hands to
    /// a thread may start — an RPC dispatch that ends after its software
    /// cost — spawns the thread for that time directly instead of waking an
    /// intermediary to sleep the cost off. A shared `SliceRc<str>` name is taken
    /// as is, so spawning from a prepared name allocates no string.
    pub fn spawn_on_at<F>(
        &self,
        shard_key: u64,
        name: impl Into<SliceRc<str>>,
        start_at: SimTime,
        f: F,
    ) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.shared
            .spawn_thread(name.into(), start_at, Some(shard_key), f)
    }

    /// The engine's installed [`ScheduleController`], if any. Transport
    /// backends with controllable delivery order (`Permuted`) query this on
    /// every submit; the common uncontrolled case is one atomic load.
    pub fn controller(&self) -> Option<Arc<dyn ScheduleController>> {
        self.shared.controller()
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
    /// Create a new engine that aborts a run after 50 million events.
    pub fn new() -> Self {
        Engine::with_event_limit(50_000_000)
    }

    /// Create a new engine that aborts a run with
    /// [`SimError::EventLimitExceeded`] once it has processed more than
    /// `max_events` events: the guard against a runaway simulation.
    pub fn with_event_limit(max_events: u64) -> Self {
        Engine {
            shared: Arc::new(Shared {
                now: AtomicU64::new(0),
                events: SliceCell::new(EventState {
                    queue: EventQueue::new(),
                    seq: 0,
                    latest_completion: 0,
                    block_counts: [0; BLOCK_REASONS.len()],
                }),
                executing_shard: AtomicU64::new(NO_EVENT),
                sched: Arc::new(SchedHandle::new()),
                threads: SliceCell::default(),
                panic_info: SliceCell::new(None),
                panic_flag: AtomicBool::new(false),
                controller: SliceCell::new(None),
                controlled: AtomicBool::new(false),
                max_events,
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
    pub fn spawn<F>(&self, name: impl Into<SliceRc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        let now = self.shared.now();
        self.shared.spawn_thread(name.into(), now, None, f)
    }

    /// Spawn a simulated thread bound to shard `shard_key`: all its wake-ups
    /// carry that key, in program order with every other event of the shard
    /// under a [`ScheduleController`]. Upper layers pass the cluster node id
    /// so that all activity of one node is one lane.
    pub fn spawn_on<F>(&self, shard_key: u64, name: impl Into<SliceRc<str>>, f: F) -> ThreadId
    where
        F: FnOnce(&mut SimHandle) + Send + 'static,
    {
        self.ctl().spawn_on(shard_key, name, f)
    }

    /// Install a [`ScheduleController`]: every same-instant event-order tie
    /// (and every delivery on a `Permuted` transport) is resolved by the
    /// controller instead of canonically.
    pub fn set_controller(&self, controller: Arc<dyn ScheduleController>) {
        *self.shared.controller.borrow() = Some(controller);
        self.shared.controlled.store(true, Ordering::Relaxed);
    }

    /// Engine-wide count of parks per [`BlockReason`] so far: what the
    /// simulation spends its blocking on (page faults, acks, RPC replies,
    /// barriers, channels...). Purely observational — deliberately *not*
    /// part of [`RunReport`].
    pub fn block_profile(&self) -> Vec<(BlockReason, u64)> {
        let counts = self.shared.events.borrow().block_counts;
        BLOCK_REASONS.iter().copied().zip(counts).collect()
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
        // escaped run_inner (a bug in the engine) would otherwise leave
        // simulated threads parked forever with no one to grant them. Tear
        // every slot down first, then re-raise.
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.run_inner()));
        self.teardown();
        match result {
            Ok(result) => result,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Verdict once the event queue is empty, after `events` events: clean
    /// completion (`Ok`) or a deadlock report naming the occupant of each
    /// parked worker and, when the slot recorded one, the [`BlockReason`] it
    /// is stuck on.
    fn drained_verdict(&self, events: u64) -> Result<(), SimError> {
        let shared = &self.shared;
        let mut parked: Vec<String> = shared
            .threads
            .borrow()
            .workers
            .iter()
            .map(|w| &w.slot)
            .filter(|slot| !slot.is_vacant() && slot.is_parked())
            .map(|slot| match slot.blocked_on() {
                Some(reason) => format!("{} ({}) blocked on {reason:?}", slot.name(), slot.id()),
                None => format!("{} ({})", slot.name(), slot.id()),
            })
            .collect();
        if parked.is_empty() {
            return Ok(());
        }
        parked.sort();
        Err(SimError::Deadlock {
            at: shared.now(),
            parked_threads: parked,
            events,
        })
    }

    fn run_inner(&self) -> Result<RunReport, SimError> {
        let shared = &self.shared;
        // Publish the scheduler's OS-thread handle before the first grant so
        // baton threads can wake us.
        shared.sched.register_current();
        let ctl = self.ctl();
        let mut last_pop = None;
        // Counted by this loop alone, so they are its locals.
        let (mut processed, mut context_switches) = (0u64, 0u64);
        loop {
            // The cell is only borrowed once the flag says there is something
            // to read — the loop head runs once per event.
            if shared.panic_flag.load(Ordering::Relaxed) {
                if let Some((thread, message)) = shared.panic_info.borrow().take() {
                    return Err(SimError::ThreadPanic {
                        thread,
                        message,
                        events: processed,
                    });
                }
            }

            // Under an installed controller (dsm-verify exploration) the pop
            // consults the controller at every same-instant choice point.
            let controller = shared.controller();
            let popped = match &controller {
                Some(controller) => shared.pop_controlled(controller),
                None => shared.events.borrow().queue.pop(),
            };
            let Some(event) = popped else {
                // The run ends when its last thread completes, which may be
                // later than its last event.
                let completed = shared.events.borrow().latest_completion;
                let ended = completed.max(shared.now.load(Ordering::Relaxed));
                shared.now.store(ended, Ordering::Relaxed);
                return self.drained_verdict(processed).map(|()| RunReport {
                    final_time: SimTime::from_nanos(ended),
                    events: processed,
                    context_switches,
                    threads_spawned: shared.threads.borrow().spawned,
                });
            };
            // What FIFO wait sets and tick buckets rest on: left to itself,
            // the engine executes events in the order they were submitted
            // for their instant.
            debug_assert!(
                controller.is_some() || last_pop < Some((event.time, event.seq)),
                "event ({}, {}) popped after {last_pop:?}",
                event.time,
                event.seq
            );
            last_pop = Some((event.time, event.seq));
            shared.now.store(event.time, Ordering::Relaxed);
            processed += 1;
            if processed > shared.max_events {
                return Err(SimError::EventLimitExceeded {
                    limit: shared.max_events,
                });
            }
            context_switches += u64::from(execute_event(&ctl, event));
        }
    }

    fn teardown(&self) {
        // Runs after the scheduler loop ended, so this thread owns every
        // worker. One at a time, to the end of its unwind: the frames parked
        // on its stack have destructors, those may touch state that is only
        // exclusive while the hand-off orders its users, and a baton worker
        // unwinds on an OS thread of its own.
        let workers = {
            let mut threads = self.shared.threads.borrow();
            threads.idle.clear();
            std::mem::take(&mut threads.workers)
        };
        for worker in workers {
            // Release a baton worker still waiting for a grant so its OS
            // thread can exit.
            worker.slot.request_shutdown();
            // Unwind a suspended continuation, occupied or idle, and drop a
            // never-started one: each holds its handle's `Arc` back to
            // `Shared`.
            worker.slot.teardown_continuation();
            if let Some(os_thread) = worker.os_thread {
                let _ = os_thread.join();
            }
            // The body of an occupant that never started can hold one too.
            drop(worker.slot.take_body());
        }
    }
}

/// Execute one event: a `Wake` whose thread is in no wait, or in one that is
/// over, hands a slice to its thread and returns when the thread parks
/// again — putting its worker on the idle list if that slice was its last —
/// and a `Call` runs its closure right here. Either way the event's shard
/// key is what key-less pushes made meanwhile inherit.
/// Returns whether a slice ran (a context switch).
fn execute_event(ctl: &EngineCtl, event: Event) -> bool {
    let shared = &ctl.shared;
    let mut switched = false;
    match event.kind {
        // A wake for a thread its worker no longer runs is stale.
        EventKind::Wake(slot) if slot.runs(event.to) => {
            // A thread woken through a key captured before it migrated runs
            // under the key it has now.
            shared.set_executing_shard(slot.shard_key());
            if wait_is_over(shared, &slot, event.to) {
                switched = slot.grant_and_wait();
                if slot.is_vacant() {
                    shared.threads.borrow().idle.push(slot.index);
                }
            }
        }
        EventKind::Wake(_) => {}
        EventKind::Call(f) => {
            shared.set_executing_shard(event.shard);
            // A panicking scheduler callback must not take down the
            // scheduler loop (teardown would never release the parked
            // threads); record it like a thread panic and let the loop head
            // convert it into the run's error.
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(ctl))) {
                shared.record_panic("scheduler-call".to_string(), panic_message(&*payload));
            }
        }
    }
    shared.set_executing_shard(NO_EVENT);
    switched
}

/// Whether thread `id`, woken on `slot`, is to be granted its slice: true
/// unless it is parked in a wait whose condition is still false — the check
/// has then registered it again and booked the park. A condition that panics
/// here is the waiting thread's panic, and the thread stays parked for the
/// teardown to unwind.
fn wait_is_over(shared: &Shared, slot: &SliceRc<ThreadSlot>, id: ThreadId) -> bool {
    let check = || ThreadSlot::check_wait(slot, id, shared);
    match panic::catch_unwind(AssertUnwindSafe(check)) {
        Ok(over) => over,
        Err(payload) => {
            shared.record_panic(slot.name().to_string(), panic_message(&*payload));
            false
        }
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
            self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::wait::WaitSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

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
        let name: SliceRc<str> = "handler".into();
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
                order.lock().unwrap().push(name.to_string());
            });
        }
        engine.run().unwrap();
        assert_eq!(order.lock().unwrap().clone(), vec!["early", "mid", "late"]);
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

    /// Park on a wait set that nobody else can notify.
    fn park_forever(h: &mut SimHandle) {
        WaitSet::new().wait_until(h, || false);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut engine = Engine::new();
        engine.spawn("stuck", park_forever);
        match engine.run() {
            Err(SimError::Deadlock { parked_threads, .. }) => {
                assert_eq!(parked_threads.len(), 1);
                assert!(parked_threads[0].starts_with("stuck"));
                assert!(parked_threads[0].ends_with("blocked on WaitSet"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// A deadlock report names the reason of each thread's latest park, not
    /// of an earlier one, and not its sleeps.
    #[test]
    fn deadlock_names_each_threads_latest_park_reason() {
        let mut engine = Engine::new();
        let (tx, rx) = crate::channel::channel::<u32>(engine.ctl());
        let a = engine.spawn("a", move |h| {
            assert_eq!(rx.recv(h), 7);
            h.sleep(SimDuration::from_micros(5));
            WaitSet::<()>::new().wait_until_why((), h, BlockReason::Barrier, || false);
        });
        let b = engine.spawn("b", move |h| {
            h.sleep(SimDuration::from_micros(1));
            tx.send(h, 7);
            WaitSet::<()>::new().wait_until_why((), h, BlockReason::Rpc, || false);
        });
        match engine.run() {
            Err(SimError::Deadlock { parked_threads, .. }) => assert_eq!(
                parked_threads,
                [
                    format!("a ({a}) blocked on Barrier"),
                    format!("b ({b}) blocked on Rpc"),
                ]
            ),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn thread_panic_is_reported() {
        let mut engine = Engine::new();
        engine.spawn("bad", |_h| panic!("intentional test panic"));
        match engine.run() {
            Err(SimError::ThreadPanic {
                thread, message, ..
            }) => {
                assert_eq!(thread, "bad");
                assert!(message.contains("intentional"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    /// A condition that panics when the engine checks it at a wake is the
    /// waiting thread's panic, not a scheduler call's, and the run's
    /// teardown unwinds the thread that never got its slice.
    #[test]
    fn a_condition_that_panics_at_its_wake_is_the_waiters_panic() {
        let mut engine = Engine::new();
        let ws = Arc::new(WaitSet::new());
        let w = ws.clone();
        engine.spawn("waiter", move |h| {
            let mut checks = 0;
            w.wait_until(h, || {
                checks += 1;
                assert!(checks < 2, "condition checked twice");
                false
            });
            unreachable!("the wait never ends");
        });
        engine.spawn("notifier", move |h| {
            h.sleep(SimDuration::from_micros(1));
            ws.notify_one((), h.ctl(), SimDuration::ZERO);
        });
        match engine.run() {
            Err(SimError::ThreadPanic {
                thread,
                message,
                events,
            }) => {
                assert_eq!(thread, "waiter");
                assert_eq!(message, "condition checked twice");
                assert_eq!(events, 4);
            }
            other => panic!("expected the waiter's panic, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_guard_triggers() {
        let mut engine = Engine::with_event_limit(10);
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
    fn past_dated_call_runs_at_now_behind_what_is_already_queued_for_now() {
        let mut engine = Engine::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        engine.spawn("t", move |h| {
            h.sleep(SimDuration::from_micros(50));
            let ctl = h.ctl();
            for (label, at_us) in [("due now", 50), ("dated 10 us ago", 40)] {
                let l = l.clone();
                ctl.call_at(SimTime::from_micros(at_us), move |c| {
                    l.lock().unwrap().push((label, c.now().as_nanos()));
                });
            }
        });
        engine.run().unwrap();
        assert_eq!(
            log.lock().unwrap().clone(),
            vec![("due now", 50_000), ("dated 10 us ago", 50_000)]
        );
    }

    #[test]
    fn keyless_pushes_inherit_the_executing_events_shard() {
        let mut engine = Engine::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        engine.spawn_on(5, "parent", move |h| {
            let s2 = s.clone();
            h.ctl()
                .spawn("child", move |h| s2.lock().unwrap().push(h.shard()));
            // A migrating thread takes what it pushes afterwards with it.
            h.set_shard(9);
            let s2 = s.clone();
            h.ctl()
                .spawn("child", move |h| s2.lock().unwrap().push(h.shard()));
        });
        // Outside any event a key-less spawn is its own lane.
        let s = seen.clone();
        let outside = engine.spawn("outside", move |h| s.lock().unwrap().push(h.shard()));
        engine.run().unwrap();
        assert_eq!(seen.lock().unwrap().clone(), vec![outside.as_u64(), 5, 9]);
    }

    /// Names of the threads the engine's workers are occupied by.
    fn occupants(shared: &Shared) -> Vec<String> {
        let threads = shared.threads.borrow();
        let mut names: Vec<String> = threads
            .workers
            .iter()
            .filter(|w| !w.slot.is_vacant())
            .map(|w| w.slot.name().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_finishing_thread_takes_no_slice_for_its_last_charge() {
        let us = SimDuration::from_micros;
        let report = |final_us, events, threads_spawned| RunReport {
            final_time: SimTime::from_micros(final_us),
            events,
            context_switches: events,
            threads_spawned,
        };
        // Alone: the run ends when the charge does, after one event.
        let mut engine = Engine::new();
        engine.spawn("t", move |h| h.charge(us(9)));
        assert_eq!(engine.run().unwrap(), report(9, 1, 1));
        assert_eq!(engine.now(), SimTime::from_micros(9));
        // Next to a thread whose last event is later, or earlier.
        for (other_us, final_us) in [(20, 20), (5, 9)] {
            let mut engine = Engine::new();
            engine.spawn("t", move |h| h.charge(us(9)));
            engine.spawn("other", move |h| h.sleep(us(other_us)));
            assert_eq!(engine.run().unwrap(), report(final_us, 3, 2));
        }
        // A deadlock is dated the same way.
        let mut engine = Engine::new();
        engine.spawn("t", move |h| h.charge(us(9)));
        engine.spawn("stuck", park_forever);
        match engine.run() {
            Err(SimError::Deadlock { at, .. }) => assert_eq!(at, SimTime::from_micros(9)),
            other => panic!("expected deadlock, got {other:?}"),
        }
        // The thread that takes the finished thread's worker starts with
        // nothing pending: its clock is the engine's.
        let mut engine = Engine::new();
        engine.spawn("t", move |h| h.charge(us(9)));
        engine.spawn("other", move |h| {
            h.sleep(us(20));
            h.spawn("next", move |h| {
                assert_eq!((h.slot.index, h.now()), (0, SimTime::from_micros(20)));
                h.sleep(us(1));
            });
        });
        assert_eq!(engine.run().unwrap(), report(21, 5, 3));
    }

    #[test]
    fn a_panicking_threads_worker_falls_vacant_like_any_other() {
        // Driven without `run`'s teardown, which ends every worker anyway.
        let engine = Engine::new();
        engine.spawn("parked", park_forever);
        engine.spawn("bad", |h| {
            h.sleep(SimDuration::from_micros(3));
            panic!("intentional test panic");
        });
        let result = engine.run_inner();
        assert!(matches!(result, Err(SimError::ThreadPanic { .. })));
        assert_eq!(occupants(&engine.shared), ["parked"]);
        assert_eq!(engine.shared.threads.borrow().idle, [1]);
    }

    /// A wake addressed to a thread that has finished — submitted directly,
    /// or by the notify of a wait-set entry registered under its id — does
    /// not reach the thread its worker runs now: it is an event, not a
    /// switch, and the new occupant resumes when its own wake says.
    #[test]
    fn a_stale_wake_does_not_reach_a_recycled_worker() {
        let us = SimDuration::from_micros;
        for through_a_wait_set in [false, true] {
            let mut engine = Engine::new();
            let a = engine.spawn("a", |_| {});
            let resumed = Arc::new(AtomicU64::new(0));
            let r = resumed.clone();
            engine.spawn("spawner", move |h| {
                h.sleep(us(1));
                // A finished at 0, so B takes its worker.
                let b = h.spawn("b", move |h| {
                    h.sleep(us(9));
                    r.store(h.now().as_nanos(), Ordering::SeqCst);
                });
                let shared = Arc::clone(&h.ctl().shared);
                let slot = SliceRc::clone(&shared.threads.borrow().workers[0].slot);
                assert!(slot.runs(b));
                h.sleep(us(1));
                if through_a_wait_set {
                    let ws = WaitSet::new();
                    ws.waiters.borrow().push_back(((), a, slot));
                    assert_eq!(ws.notify_all((), h.ctl(), SimDuration::ZERO), 1);
                } else {
                    shared.schedule_wake(slot, a, h.now());
                }
            });
            let report = engine.run().unwrap();
            assert_eq!(resumed.load(Ordering::SeqCst), 10_000);
            // a, spawner ×3, b ×2 and the stale wake.
            assert_eq!(
                report,
                RunReport {
                    final_time: SimTime::from_micros(10),
                    events: 7,
                    context_switches: 6,
                    threads_spawned: 3,
                }
            );
        }
    }

    /// However a run ends, nothing of it outlives the engine: once the engine
    /// and every handle on it are dropped, its scheduler state is freed. The
    /// bodies keep controllers, wait sets that hold their own slots and
    /// children of their own, and every worker's handle holds the engine, so
    /// a reference that a spawn, a wake, a finishing grant or the teardown
    /// failed to give back shows up as a live `Shared`.
    #[test]
    fn nothing_outlives_its_run() {
        let us = SimDuration::from_micros;
        let ends = |build: &dyn Fn(&Engine), run: bool| {
            let mut engine = Engine::new();
            let shared = Arc::downgrade(&engine.shared);
            build(&engine);
            // The first worker: its slot rides in wakes and wait sets.
            let slot = SliceRc::downgrade(&engine.shared.threads.borrow().workers[0].slot);
            let result = run.then(|| engine.run());
            drop(engine);
            assert!(shared.upgrade().is_none(), "the run outlived its engine");
            assert!(slot.upgrade().is_none(), "a worker outlived its engine");
            result
        };
        // Parked in a wait set that only its own body holds.
        let spawn_parked = |engine: &Engine, name: &str| {
            engine.spawn(name, park_forever);
        };

        let completed = ends(
            &|engine| {
                let (ws, flag) = (Arc::new(WaitSet::new()), Arc::new(AtomicBool::new(false)));
                let (w, f) = (ws.clone(), flag.clone());
                engine.spawn("waiter", move |h| {
                    w.wait_until(h, || f.load(Ordering::SeqCst))
                });
                let ctl = engine.ctl();
                engine.spawn("notifier", move |h| {
                    h.spawn("child", move |h| h.sleep(us(1)));
                    h.sleep(us(2));
                    flag.store(true, Ordering::SeqCst);
                    ws.notify_all((), &ctl, SimDuration::ZERO);
                });
            },
            true,
        );
        assert!(matches!(completed, Some(Ok(_))), "{completed:?}");

        let deadlocked = ends(&|engine| spawn_parked(engine, "stuck"), true);
        assert!(
            matches!(deadlocked, Some(Err(SimError::Deadlock { .. }))),
            "{deadlocked:?}"
        );

        // One worker idle, the other parked forever in its second occupant.
        let recycled = ends(
            &|engine| {
                engine.spawn("first", |_| {});
                engine.spawn("spawner", move |h| {
                    h.sleep(us(1));
                    h.spawn("second", park_forever);
                });
            },
            true,
        );
        match recycled {
            Some(Err(SimError::Deadlock { parked_threads, .. })) => {
                assert_eq!(parked_threads, ["second (T2) blocked on WaitSet"]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }

        let panicked = ends(
            &|engine| {
                spawn_parked(engine, "parked");
                let ctl = engine.ctl();
                engine.spawn("bad", move |h| {
                    // Due after the panic has ended the run: never started.
                    ctl.spawn_on_at(0, "late", SimTime::from_micros(10), park_forever);
                    h.sleep(us(1));
                    panic!("intentional test panic");
                });
            },
            true,
        );
        assert!(
            matches!(panicked, Some(Err(SimError::ThreadPanic { .. }))),
            "{panicked:?}"
        );

        let never_ran = ends(
            &|engine| {
                spawn_parked(engine, "idle");
                let ctl = engine.ctl();
                engine.spawn("holder", move |_| drop(ctl));
            },
            false,
        );
        assert!(never_ran.is_none());
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
}
