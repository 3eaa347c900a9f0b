//! Happens-before race detection over a recorded event log.
//!
//! The detector is log-based rather than online so its verdict is a pure
//! function of the recorded stream: the log is first canonicalized by a
//! stable sort on `(virtual time, node)` — within one `(time, node)` group
//! the append order is the engine's per-shard execution order — which makes
//! the analysis independent of how same-instant events of different nodes
//! happened to interleave in the raw log.
//!
//! Ordering edges:
//!
//! * **program order** — accesses of one simulated thread are totally
//!   ordered (threads survive migration, so this holds across nodes);
//! * **lock edges** — a `LockReleasing` publishes the releaser's vector
//!   clock into the lock; a later `LockAcquired` of the same lock joins it;
//! * **barrier edges** — each barrier round joins every participant's clock
//!   at the enters and redistributes the join at the exits.
//!
//! Two accesses to the same 8-byte word, at least one a write, by different
//! threads, with neither ordered before the other, are a **data race** — and
//! a finding exactly when the page's protocol declares a relaxed consistency
//! model ([`ConsistencyModel::tolerates_unsynchronized_sharing`] is false).
//! Under a sequentially consistent protocol the same pair is benign: the
//! protocol serializes every access itself, which is the paper's motivation
//! for offering both families.

use std::collections::{BTreeSet, HashMap};

use dsmpm2_core::{ConsistencyModel, PageId, SyncEvent};

use crate::log::{Finding, FindingKind, LogRecord};

/// A vector clock: thread id -> logical time. Missing components are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct VectorClock(HashMap<u64, u64>);

impl VectorClock {
    fn get(&self, thread: u64) -> u64 {
        self.0.get(&thread).copied().unwrap_or(0)
    }

    fn set(&mut self, thread: u64, value: u64) {
        self.0.insert(thread, value);
    }

    fn join(&mut self, other: &VectorClock) {
        for (&t, &v) in &other.0 {
            let slot = self.0.entry(t).or_insert(0);
            *slot = (*slot).max(v);
        }
    }
}

/// One prior access epoch of a thread on a word: the thread's own clock
/// component at the time of the access, plus provenance for the report.
#[derive(Clone, Copy, Debug)]
struct Epoch {
    clock: u64,
    node: usize,
    time_ns: u64,
}

#[derive(Default)]
struct WordState {
    /// Last write epoch per thread.
    writes: HashMap<u64, Epoch>,
    /// Last read epoch per thread.
    reads: HashMap<u64, Epoch>,
}

/// Detect data races (and owner-version rewinds) in `log`.
///
/// The result is deterministic: the log is canonicalized before analysis and
/// the findings are sorted and deduplicated (one finding per conflicting
/// `(page, thread, thread)` pair).
pub fn analyze(log: &[LogRecord]) -> Vec<Finding> {
    let mut records: Vec<&LogRecord> = log.iter().collect();
    records.sort_by_key(|r| (r.time().as_nanos(), r.node().0));

    let mut clocks: HashMap<u64, VectorClock> = HashMap::new();
    let mut lock_clocks: HashMap<u64, VectorClock> = HashMap::new();
    // Per (barrier, round): the join of every participant's clock at enter.
    let mut barrier_rounds: HashMap<(u64, u64), VectorClock> = HashMap::new();
    let mut barrier_enters: HashMap<(u64, u64), u64> = HashMap::new();
    let mut barrier_exits: HashMap<(u64, u64), u64> = HashMap::new();
    let mut words: HashMap<(PageId, u64), WordState> = HashMap::new();
    let mut race_pairs: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();

    // A thread's clock starts with its own component at 1 so that the very
    // first epoch of a thread is never vacuously ordered before an
    // unsynchronized observer (whose view of the thread is 0).
    let thread_clock = |clocks: &mut HashMap<u64, VectorClock>, thread: u64| {
        clocks.entry(thread).or_insert_with(|| {
            let mut vc = VectorClock::default();
            vc.set(thread, 1);
            vc
        });
    };

    for record in records {
        match record {
            LogRecord::Sync(event) => {
                let thread = event.thread().as_u64();
                thread_clock(&mut clocks, thread);
                match event {
                    SyncEvent::LockAcquired { lock, .. } => {
                        if let Some(lc) = lock_clocks.get(&lock.0) {
                            clocks.get_mut(&thread).expect("thread clock").join(lc);
                        }
                    }
                    SyncEvent::LockReleasing { lock, .. } => {
                        let vc = clocks.get_mut(&thread).expect("thread clock");
                        lock_clocks.entry(lock.0).or_default().join(vc);
                        let own = vc.get(thread);
                        vc.set(thread, own + 1);
                    }
                    SyncEvent::BarrierEnter { barrier, .. } => {
                        let round = *barrier_enters.entry((barrier.0, thread)).or_insert(0);
                        barrier_enters.insert((barrier.0, thread), round + 1);
                        let vc = clocks.get_mut(&thread).expect("thread clock");
                        barrier_rounds
                            .entry((barrier.0, round))
                            .or_default()
                            .join(vc);
                        let own = vc.get(thread);
                        vc.set(thread, own + 1);
                    }
                    SyncEvent::BarrierExit { barrier, .. } => {
                        let round = *barrier_exits.entry((barrier.0, thread)).or_insert(0);
                        barrier_exits.insert((barrier.0, thread), round + 1);
                        if let Some(join) = barrier_rounds.get(&(barrier.0, round)) {
                            clocks.get_mut(&thread).expect("thread clock").join(join);
                        }
                    }
                }
            }
            LogRecord::Access { access, model } => {
                let thread = access.thread.as_u64();
                thread_clock(&mut clocks, thread);
                let vc = clocks.get(&thread).expect("thread clock").clone();
                let epoch = Epoch {
                    clock: vc.get(thread),
                    node: access.node.0,
                    time_ns: access.time.as_nanos(),
                };
                let first = access.addr.0 / 8;
                let last = (access.addr.0 + access.len.max(1) as u64 - 1) / 8;
                for word in first..=last {
                    let state = words.entry((access.page, word)).or_default();
                    // A write conflicts with prior reads and writes; a read
                    // only with prior writes.
                    let mut conflicting: Vec<(u64, Epoch)> =
                        state.writes.iter().map(|(&t, &e)| (t, e)).collect();
                    if access.is_write {
                        conflicting.extend(state.reads.iter().map(|(&t, &e)| (t, e)));
                    }
                    for (other, prior) in conflicting {
                        if other == thread || prior.clock <= vc.get(other) {
                            continue;
                        }
                        if model.tolerates_unsynchronized_sharing() {
                            continue;
                        }
                        let pair = (access.page.0, other.min(thread), other.max(thread));
                        if race_pairs.insert(pair) {
                            findings.push(race_finding(
                                access.page,
                                *model,
                                (other, prior),
                                (thread, epoch, access.is_write),
                            ));
                        }
                    }
                    if access.is_write {
                        state.writes.insert(thread, epoch);
                        // A new write supersedes this thread's read epoch for
                        // conflict purposes; keep both maps small.
                        state.reads.remove(&thread);
                    } else {
                        state.reads.insert(thread, epoch);
                    }
                }
            }
            LogRecord::OwnerVersion {
                node,
                page,
                old,
                new,
                ..
            } => {
                if new < old {
                    findings.push(Finding {
                        kind: FindingKind::OwnerVersionRewind,
                        detail: format!(
                            "home node {} rewound {}'s owner version {} -> {}",
                            node.0, page, old, new
                        ),
                    });
                }
            }
        }
    }

    findings.sort();
    findings.dedup();
    findings
}

fn race_finding(
    page: PageId,
    model: ConsistencyModel,
    (thread_a, prior): (u64, Epoch),
    (thread_b, epoch, is_write): (u64, Epoch, bool),
) -> Finding {
    Finding {
        kind: FindingKind::DataRace,
        detail: format!(
            "unordered conflicting accesses to {page} under {model:?}: thread {thread_a} \
             (node {}, t={}ns) vs thread {thread_b} {} (node {}, t={}ns)",
            prior.node,
            prior.time_ns,
            if is_write { "write" } else { "read" },
            epoch.node,
            epoch.time_ns,
        ),
    }
}
