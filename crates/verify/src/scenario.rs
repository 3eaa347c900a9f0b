//! A tiny straight-line DSL for verification scenarios.
//!
//! A [`Scenario`] is a fixed small configuration — 2–3 nodes, 1–2 pages,
//! a handful of operations per thread — whose entire schedule space the
//! explorer can enumerate. Each page holds one `u64` word at offset 0
//! (sub-page scenarios address further words through the `*At` ops);
//! threads run straight-line op lists (no data-dependent branching), so a
//! scenario's behaviour is a pure function of the schedule.

/// One straight-line operation of a scenario thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read page `page`'s word.
    Read {
        /// Page index within the scenario.
        page: usize,
    },
    /// Write `value` to page `page`'s word.
    Write {
        /// Page index within the scenario.
        page: usize,
        /// Value stored.
        value: u64,
    },
    /// Read-modify-write: add `delta` to page `page`'s word.
    Add {
        /// Page index within the scenario.
        page: usize,
        /// Increment applied.
        delta: u64,
    },
    /// Read the word at byte `offset` of page `page` (sub-page scenarios:
    /// at line granularity `g`, offset `k * g` addresses line `k`).
    ReadAt {
        /// Page index within the scenario.
        page: usize,
        /// Byte offset within the page (8-aligned).
        offset: usize,
    },
    /// Write `value` to the word at byte `offset` of page `page`.
    WriteAt {
        /// Page index within the scenario.
        page: usize,
        /// Byte offset within the page (8-aligned).
        offset: usize,
        /// Value stored.
        value: u64,
    },
    /// Read-modify-write the word at byte `offset` of page `page`.
    AddAt {
        /// Page index within the scenario.
        page: usize,
        /// Byte offset within the page (8-aligned).
        offset: usize,
        /// Increment applied.
        delta: u64,
    },
    /// Acquire the scenario's lock.
    Acquire,
    /// Release the scenario's lock.
    Release,
    /// Wait at the scenario's barrier (all threads with barriers take part).
    Barrier,
    /// Switch page `page`'s region to another registered protocol. Must be
    /// executed at a quiescent point (between barriers).
    Switch {
        /// Page index within the scenario.
        page: usize,
        /// Name of the protocol switched to.
        protocol: &'static str,
    },
    /// Migrate the executing thread to node `to`.
    Migrate {
        /// Destination node index.
        to: usize,
    },
    /// Send a forged stale `AcquireDone(page, owner, version)` control
    /// message to the page's home — fault injection modeling a duplicated
    /// coherence message that slipped past wire-level dedup. The home's
    /// version gate must ignore it.
    InjectStaleDone {
        /// Page index within the scenario.
        page: usize,
        /// Claimed (stale) owner node index.
        owner: usize,
        /// Claimed (stale) succession version.
        version: u64,
    },
}

/// One scenario thread: a home node and a straight-line op list.
#[derive(Clone, Debug)]
pub struct ThreadSpec {
    /// Node the thread starts on.
    pub node: usize,
    /// The thread's operations, executed in order.
    pub ops: Vec<Op>,
}

/// A small, fully explorable verification configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (stable; used in reports).
    pub name: &'static str,
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Number of shared pages (each holding one word at offset 0).
    pub pages: usize,
    /// Node index that is the fixed home of every page.
    pub home: usize,
    /// Node index managing the scenario's lock.
    pub lock_manager: usize,
    /// Coherence granularity in bytes for every scenario page (`0` = the
    /// default whole-page unit). Protocols that do not support sub-page
    /// coherence clamp this transparently, so sub-page scenarios stay
    /// runnable — with identical expected memory — under every protocol.
    pub granularity: usize,
    /// The scenario threads.
    pub threads: Vec<ThreadSpec>,
    /// Expected final word per page, when the scenario is
    /// schedule-independent (`None` entries are unchecked).
    pub expected: Vec<Option<u64>>,
    /// Expected final words at sub-page offsets: `(page, offset, value)`
    /// triples, checked against the authoritative copy of the coherence
    /// unit covering each offset. Empty for page-granularity scenarios.
    pub expected_at: Vec<(usize, usize, u64)>,
}

impl Scenario {
    /// Number of threads that execute at least one [`Op::Barrier`]; they all
    /// share one barrier, so this is the barrier's party count.
    pub fn barrier_parties(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.ops.iter().any(|op| matches!(op, Op::Barrier)))
            .count()
    }
}

/// Lock-protected increments from two nodes: race-free under every model;
/// every schedule must end with the word at 2 and zero findings.
pub fn locked_counter() -> Scenario {
    let incr = vec![Op::Acquire, Op::Add { page: 0, delta: 1 }, Op::Release];
    Scenario {
        name: "locked_counter",
        nodes: 2,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: incr.clone(),
            },
            ThreadSpec { node: 1, ops: incr },
        ],
        expected: vec![Some(2)],
        expected_at: vec![],
    }
}

/// An unsynchronized write/read pair across nodes: a data race under a
/// relaxed model, benign under sequential consistency. The final value is
/// schedule-dependent, so nothing is asserted about it.
pub fn unsynced_pair() -> Scenario {
    Scenario {
        name: "unsynced_pair",
        nodes: 2,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![Op::Write { page: 0, value: 7 }],
            },
            ThreadSpec {
                node: 1,
                ops: vec![Op::Read { page: 0 }],
            },
        ],
        expected: vec![None],
        expected_at: vec![],
    }
}

/// Seeding with no edge to its readers: a seeding thread writes two words
/// (a degree and a neighbour, say) while two workers, which meet at a
/// barrier the seeder takes no part in, read them. Nothing orders the writes
/// before the reads, so under a relaxed model the race detector must report
/// them. This is the race the map-colouring workload had while its seeding
/// thread was no party to the workers' first barrier — kept here as the
/// detector's true positive. The seeder is the only writer, so the final
/// memory is schedule-independent.
pub fn unsynced_seeding() -> Scenario {
    let read_both = vec![Op::Barrier, Op::Read { page: 0 }, Op::Read { page: 1 }];
    Scenario {
        name: "unsynced_seeding",
        nodes: 2,
        pages: 2,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![
                    Op::Write { page: 0, value: 2 },
                    Op::Write { page: 1, value: 1 },
                ],
            },
            ThreadSpec {
                node: 0,
                ops: read_both.clone(),
            },
            ThreadSpec {
                node: 1,
                ops: read_both,
            },
        ],
        expected: vec![Some(2), Some(1)],
        expected_at: vec![],
    }
}

/// Lock-protected increments where the second incrementer runs on the home
/// node and therefore reads the home frame directly: if a release returns
/// before its diffs reached the home (the `pre_revoke_diff_push` bug), a
/// delayed diff lets the home thread read stale data and the final count
/// drops to 1.
pub fn stale_release() -> Scenario {
    let incr = vec![Op::Acquire, Op::Add { page: 0, delta: 1 }, Op::Release];
    Scenario {
        name: "stale_release",
        nodes: 3,
        pages: 1,
        home: 2,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 1,
                ops: incr.clone(),
            },
            ThreadSpec { node: 2, ops: incr },
        ],
        expected: vec![Some(2)],
        expected_at: vec![],
    }
}

/// Three readers then an owner write: exercises copyset maintenance. With
/// `copyset_wipe` the second reader evicts the first from the copyset, the
/// write-time invalidation misses it, and the copyset-coverage invariant
/// fires at the write instant.
pub fn reader_flock() -> Scenario {
    Scenario {
        name: "reader_flock",
        nodes: 3,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![
                    Op::Write { page: 0, value: 7 },
                    Op::Barrier,
                    Op::Barrier,
                    Op::Write { page: 0, value: 9 },
                    Op::Barrier,
                ],
            },
            ThreadSpec {
                node: 1,
                ops: vec![Op::Barrier, Op::Read { page: 0 }, Op::Barrier, Op::Barrier],
            },
            ThreadSpec {
                node: 2,
                ops: vec![Op::Barrier, Op::Read { page: 0 }, Op::Barrier, Op::Barrier],
            },
        ],
        expected: vec![Some(9)],
        expected_at: vec![],
    }
}

/// Write, barrier, protocol switch, read: the value written before the
/// switch must survive it. With `doomed_frame_write` the remote writer's
/// frame is evicted before consolidation and the word silently resets.
pub fn switch_survivor(to_protocol: &'static str) -> Scenario {
    Scenario {
        name: "switch_survivor",
        nodes: 2,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![
                    Op::Barrier,
                    Op::Switch {
                        page: 0,
                        protocol: to_protocol,
                    },
                    Op::Barrier,
                    Op::Read { page: 0 },
                    Op::Barrier,
                ],
            },
            ThreadSpec {
                node: 1,
                ops: vec![
                    Op::Write { page: 0, value: 7 },
                    Op::Barrier,
                    Op::Barrier,
                    Op::Read { page: 0 },
                    Op::Barrier,
                ],
            },
        ],
        expected: vec![Some(7)],
        expected_at: vec![],
    }
}

/// Ownership succession with a forged stale `AcquireDone` injected after
/// two legitimate successions: the home's version gate must ignore the
/// stale notice (`hint_rewind` removes the gate and the owner-version
/// monotonicity oracle fires).
pub fn stale_done_injection() -> Scenario {
    Scenario {
        name: "stale_done_injection",
        nodes: 3,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 1,
                ops: vec![
                    Op::Write { page: 0, value: 1 },
                    Op::Barrier,
                    Op::Barrier,
                    Op::Barrier,
                ],
            },
            ThreadSpec {
                node: 2,
                ops: vec![
                    Op::Barrier,
                    Op::Write { page: 0, value: 2 },
                    Op::Barrier,
                    // Both successions are complete; replay node 1's old
                    // Done with its long-superseded version.
                    Op::InjectStaleDone {
                        page: 0,
                        owner: 1,
                        version: 1,
                    },
                    Op::Barrier,
                ],
            },
        ],
        expected: vec![Some(2)],
        expected_at: vec![],
    }
}

/// Thread migration chasing the data: exercises `migrate_thread`-style
/// protocols under exploration (the thread hops to the home, increments
/// in place, and hops back).
pub fn migratory_increment() -> Scenario {
    Scenario {
        name: "migratory_increment",
        nodes: 2,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![Op::Acquire, Op::Add { page: 0, delta: 1 }, Op::Release],
            },
            ThreadSpec {
                node: 1,
                ops: vec![
                    Op::Migrate { to: 0 },
                    Op::Acquire,
                    Op::Add { page: 0, delta: 1 },
                    Op::Release,
                    Op::Migrate { to: 1 },
                ],
            },
        ],
        expected: vec![Some(2)],
        expected_at: vec![],
    }
}

/// Two nodes hammer disjoint 1 KiB lines of one page with unsynchronized
/// read-modify-writes. At sub-page granularity each line has exactly one
/// writer, so per-line single-writer exclusivity must hold on every step
/// and both final line words are schedule-independent; under a protocol
/// that clamps to whole pages the page ping-pongs instead, but each word
/// still has a single writer and the final memory is identical.
pub fn line_exclusive_writers() -> Scenario {
    Scenario {
        name: "line_exclusive_writers",
        nodes: 2,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 1024,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![
                    Op::AddAt {
                        page: 0,
                        offset: 0,
                        delta: 1,
                    },
                    Op::AddAt {
                        page: 0,
                        offset: 0,
                        delta: 1,
                    },
                    Op::Barrier,
                ],
            },
            ThreadSpec {
                node: 1,
                ops: vec![
                    Op::AddAt {
                        page: 0,
                        offset: 1024,
                        delta: 1,
                    },
                    Op::AddAt {
                        page: 0,
                        offset: 1024,
                        delta: 1,
                    },
                    Op::Barrier,
                ],
            },
        ],
        expected: vec![None],
        expected_at: vec![(0, 0, 2), (0, 1024, 2)],
    }
}

/// Copyset coverage at line resolution: two remote readers cache line 0,
/// then its home writer updates it — at the write instant both readers
/// must be visible in that line's copyset or the invalidation round
/// misses one and it reads stale data forever. Line 1 is written once
/// before the readers arrive and read again at the end: at sub-page
/// granularity its copy is never invalidated by line 0's traffic.
pub fn line_copyset_coverage() -> Scenario {
    Scenario {
        name: "line_copyset_coverage",
        nodes: 3,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 1024,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![
                    Op::WriteAt {
                        page: 0,
                        offset: 0,
                        value: 7,
                    },
                    Op::WriteAt {
                        page: 0,
                        offset: 1024,
                        value: 40,
                    },
                    Op::Barrier,
                    Op::Barrier,
                    Op::WriteAt {
                        page: 0,
                        offset: 0,
                        value: 9,
                    },
                    Op::Barrier,
                ],
            },
            ThreadSpec {
                node: 1,
                ops: vec![
                    Op::Barrier,
                    Op::ReadAt { page: 0, offset: 0 },
                    Op::Barrier,
                    Op::Barrier,
                    Op::ReadAt { page: 0, offset: 0 },
                ],
            },
            ThreadSpec {
                node: 2,
                ops: vec![
                    Op::Barrier,
                    Op::ReadAt { page: 0, offset: 0 },
                    Op::ReadAt {
                        page: 0,
                        offset: 1024,
                    },
                    Op::Barrier,
                    Op::Barrier,
                    Op::ReadAt {
                        page: 0,
                        offset: 1024,
                    },
                ],
            },
        ],
        expected: vec![None],
        expected_at: vec![(0, 0, 9), (0, 1024, 40)],
    }
}

/// A remote read fault racing a write-ownership acquisition on the same
/// page: node 1's read requests reach the home's handler threads while
/// node 2's write request moves ownership. In every interleaving the reader
/// must land in the copyset of whichever node serves it, so that the
/// writer's invalidation reaches its copy — no copy may escape coherence.
/// Node 2 is the only post-barrier writer, so the final word is
/// schedule-independent even though the reader's observations race.
pub fn read_races_acquisition() -> Scenario {
    Scenario {
        name: "read_races_acquisition",
        nodes: 3,
        pages: 1,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads: vec![
            ThreadSpec {
                node: 0,
                ops: vec![Op::Write { page: 0, value: 3 }, Op::Barrier, Op::Barrier],
            },
            ThreadSpec {
                node: 1,
                ops: vec![
                    Op::Barrier,
                    Op::Read { page: 0 },
                    Op::Read { page: 0 },
                    Op::Barrier,
                    Op::Read { page: 0 },
                ],
            },
            ThreadSpec {
                node: 2,
                ops: vec![Op::Barrier, Op::Write { page: 0, value: 5 }, Op::Barrier],
            },
        ],
        expected: vec![Some(5)],
        expected_at: vec![],
    }
}

/// The smallest input known to deadlock `li_hudak_fixed`: three nodes, one
/// thread each, three pages homed on node 0, two rounds. In each round a
/// thread visits the pages in its own order; a visit reads the thread's own
/// 64-byte slot of the page (a read fault) and then writes `round + 1` to it
/// (an upgrade), and a barrier ends the round. Every slot is written last
/// with 2, whatever the schedule.
pub fn read_then_upgrade() -> Scenario {
    // Page orders per thread, round 1 then round 2.
    const ORDERS: [[[usize; 3]; 2]; 3] = [
        [[0, 1, 2], [2, 1, 0]],
        [[0, 2, 1], [0, 1, 2]],
        [[0, 1, 2], [0, 1, 2]],
    ];
    let threads = ORDERS
        .iter()
        .enumerate()
        .map(|(t, rounds)| {
            let offset = 64 * t;
            let mut ops = Vec::new();
            for (round, order) in (1u64..).zip(rounds) {
                for &page in order {
                    ops.push(Op::ReadAt { page, offset });
                    ops.push(Op::WriteAt {
                        page,
                        offset,
                        value: round,
                    });
                }
                ops.push(Op::Barrier);
            }
            ThreadSpec { node: t, ops }
        })
        .collect();
    Scenario {
        name: "read_then_upgrade",
        nodes: 3,
        pages: 3,
        home: 0,
        lock_manager: 0,
        granularity: 0,
        threads,
        expected: vec![None; 3],
        expected_at: (0..3)
            .flat_map(|page| (0..3).map(move |t| (page, 64 * t, 2)))
            .collect(),
    }
}
