//! The typed-access hit path allocates nothing, the message path allocates
//! three times per request, and so does a request served in a handler thread
//! of its own — none of them a stack, on either hand-off. A lone coherence message allocates
//! no bucket and no list to drain it, and a wait cycle on a wait set nothing
//! at all. The data path allocates no page: twins, snapshots and frames are
//! recycled buffers, a received page becomes the frame as it is, and a diff
//! is two small buffers.
//!
//! A counting global allocator brackets 10 000 warm hits per scenario, taken
//! inside one DSM thread (hits never yield, so nothing else runs in between),
//! and 10 000 one-way requests or coherence messages with everything their
//! delivery runs.
//! The counter is process-wide, so nothing may allocate next to the measured
//! slice: everything lives in a single `#[test]`, and the allocator counts
//! only on the threads that run it (see [`counted_here`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy, Unit};
use dsm_pm2::hyperion::HyperionHeap;
use dsm_pm2::pm2::{
    EngineCtl, RpcClass, RpcPayload, RpcReply, RpcRequestCtx, RpcService, SimHandle,
};
use dsm_pm2::prelude::*;
use dsm_pm2::sim::WaitSet;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations no smaller than the smallest continuation stack.
static BIG_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations that could hold a page.
static PAGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted, decided at its first.
    static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether the calling thread runs the measured work: the test's own thread
/// and, on the baton lane, the engine's workers. libtest's main thread does
/// not: it allocates just after it starts the test's thread, whenever the
/// OS gets round to it, so under load those allocations landed in whichever
/// bracket was open (4 each time, in 19 of 60 runs next to a build).
fn counted_here() -> bool {
    COUNTED.with(|counted| {
        counted.get().unwrap_or_else(|| {
            // What looking the name up allocates, if anything, is not counted.
            counted.set(Some(false));
            let here = std::thread::current().name() != Some("main");
            counted.set(Some(here));
            here
        })
    })
}

fn count(size: usize) {
    if !counted_here() {
        return;
    }
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= PAGE_SIZE {
        PAGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    if size >= 64 * 1024 {
        BIG_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, whose contract is
// the one the caller upholds; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`; layout and size are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HITS: u64 = 10_000;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Two BIP/Myrinet nodes at coherence `granularity` (`None`: whole pages),
/// `protocol` the default.
fn cluster(protocol: &str, granularity: Option<usize>) -> (Engine, DsmRuntime, ProtocolId) {
    let engine = Engine::new();
    let config = Pm2Config {
        granularity,
        ..Pm2Config::bip_myrinet(2)
    };
    let rt = DsmRuntime::new(&engine, config);
    let _ = register_all_protocols(&rt);
    let id = rt.protocol_by_name(protocol).expect("a built-in protocol");
    rt.set_default_protocol(id);
    (engine, rt, id)
}

/// Allocations made by `HITS` scalar write+read pairs and as many byte-slice
/// pairs on a home-owned page of `protocol`, after one identical warm-up pass.
fn typed_hits(protocol: &str, granularity: usize) -> u64 {
    let (mut engine, rt, _) = cluster(protocol, Some(granularity));
    let attr = DsmAttr::default().home(HomePolicy::Fixed(NodeId(0)));
    let base = rt.dsm_malloc(PAGE_SIZE as u64, attr);
    assert_eq!(rt.page_meta(base.page()).line_size, granularity);
    assert!(
        !rt.page_table(NodeId(0))
            .get(Unit::whole(base.page()))
            .copyset
            .is_empty(),
        "the home sits in its own copyset: cloning the entry would allocate"
    );
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    let out = counted.clone();
    rt.spawn_dsm_thread(NodeId(0), "hitter", move |ctx| {
        let pass = |ctx: &mut DsmThreadCtx<'_, '_>| {
            let mut bytes = [0u8; 4];
            for i in 0..HITS {
                let addr = base.add((i % 512) * 8);
                ctx.write::<u64>(addr, i);
                assert_eq!(ctx.read::<u64>(addr), i);
                ctx.write_bytes(addr, &(i as u32).to_le_bytes());
                ctx.read_bytes(addr, &mut bytes);
                assert_eq!(u32::from_le_bytes(bytes), i as u32);
            }
        };
        pass(ctx);
        out.store(allocations_in(|| pass(ctx)), Ordering::SeqCst);
    });
    engine.run().expect("local hits cannot deadlock");
    counted.load(Ordering::SeqCst)
}

/// Allocations made by `HITS` `get` hits, then by `HITS` `put` hits, on an
/// object homed on the accessing node under `java_ic`.
fn object_hits() -> (u64, u64) {
    let (mut engine, rt, java_ic) = cluster("java_ic", None);
    let heap = HyperionHeap::new(&rt, java_ic);
    let object = heap.alloc_object_on(NodeId(0), 8);
    let counted = Arc::new((AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)));
    let out = counted.clone();
    rt.spawn_dsm_thread(NodeId(0), "object", move |ctx| {
        heap.put(ctx, object, 0, 1);
        assert_eq!(heap.get(ctx, object, 0), 1);
        let gets = allocations_in(|| {
            for i in 0..HITS {
                std::hint::black_box(heap.get(ctx, object, (i % 8) as usize));
            }
        });
        let puts = allocations_in(|| {
            for i in 0..HITS {
                heap.put(ctx, object, (i % 8) as usize, i);
            }
        });
        out.0.store(gets, Ordering::SeqCst);
        out.1.store(puts, Ordering::SeqCst);
    });
    engine.run().expect("local hits cannot deadlock");
    (
        counted.0.load(Ordering::SeqCst),
        counted.1.load(Ordering::SeqCst),
    )
}

const CYCLES: u64 = 200;

/// Page-sized allocations over `CYCLES` release cycles of a thread on node 1
/// — lock, dirty eight words of a page homed on node 0 (a write fault: twin,
/// upgrade in place), unlock (diff to the home, its acknowledgement) — after
/// as many warm-up cycles; then the allocations of one more
/// `take_twin_diff` of eight dirty words on that node.
fn twin_diff_cycles() -> (u64, u64) {
    let (mut engine, rt, _) = cluster("hbrc_mw", None);
    let base = rt.dsm_malloc(
        PAGE_SIZE as u64,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let lock = rt.create_lock(Some(NodeId(0)));
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    let out = counted.clone();
    rt.spawn_dsm_thread(NodeId(1), "releaser", move |ctx| {
        let pass = |ctx: &mut DsmThreadCtx<'_, '_>, round: u64| {
            for cycle in 0..CYCLES {
                ctx.dsm_lock(lock);
                for word in 0..8 {
                    ctx.write::<u64>(base.add(word * 128), (round * CYCLES + cycle) << 8 | word);
                }
                ctx.dsm_unlock(lock);
            }
        };
        pass(ctx, 1);
        let before = PAGE_ALLOCATIONS.load(Ordering::Relaxed);
        pass(ctx, 2);
        out.store(
            PAGE_ALLOCATIONS.load(Ordering::Relaxed) - before,
            Ordering::SeqCst,
        );
    });
    engine.run().expect("a lone releaser cannot deadlock");
    assert_eq!(rt.stats().snapshot().twins_created, 2 * CYCLES);
    assert_eq!(rt.stats().snapshot().diffs_sent, 2 * CYCLES);
    // The releaser's node still holds its (write-protected) copy.
    let (frames, unit) = (rt.frames(NodeId(1)), Unit::whole(base.page()));
    assert!(frames.make_twin(unit, (0, PAGE_SIZE)));
    for word in 0..8 {
        frames.with_bytes(base.page(), word * 128, 8, false, |b| b.fill(0xEE));
    }
    let mut diff = None;
    let in_diff = allocations_in(|| diff = Some(frames.take_twin_diff(unit, 0)));
    assert_eq!(diff.expect("just taken").modified_bytes(), 64);
    (counted.load(Ordering::SeqCst), in_diff)
}

/// Page-sized allocations over `CYCLES` ownership transfers of one page
/// between two nodes that write it in turn under `li_hudak_fixed` — each a
/// snapshot on the serving node and a whole-page install on the receiving
/// one — after as many warm-up transfers.
fn page_pingpong() -> u64 {
    let (mut engine, rt, _) = cluster("li_hudak_fixed", None);
    let base = rt.dsm_malloc(
        PAGE_SIZE as u64,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let barrier = rt.create_barrier(2, None);
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    for node in 0..2u64 {
        let out = counted.clone();
        rt.spawn_dsm_thread(NodeId(node as usize), "writer", move |ctx| {
            let mut before = 0;
            for round in 0..2 * CYCLES {
                if round == CYCLES {
                    before = PAGE_ALLOCATIONS.load(Ordering::Relaxed);
                }
                if round % 2 == node {
                    ctx.write::<u64>(base, round);
                }
                ctx.dsm_barrier(barrier);
            }
            if node == 0 {
                out.store(
                    PAGE_ALLOCATIONS.load(Ordering::Relaxed) - before,
                    Ordering::SeqCst,
                );
            }
        });
    }
    engine.run().expect("the writers meet at every barrier");
    assert!(rt.stats().snapshot().page_transfers >= 2 * CYCLES - 1);
    counted.load(Ordering::SeqCst)
}

/// Page-sized allocations over `CYCLES` read-replication rounds under
/// `li_hudak_fixed` — node 0 writes a page it owns, node 1 reads it (a
/// snapshot on node 0, which node 1 adopts as its frame) and node 0's next
/// write invalidates node 1's copy — after as many warm-up rounds.
fn read_replication() -> u64 {
    let (mut engine, rt, _) = cluster("li_hudak_fixed", None);
    let base = rt.dsm_malloc(
        PAGE_SIZE as u64,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let barrier = rt.create_barrier(2, None);
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    for node in 0..2 {
        let out = counted.clone();
        rt.spawn_dsm_thread(NodeId(node), "replicator", move |ctx| {
            let mut before = 0;
            for round in 0..2 * CYCLES {
                if round == CYCLES {
                    before = PAGE_ALLOCATIONS.load(Ordering::Relaxed);
                }
                if node == 0 {
                    ctx.write::<u64>(base, round);
                }
                ctx.dsm_barrier(barrier);
                if node == 1 {
                    assert_eq!(ctx.read::<u64>(base), round);
                }
                ctx.dsm_barrier(barrier);
            }
            if node == 0 {
                out.store(
                    PAGE_ALLOCATIONS.load(Ordering::Relaxed) - before,
                    Ordering::SeqCst,
                );
            }
        });
    }
    engine.run().expect("the replicas meet at every barrier");
    let stats = rt.stats().snapshot();
    assert!(stats.page_transfers >= 2 * CYCLES && stats.invalidations >= 2 * CYCLES - 1);
    counted.load(Ordering::SeqCst)
}

/// A one-way service that counts its requests: in the arrival event when
/// `threaded` is false (its requests cannot block), else in a handler thread
/// per request, which charges a microsecond and ends owing it.
struct Sink {
    served: AtomicU64,
    threaded: bool,
}

impl RpcService for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn handle(&self, ctx: &mut RpcRequestCtx<'_>, _payload: RpcPayload) -> Option<RpcReply> {
        assert!(self.threaded, "a non-blocking request reached a thread");
        ctx.sim.charge(SimDuration::from_micros(1));
        self.served.fetch_add(1, Ordering::Relaxed);
        None
    }
    fn is_nonblocking(&self, _payload: &RpcPayload) -> bool {
        !self.threaded
    }
    fn handle_nonblocking(&self, _ctl: &EngineCtl, _: NodeId, _: NodeId, _payload: RpcPayload) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations per request, and stack-sized allocations in total, over `HITS`
/// one-way requests from node 0 to a service on node 1, named by the id it
/// was registered under: everything between the send and the end of the
/// handler — envelope, transport, arrival event, dispatch, handler (and its
/// thread, if `threaded`) — after one identical warm-up pass. The sender
/// sleeps between requests so that each one is delivered and served inside
/// the bracket.
fn message_path(threaded: bool) -> (f64, u64) {
    let mut engine = Engine::new();
    let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
    let sink = Arc::new(Sink {
        served: AtomicU64::new(0),
        threaded,
    });
    let service = cluster.register_service(sink.clone());
    let counted = Arc::new((AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)));
    let out = counted.clone();
    engine.spawn_on(0, "sender", move |h| {
        let pass = |h: &mut SimHandle| {
            for i in 0..HITS {
                let payload = Box::new(i);
                cluster.rpc_oneway(h, NodeId(0), NodeId(1), service, payload, RpcClass::Control);
                h.sleep(SimDuration::from_micros(50));
            }
        };
        pass(h);
        let big = BIG_ALLOCATIONS.load(Ordering::Relaxed);
        out.0.store(allocations_in(|| pass(h)), Ordering::SeqCst);
        let big = BIG_ALLOCATIONS.load(Ordering::Relaxed) - big;
        out.1.store(big, Ordering::SeqCst);
    });
    engine.run().expect("one-way requests cannot deadlock");
    assert_eq!(sink.served.load(Ordering::Relaxed), 2 * HITS);
    (
        counted.0.load(Ordering::SeqCst) as f64 / HITS as f64,
        counted.1.load(Ordering::SeqCst),
    )
}

/// Allocations per message over `HITS` lone coherence messages — an
/// invalidation acknowledgement from node 0 to node 1, alone on its link at
/// its instant — from the send to the end of its serving: the bucket it is
/// parked in, the end-of-instant flush, the envelope, the arrival event and
/// the call that serves it. After one identical warm-up pass; the sender
/// sleeps between messages so that each is served inside the bracket.
fn lone_coherence_messages() -> f64 {
    let (mut engine, rt, _) = cluster("li_hudak_fixed", None);
    let base = rt.dsm_malloc(
        PAGE_SIZE as u64,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let unit = Unit::whole(base.page());
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    let out = counted.clone();
    rt.spawn_dsm_thread(NodeId(0), "acknowledger", move |ctx| {
        let rt = ctx.runtime().clone();
        let pass = |sim: &mut SimHandle| {
            for _ in 0..HITS {
                rt.send_invalidate_ack(sim, NodeId(0), NodeId(1), unit);
                sim.sleep(SimDuration::from_micros(50));
            }
        };
        pass(ctx.pm2.sim);
        out.store(allocations_in(|| pass(ctx.pm2.sim)), Ordering::SeqCst);
    });
    engine.run().expect("acknowledgements cannot deadlock");
    assert_eq!(
        rt.cluster().network().wire_stats().envelopes,
        2 * HITS,
        "every message left alone"
    );
    counted.load(Ordering::SeqCst) as f64 / HITS as f64
}

const WAITS: u64 = 1_000;

/// Allocations over `WAITS` wait cycles on one wait set — a thread registers
/// and parks, another raises the turn and `notify_all`s, which takes the
/// first out of the set and wakes it — after as many warm-up cycles. The bracket closes with the
/// waiter parked for one more cycle, before it can end (a finished thread's
/// worker joins the engine's idle list).
fn wait_cycles() -> u64 {
    let cycles = 2 * WAITS + 1;
    let mut engine = Engine::new();
    let (ws, turn) = (Arc::new(WaitSet::new()), Arc::new(AtomicU64::new(0)));
    let (waiters, turns) = (ws.clone(), turn.clone());
    engine.spawn("waiter", move |h| {
        for cycle in 1..=cycles {
            waiters.wait_until(h, || turns.load(Ordering::Relaxed) >= cycle);
        }
    });
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    let out = counted.clone();
    engine.spawn("notifier", move |h| {
        let mut before = 0;
        for cycle in 1..=cycles {
            if cycle == WAITS + 1 {
                before = ALLOCATIONS.load(Ordering::Relaxed);
            } else if cycle == cycles {
                let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
                out.store(made, Ordering::SeqCst);
            }
            h.sleep(SimDuration::from_micros(1));
            turn.store(cycle, Ordering::Relaxed);
            ws.notify_all((), h.ctl(), SimDuration::ZERO);
        }
    });
    let report = engine.run().expect("every waiter is notified");
    // Per cycle, one slice of each thread: the waiter parked every time.
    assert_eq!(report.context_switches, 2 * cycles + 2);
    counted.load(Ordering::SeqCst)
}

#[test]
fn access_hits_do_not_allocate() {
    // Counted wherever the test runs, on libtest's main thread included.
    COUNTED.with(|counted| counted.set(Some(true)));
    assert!(
        allocations_in(|| drop(std::hint::black_box(Box::new(0u64)))) >= 1,
        "the counter misses the test's own allocations"
    );
    for protocol in ["hbrc_mw", "li_hudak_fixed"] {
        for granularity in [PAGE_SIZE, 256] {
            assert_eq!(
                typed_hits(protocol, granularity),
                0,
                "{protocol} at {granularity} B lines allocated on the hit path"
            );
        }
    }
    let (gets, puts) = object_hits();
    assert_eq!(gets, 0, "HyperionHeap::get allocated on a hit");
    // `put` appends to the frame's `recorded` log, a Vec that doubles: 10 000
    // entries are at most 14 growths, and nothing else may allocate. The
    // puts run outside any monitor, so no release empties the log in
    // between; a monitor exit on a home page clears it and keeps its buffer.
    assert!(puts <= 14, "HyperionHeap::put allocated {puts} times");
    // The payload's box, the arrival event's closure and the handler call's
    // closure — no `String`, no thread. The parent commit of the change that
    // interned services measured 13.86 for the same loop against a
    // thread-per-request service named by a string.
    let (per_request, _) = message_path(false);
    assert!(
        per_request <= 3.0,
        "a one-way request to a non-blocking service allocated {per_request} times"
    );
    // Served in a thread of its own, three: the payload's box and the arrival
    // event's closure as above, then the thread's boxed body in place of the
    // handler call's closure. The thread runs on the worker the thread before
    // it left idle at its last grant: no slot, no stack, and on the baton
    // lane no OS thread. Before workers were recycled this row allowed 4 on
    // continuations (the thread's slot besides) and 12 on the baton (std's
    // spawn of an OS thread per request: five to seven more); before threads
    // were reaped at their last grant it measured 4.8892, 7 488 of its
    // 10 000 requests allocating a 1 MiB stack.
    let (per_request, stacks) = message_path(true);
    assert!(
        per_request <= 3.0,
        "a one-way request served in a thread allocated {per_request} times"
    );
    assert_eq!(stacks, 0, "a handler thread allocated a stack");
    // A twin is a buffer some earlier twin gave back; its diff is two
    // buffers — run headers and bytes — however many runs it has. The parent
    // of the change that recycles page buffers measured one page allocation
    // per cycle (the twin) and ten allocations in the diff (one per run and
    // two for the growing list of them).
    let (pages, in_diff) = twin_diff_cycles();
    assert_eq!(pages, 0, "a release cycle allocated a page-sized buffer");
    assert!(in_diff <= 2, "a diff of 8 runs allocated {in_diff} times");
    // The serving node's snapshot is the buffer its last install replaced,
    // and the receiving node adopts it as its frame: the same few buffers go
    // back and forth. The parent measured two page allocations per transfer.
    let pages = page_pingpong();
    assert_eq!(pages, 0, "a page transfer allocated a page-sized buffer");
    // Read copies flow one way: the owner snapshots each one it serves and
    // the reader drops it when the next write invalidates it. The pool is
    // the run's, so the reader's dropped copy is the owner's next snapshot.
    // With one pool per node the owner's never refilled: the parent
    // measured one page allocation per round.
    let pages = read_replication();
    assert_eq!(
        pages, 0,
        "a read-replication round allocated a page-sized buffer"
    );
    // A lone coherence message is parked inline and drained without a list:
    // the end-of-instant flush's closure, the payload's box, the arrival
    // event's closure and the serving call's closure. The parent of the
    // change that inlines a lone item measured 6.0 (a bucket `Vec` and the
    // drained list besides).
    let per_message = lone_coherence_messages();
    assert!(
        per_message <= 4.0,
        "a lone coherence message allocated {per_message} times"
    );
    // Woken waiters leave the set in place, so its buffer serves the next
    // round. The parent measured one allocation per cycle: `notify_all`
    // took the buffer with it and the next `register` grew a new one.
    let waits = wait_cycles();
    assert_eq!(waits, 0, "{WAITS} wait cycles allocated {waits} times");
}
