//! Cross-crate integration tests: memory-model-level properties of the
//! built-in protocols on multi-node programs, exercised through the public
//! facade API exactly as an application would.

use std::sync::Arc;

use std::sync::Mutex;

use dsm_pm2::core::{DsmAttr, DsmRuntime, DsmScalar, DsmStatsSnapshot, HomePolicy, Unit};
use dsm_pm2::prelude::*;
use dsm_pm2::sim::BlockReason;

fn setup(nodes: usize) -> (Engine, DsmRuntime, BuiltinProtocols) {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(nodes));
    let protos = register_builtin_protocols(&rt);
    (engine, rt, protos)
}

/// Sequential consistency (li_hudak): a lock-free producer/consumer handshake
/// through two shared flags observes writes in order.
#[test]
fn sequential_consistency_message_passing_pattern() {
    let (mut engine, rt, protos) = setup(2);
    rt.set_default_protocol(protos.li_hudak);
    // Put data and flag on different pages to make the ordering non-trivial.
    let data = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let flag = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(1))));
    let observed = Arc::new(Mutex::new(None));

    rt.spawn_dsm_thread(NodeId(0), "producer", move |ctx| {
        ctx.write::<u64>(data, 123);
        ctx.write::<u64>(flag, 1);
    });
    let obs = observed.clone();
    rt.spawn_dsm_thread(NodeId(1), "consumer", move |ctx| {
        // Spin (in virtual time) until the flag is observed.
        let mut spins = 0;
        while ctx.read::<u64>(flag) == 0 {
            ctx.compute(SimDuration::from_micros(20));
            ctx.pm2.sim.yield_now();
            spins += 1;
            assert!(spins < 100_000, "flag never became visible");
        }
        *obs.lock().unwrap() = Some(ctx.read::<u64>(data));
    });
    engine.run().unwrap();
    assert_eq!(
        *observed.lock().unwrap(),
        Some(123),
        "write to data visible once flag is"
    );
}

/// All four page-based/migration protocols keep a lock-protected counter
/// exact across 3 nodes (the fundamental critical-section guarantee).
#[test]
fn counter_is_exact_under_every_protocol() {
    for proto_name in ["li_hudak", "migrate_thread", "erc_sw", "hbrc_mw"] {
        let (mut engine, rt, _) = setup(3);
        rt.set_default_protocol(rt.protocol_by_name(proto_name).unwrap());
        let counter = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(None);
        for node in 0..3usize {
            rt.spawn_dsm_thread(NodeId(node), format!("w{node}"), move |ctx| {
                for _ in 0..6 {
                    ctx.dsm_lock(lock);
                    let v = ctx.read::<u64>(counter);
                    ctx.write::<u64>(counter, v + 1);
                    ctx.dsm_unlock(lock);
                }
            });
        }
        engine.run().unwrap();
        // Verify by reading through a fresh thread (it must observe 18).
        let (mut engine2, rt2, protos2) = setup(1);
        let _ = (&mut engine2, &rt2, &protos2);
        let final_value = {
            let (mut e, rtv, p) = setup(3);
            let _ = p;
            let _ = &mut e;
            let _ = rtv;
            // Simpler: check the home/owner frame of the original runtime.
            let page = counter.page();
            let mut holder = rt.page_meta(page).home;
            for n in 0..3 {
                if rt.page_table(NodeId(n)).get(Unit::whole(page)).owned {
                    holder = NodeId(n);
                }
            }
            rt.frames(holder)
                .with_bytes(page, counter.offset(), 8, false, |b| u64::load_le(b))
        };
        assert_eq!(final_value, 18, "protocol {proto_name}");
    }
}

/// Release consistency: without synchronization a remote copy may legally be
/// stale, but after acquiring the lock that protected the write it must be
/// up to date (erc_sw and hbrc_mw).
#[test]
fn release_consistency_visibility_after_acquire() {
    for proto_name in ["erc_sw", "hbrc_mw"] {
        let (mut engine, rt, _) = setup(2);
        rt.set_default_protocol(rt.protocol_by_name(proto_name).unwrap());
        let shared = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock = rt.create_lock(Some(NodeId(0)));
        let sync = rt.create_barrier(2, None);
        let after_acquire = Arc::new(Mutex::new(0u64));

        rt.spawn_dsm_thread(NodeId(0), "writer", move |ctx| {
            ctx.dsm_barrier(sync); // let the reader cache the page first
            ctx.dsm_lock(lock);
            ctx.write::<u64>(shared.add(128), 55);
            ctx.dsm_unlock(lock);
            ctx.dsm_barrier(sync);
        });
        let aa = after_acquire.clone();
        rt.spawn_dsm_thread(NodeId(1), "reader", move |ctx| {
            let _ = ctx.read::<u64>(shared.add(128)); // cache a copy
            ctx.dsm_barrier(sync);
            ctx.dsm_barrier(sync);
            ctx.dsm_lock(lock);
            *aa.lock().unwrap() = ctx.read::<u64>(shared.add(128));
            ctx.dsm_unlock(lock);
        });
        engine.run().unwrap();
        assert_eq!(*after_acquire.lock().unwrap(), 55, "protocol {proto_name}");
    }
}

/// Barriers act as release+acquire for every protocol in use: data written
/// before a barrier is visible after it.
#[test]
fn barrier_flushes_for_release_consistency_protocols() {
    for proto_name in ["erc_sw", "hbrc_mw", "li_hudak"] {
        let (mut engine, rt, _) = setup(4);
        rt.set_default_protocol(rt.protocol_by_name(proto_name).unwrap());
        let table = rt.dsm_malloc(4 * 4096, DsmAttr::default().home(HomePolicy::RoundRobin));
        let barrier = rt.create_barrier(4, None);
        let sums = Arc::new(Mutex::new(Vec::new()));
        for node in 0..4usize {
            let sums = sums.clone();
            rt.spawn_dsm_thread(NodeId(node), format!("t{node}"), move |ctx| {
                // Each node writes its slot in its own page.
                ctx.write::<u64>(table.add(node as u64 * 4096), (node + 1) as u64);
                ctx.dsm_barrier(barrier);
                let mut sum = 0;
                for other in 0..4u64 {
                    sum += ctx.read::<u64>(table.add(other * 4096));
                }
                sums.lock().unwrap().push(sum);
            });
        }
        engine.run().unwrap();
        for &s in sums.lock().unwrap().iter() {
            assert_eq!(s, 10, "protocol {proto_name}");
        }
    }
}

/// Regression (PR 3): a copy refetched *while* the home's release-time
/// invalidation round is still waiting for other pages' acknowledgements
/// must stay in the copyset — the next release must invalidate it again.
/// (The release now removes the condemned targets from the copyset at send
/// time, before any blocking; a post-wait removal cannot tell a refetched
/// copy apart from the original membership and would leave the reader
/// permanently stale.)
#[test]
fn copy_refetched_during_release_wait_is_invalidated_by_next_release() {
    let (mut engine, rt, protos) = setup(3);
    rt.set_default_protocol(protos.hbrc_mw);
    // Two pages homed on node 0 so the release is a multi-page round.
    let p1 = rt.dsm_malloc(
        2 * 4096,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let p2 = p1.add(4096);
    let lock = rt.create_lock(Some(NodeId(0)));
    let start = rt.create_barrier(3, None);
    let observed = Arc::new(Mutex::new(0u64));

    rt.spawn_dsm_thread(NodeId(0), "home-writer", move |ctx| {
        ctx.write::<u64>(p1, 1);
        ctx.write::<u64>(p2, 1);
        ctx.dsm_barrier(start);
        for round in 2..6u64 {
            // Only the home takes the lock; the other nodes read and write
            // lock-free (multiple writers, disjoint offsets), so they keep
            // running while the unlock's release blocks on acknowledgements.
            ctx.dsm_lock(lock);
            ctx.write::<u64>(p1, round);
            ctx.write::<u64>(p2, round);
            ctx.dsm_unlock(lock);
            ctx.compute(SimDuration::from_micros(400));
            ctx.pm2.sim.yield_now();
        }
    });
    // Node 2 keeps a *dirty twin* on p1: its invalidate handler must push
    // the diff and wait for the diff acknowledgement before acking the
    // invalidation, so its ack for p1 arrives a full round-trip later than
    // node 1's — which keeps the home's release blocked on p1's round while
    // node 1's refetch of p2 arrives and must survive in p2's copyset.
    rt.spawn_dsm_thread(NodeId(2), "dirty-writer", move |ctx| {
        let _ = ctx.read::<u64>(p1.add(8));
        let _ = ctx.read::<u64>(p2);
        ctx.dsm_barrier(start);
        for i in 0..300u64 {
            ctx.write::<u64>(p1.add(8), i);
            ctx.compute(SimDuration::from_micros(7));
            ctx.pm2.sim.yield_now();
        }
    });
    let obs = observed.clone();
    rt.spawn_dsm_thread(NodeId(1), "reader", move |ctx| {
        let _ = ctx.read::<u64>(p1);
        let _ = ctx.read::<u64>(p2);
        ctx.dsm_barrier(start);
        // Lock-free spin-reads: every invalidation triggers an immediate
        // refetch, so re-grants land in the middle of the home's ack waits.
        // A dropped copyset entry shows up as a copy that is never
        // invalidated again, i.e. a reader spinning on a stale value forever.
        let mut spins = 0u64;
        loop {
            let v = ctx.read::<u64>(p2);
            if v >= 5 {
                *obs.lock().unwrap() = v;
                break;
            }
            ctx.compute(SimDuration::from_micros(2));
            ctx.pm2.sim.yield_now();
            spins += 1;
            assert!(
                spins < 100_000,
                "reader never observed the final value — a copy refetched during the \
                 release wait was dropped from the copyset and left permanently stale"
            );
        }
    });
    engine.run().unwrap();
    assert_eq!(*observed.lock().unwrap(), 5);
    // Every diff of this run is a revoke-time push of the dirty writer, and
    // waiting for the home to acknowledge it is an `Ack` wait like the six of
    // the home's own release rounds — the block profile must book it as one,
    // not as an anonymous wait-set park.
    let profile = engine.block_profile();
    let parks = |reason| profile.iter().find(|(r, _)| *r == reason).unwrap().1;
    let pushes = rt.stats().snapshot().diffs_sent;
    assert_eq!(
        (pushes, parks(BlockReason::WaitSet), parks(BlockReason::Ack)),
        (3, 0, 6 + pushes)
    );
}

/// Thread migration interoperates with DSM locks: a thread that migrated to
/// the data still synchronizes correctly with threads elsewhere.
#[test]
fn migrate_thread_composes_with_locks() {
    let (mut engine, rt, protos) = setup(3);
    rt.set_default_protocol(protos.migrate_thread);
    let cell = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(2))));
    let lock = rt.create_lock(Some(NodeId(0)));
    for node in 0..3usize {
        rt.spawn_dsm_thread(NodeId(node), format!("m{node}"), move |ctx| {
            for _ in 0..4 {
                ctx.dsm_lock(lock);
                let v = ctx.read::<u64>(cell);
                ctx.write::<u64>(cell, v + 1);
                ctx.dsm_unlock(lock);
            }
            // Everyone ends up on the data's node.
            assert_eq!(ctx.node(), NodeId(2));
        });
    }
    engine.run().unwrap();
    let value = rt
        .frames(NodeId(2))
        .with_bytes(cell.page(), cell.offset(), 8, false, |b| u64::load_le(b));
    assert_eq!(value, 12);
    assert_eq!(rt.stats().snapshot().page_transfers, 0);
}

/// The per-region protocol attribute really isolates protocols: statistics
/// show replication traffic for the li_hudak region and migrations for the
/// migrate_thread region.
#[test]
fn per_region_protocols_behave_independently() {
    let (mut engine, rt, protos) = setup(2);
    rt.set_default_protocol(protos.li_hudak);
    let replicated = rt.dsm_malloc(
        4096,
        DsmAttr::with_protocol(protos.li_hudak).home(HomePolicy::Fixed(NodeId(0))),
    );
    let migratory = rt.dsm_malloc(
        4096,
        DsmAttr::with_protocol(protos.migrate_thread).home(HomePolicy::Fixed(NodeId(0))),
    );
    rt.spawn_dsm_thread(NodeId(1), "mixed", move |ctx| {
        let _ = ctx.read::<u32>(replicated);
        assert_eq!(ctx.node(), NodeId(1), "li_hudak read must not migrate");
        let _ = ctx.read::<u32>(migratory);
        assert_eq!(ctx.node(), NodeId(0), "migrate_thread read must migrate");
    });
    engine.run().unwrap();
    let stats = rt.stats().snapshot();
    assert_eq!(stats.page_transfers, 1);
    assert_eq!(stats.thread_migrations, 1);
}

// ---------------------------------------------------------------------------
// Cross-protocol conformance matrix
// ---------------------------------------------------------------------------
//
// The safety net for the per-instant message batcher: three workloads with
// different sharing patterns run under every general-purpose protocol (the
// six of the paper's Table 2 minus none, plus the two extension protocols
// that need no per-region configuration) on 1, 2 and 4 nodes. The *exact*
// final shared memory of every run must equal the baseline — `li_hudak` on
// a single node, which sends no coherence message, so it cannot depend on
// batching (asserted: no batch left) — bit-for-bit, not within a tolerance,
// so any divergence introduced by the scale-out machinery fails loudly.
// (`entry_sw` is excluded: it requires regions to be bound to locks and is
// exercised by its own tests.)

use dsm_pm2::pm2::TransportTuning;
use dsm_pm2::workloads::{
    false_sharing::{run_false_sharing, FalseSharingConfig},
    jacobi::{run_jacobi, JacobiConfig},
    matmul::{run_matmul, MatmulConfig},
    sor::{run_sor, SorConfig},
};

/// The matrix's jacobi cell: a 16×16 grid, 2 iterations, on `cluster`.
fn jacobi(cluster: Pm2Config) -> JacobiConfig {
    JacobiConfig {
        size: 16,
        iterations: 2,
        compute_per_cell_us: 0.02,
        cluster,
    }
}

/// The matrix's sor cell: a 16×16 grid, 2 iterations, on `cluster`.
fn sor(cluster: Pm2Config) -> SorConfig {
    SorConfig {
        size: 16,
        iterations: 2,
        omega: 1.25,
        compute_per_cell_us: 0.02,
        cluster,
    }
}

/// The matrix's matmul cell: 8×8 matrices on `cluster`.
fn matmul(cluster: Pm2Config) -> MatmulConfig {
    MatmulConfig {
        n: 8,
        compute_per_madd_us: 0.01,
        cluster,
    }
}

/// `nodes` BIP/Myrinet nodes at coherence granularity `granularity`.
fn lines(nodes: usize, granularity: Option<usize>) -> Pm2Config {
    Pm2Config {
        granularity,
        ..Pm2Config::bip_myrinet(nodes)
    }
}

/// Every protocol that runs unmodified application code (8 of the 9 shipped).
const MATRIX_PROTOCOLS: [&str; 8] = [
    "li_hudak",
    "li_hudak_fixed",
    "migrate_thread",
    "erc_sw",
    "hbrc_mw",
    "hlrc_notices",
    "java_ic",
    "java_pf",
];

const MATRIX_NODES: [usize; 3] = [1, 2, 4];

#[test]
fn conformance_matrix_jacobi() {
    let config = |nodes: usize| jacobi(Pm2Config::bip_myrinet(nodes));
    let baseline = run_jacobi(&config(1), "li_hudak");
    assert!(
        baseline.final_cells.iter().any(|&c| c != 0),
        "baseline must produce a non-trivial grid"
    );
    assert_eq!(baseline.run.stats.coherence_batches, 0, "baseline batched");
    for proto in MATRIX_PROTOCOLS {
        for nodes in MATRIX_NODES {
            let r = run_jacobi(&config(nodes), proto);
            assert_eq!(
                r.final_cells, baseline.final_cells,
                "jacobi final memory diverged under {proto} x {nodes} nodes"
            );
        }
    }
}

#[test]
fn conformance_matrix_sor() {
    let config = |nodes: usize| sor(Pm2Config::bip_myrinet(nodes));
    let baseline = run_sor(&config(1), "li_hudak");
    assert!(baseline.final_cells.iter().any(|&c| c != 0));
    assert_eq!(baseline.run.stats.coherence_batches, 0, "baseline batched");
    for proto in MATRIX_PROTOCOLS {
        for nodes in MATRIX_NODES {
            let r = run_sor(&config(nodes), proto);
            assert_eq!(
                r.final_cells, baseline.final_cells,
                "sor final memory diverged under {proto} x {nodes} nodes"
            );
        }
    }
}

/// Conformance across the two hand-off substrates — continuations on the
/// scheduler's OS thread where the target has a stack switch, one OS thread
/// per simulated thread and a futex baton elsewhere. A build contains one of
/// them, so the matrix is a pin: jacobi under `hbrc_mw` on 4 nodes must
/// reproduce these literals — final shared memory, virtual completion time,
/// the engine's counts and every DSM counter — in the default lane *and* under `--cfg
/// dsm_force_no_coro`. How a simulated thread's slices reach a CPU must
/// never leak into what the simulation computes. (The sim crate pins its
/// thread storm the same way, `tests/baton_stress.rs`.)
#[test]
fn conformance_matrix_across_handoff_modes() {
    let r = run_jacobi(&jacobi(Pm2Config::bip_myrinet(4)), "hbrc_mw");
    // FNV-1a over the cells' bit patterns.
    let memory = r
        .final_cells
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
            (h ^ c).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(
        (
            memory,
            r.run.engine.final_time.as_nanos(),
            r.run.engine.events,
            r.run.engine.context_switches,
            r.run.engine.threads_spawned,
        ),
        // Events and switches were 430 and 271 while a thread that ended
        // owing a charge took one more slice to sleep it off: 76 of the 88 did.
        (9_601_329_538_796_336_933, 1_817_491, 354, 195, 88)
    );
    // Every DSM counter of the same run, read at the parent of the change
    // that made them plain integers bumped without an atomic
    // read-modify-write: a bump lost between two baton OS threads would
    // leave time and memory alone and show up only here.
    assert_eq!(
        r.run.stats,
        DsmStatsSnapshot {
            read_faults: 9,
            write_faults: 12,
            page_transfers: 21,
            page_bytes: 86_016,
            invalidations: 15,
            invalidation_acks: 3,
            diffs_sent: 12,
            diff_bytes: 1_774,
            twins_created: 12,
            lock_acquires: 0,
            lock_releases: 0,
            barriers: 12,
            thread_migrations: 0,
            local_accesses: 2_728,
            inline_checks: 0,
            request_forwards: 0,
            coherence_batches: 3,
            coherence_batched_messages: 6,
            one_sided_serves: 0,
            fetch_handler_wakes: 0,
        }
    );
}

#[test]
fn conformance_matrix_matmul() {
    let config = |nodes: usize| matmul(Pm2Config::bip_myrinet(nodes));
    let baseline = run_matmul(&config(1), "li_hudak");
    assert!(baseline.final_cells.iter().any(|&c| c != 0));
    assert_eq!(baseline.run.stats.coherence_batches, 0, "baseline batched");
    for proto in MATRIX_PROTOCOLS {
        for nodes in MATRIX_NODES {
            let r = run_matmul(&config(nodes), proto);
            assert_eq!(
                r.final_cells, baseline.final_cells,
                "matmul final memory diverged under {proto} x {nodes} nodes"
            );
        }
    }
}

/// The matrix under the `Contended` and `Lossy` transport backends: every
/// protocol × workload × node-count cell must converge to the *same final
/// shared memory* as the Ideal baseline — the wire may stall frames at NICs,
/// drop them and retransmit, but above the transport seam the protocols must
/// be unaffected. At the same time the wire statistics must show that the
/// backends really did something: the contended rows must accumulate NIC
/// stalls and the lossy rows must drop (and retransmit) frames somewhere in
/// the matrix. Single-node cells are skipped — with one node there is no
/// wire for the backends to act on.
#[test]
fn conformance_matrix_under_contended_and_lossy_transports() {
    let on =
        |nodes: usize, transport| Pm2Config::bip_myrinet(nodes).with_transport_tuning(transport);
    let jacobi_baseline = run_jacobi(&jacobi(on(1, TransportTuning::ideal())), "li_hudak");
    let sor_baseline = run_sor(&sor(on(1, TransportTuning::ideal())), "li_hudak");
    let matmul_baseline = run_matmul(&matmul(on(1, TransportTuning::ideal())), "li_hudak");

    let mut contended_stall_ns = 0u64;
    let mut lossy_drops = 0u64;
    let mut lossy_retransmits = 0u64;
    for transport in [TransportTuning::contended(), TransportTuning::lossy(0xDD5)] {
        let lossy = matches!(transport, TransportTuning::Lossy(_));
        for proto in MATRIX_PROTOCOLS {
            for nodes in [2usize, 4] {
                let r = run_jacobi(&jacobi(on(nodes, transport)), proto);
                assert_eq!(
                    r.final_cells,
                    jacobi_baseline.final_cells,
                    "jacobi memory diverged under {proto} x {nodes} nodes on the {} backend",
                    transport.name()
                );
                if lossy {
                    lossy_drops += r.run.wire.drops;
                    lossy_retransmits += r.run.wire.retransmits;
                } else {
                    contended_stall_ns += r.run.wire.contention_stall_ns();
                }

                let r = run_sor(&sor(on(nodes, transport)), proto);
                assert_eq!(
                    r.final_cells,
                    sor_baseline.final_cells,
                    "sor memory diverged under {proto} x {nodes} nodes on the {} backend",
                    transport.name()
                );
                if lossy {
                    lossy_drops += r.run.wire.drops;
                    lossy_retransmits += r.run.wire.retransmits;
                } else {
                    contended_stall_ns += r.run.wire.contention_stall_ns();
                }

                let r = run_matmul(&matmul(on(nodes, transport)), proto);
                assert_eq!(
                    r.final_cells,
                    matmul_baseline.final_cells,
                    "matmul memory diverged under {proto} x {nodes} nodes on the {} backend",
                    transport.name()
                );
                if lossy {
                    lossy_drops += r.run.wire.drops;
                    lossy_retransmits += r.run.wire.retransmits;
                } else {
                    contended_stall_ns += r.run.wire.contention_stall_ns();
                }
            }
        }
    }
    assert!(
        contended_stall_ns > 0,
        "the contended backend never stalled a frame across the whole matrix"
    );
    assert!(
        lossy_drops > 0 && lossy_retransmits > 0,
        "the lossy backend never dropped a frame across the whole matrix"
    );
}

// ---------------------------------------------------------------------------
// Line-granularity conformance matrix (PR 10)
// ---------------------------------------------------------------------------

/// The protocols that opt into sub-page coherence units.
const SUBPAGE_PROTOCOLS: [&str; 3] = ["li_hudak_fixed", "erc_sw", "hbrc_mw"];

/// Splitting pages into independently-owned lines must never change what the
/// programs compute: every supporting protocol × {jacobi, sor, false_sharing}
/// × {1, 2, 4} nodes cell runs at 256-byte (and for the false-sharing kernel
/// also 64-byte) line granularity and must produce final shared memory
/// bit-identical to the whole-page run of the same cell.
#[test]
fn conformance_matrix_line_granularity() {
    let fs = |cluster: Pm2Config| FalseSharingConfig {
        cluster,
        ..FalseSharingConfig::small(1)
    };
    for proto in SUBPAGE_PROTOCOLS {
        for nodes in MATRIX_NODES {
            let (page, line) = (lines(nodes, None), lines(nodes, Some(256)));
            let base_j = run_jacobi(&jacobi(page.clone()), proto);
            let base_s = run_sor(&sor(page.clone()), proto);
            let base_f = run_false_sharing(&fs(page), proto);
            let r = run_jacobi(&jacobi(line.clone()), proto);
            assert_eq!(
                r.final_cells, base_j.final_cells,
                "jacobi memory diverged at line granularity under {proto} x {nodes} nodes"
            );
            let r = run_sor(&sor(line.clone()), proto);
            assert_eq!(
                r.final_cells, base_s.final_cells,
                "sor memory diverged at line granularity under {proto} x {nodes} nodes"
            );
            let r = run_false_sharing(&fs(line), proto);
            assert_eq!(
                r.final_slots, base_f.final_slots,
                "false_sharing memory diverged at line granularity under {proto} x {nodes} nodes"
            );
            // The kernel built for the ablation also runs at its own stride.
            let r = run_false_sharing(&fs(lines(nodes, Some(64))), proto);
            assert_eq!(
                r.final_slots, base_f.final_slots,
                "false_sharing memory diverged at 64-byte lines under {proto} x {nodes} nodes"
            );
        }
    }
}

/// Protocols that do NOT opt into sub-page units must clamp a requested line
/// granularity back to whole pages transparently: the run is bit-identical —
/// final memory AND virtual time — to the default-granularity run.
#[test]
fn non_subpage_protocols_clamp_granularity_to_pages() {
    for proto in ["li_hudak", "migrate_thread", "hlrc_notices", "java_ic"] {
        for nodes in [2usize, 4] {
            let base = run_jacobi(&jacobi(lines(nodes, None)), proto);
            let clamped = run_jacobi(&jacobi(lines(nodes, Some(256))), proto);
            assert_eq!(
                clamped.final_cells, base.final_cells,
                "clamped jacobi memory diverged under {proto} x {nodes} nodes"
            );
            assert_eq!(
                clamped.run.elapsed, base.run.elapsed,
                "clamped jacobi virtual time diverged under {proto} x {nodes} nodes"
            );
        }
    }
}

/// An *explicit* whole-page granularity (4096) must be byte-for-byte the same
/// machine as the default (`None`): final memory AND virtual completion
/// time agree for every protocol in the matrix. This pins the tentpole's
/// compatibility claim — the line machinery at its default setting is not a
/// new code path, it IS the old one.
#[test]
fn explicit_page_granularity_is_bit_identical_to_default() {
    for proto in MATRIX_PROTOCOLS {
        for nodes in MATRIX_NODES {
            let base = run_jacobi(&jacobi(lines(nodes, None)), proto);
            let explicit = run_jacobi(&jacobi(lines(nodes, Some(4096))), proto);
            assert_eq!(
                explicit.final_cells, base.final_cells,
                "explicit page granularity changed jacobi memory under {proto} x {nodes} nodes"
            );
            assert_eq!(
                explicit.run.elapsed, base.run.elapsed,
                "explicit page granularity changed jacobi virtual time under {proto} x {nodes} nodes"
            );
        }
    }
}
