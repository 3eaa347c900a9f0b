//! Ablation studies beyond the paper's tables: sensitivity of the headline
//! results to the design parameters DESIGN.md calls out.
//!
//! * protocol-overhead sensitivity — how Table 3's total changes when the
//!   26 µs software overhead is varied;
//! * threads-per-node sweep on the TSP workload (the paper uses one thread
//!   per node; more threads increase contention on the bound page);
//! * diff-density sweep for `hbrc_mw` (how much of a page is modified before
//!   release);
//! * fixed vs dynamic distributed manager (`li_hudak_fixed` vs `li_hudak`):
//!   request-forwarding behaviour on an ownership-migrating workload;
//! * lazy vs eager release consistency (`hlrc_notices` vs `hbrc_mw`):
//!   invalidation traffic seen by nodes that never re-synchronize;
//! * SPLASH-2-style kernel × protocol matrix (matmul, SOR, LU, radix);
//! * what the per-instant coherence batcher coalesces on two home-based
//!   workloads, whose final memory is asserted against the values they
//!   write (ablations 8 and 9);
//! * transport backends — Ideal vs Contended vs Lossy on the same workload
//!   must give identical memory with distinct wire/timing statistics, and
//!   the lossy run must replay bit-identically from its seed (ablation 10);
//! * coherence granularity (ablation 12).
//!
//! Usage: `ablations [--quick]`.

use dsmpm2_bench::{markdown_table, write_json};
use dsmpm2_core::{
    DsmAddr, DsmAttr, DsmCosts, DsmRuntime, HomePolicy, NodeId, Pm2Cluster, Pm2Config,
};
use dsmpm2_madeleine::{profiles, TransportTuning};
use dsmpm2_pm2::Engine;
use dsmpm2_protocols::{register_all_protocols, register_builtin_protocols};
use dsmpm2_sim::SimDuration;
use dsmpm2_workloads::tsp::{run_tsp, TspConfig};
use dsmpm2_workloads::{lu, matmul, radix, sor};
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct OverheadPoint {
    overhead_us: f64,
    fault_total_us: f64,
}

fn fault_total_with_overhead(overhead_us: f64) -> f64 {
    let engine = Engine::new();
    let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
    // The overhead splits evenly between the serving and the installing side.
    let half = SimDuration::from_micros_f64(overhead_us / 2.0);
    let costs = DsmCosts {
        install_overhead: half,
        serve_overhead: half,
        ..DsmCosts::default()
    };
    let rt = DsmRuntime::with_cluster_and_costs(cluster, costs);
    let protos = register_builtin_protocols(&rt);
    rt.set_default_protocol(protos.li_hudak);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let elapsed = Arc::new(Mutex::new(SimDuration::ZERO));
    let e = elapsed.clone();
    rt.spawn_dsm_thread(NodeId(1), "faulter", move |ctx| {
        let start = ctx.pm2.now();
        let _ = ctx.read::<u64>(addr);
        *e.lock() = ctx.pm2.now().since(start);
    });
    let mut engine = engine;
    engine.run().unwrap();
    let v = elapsed.lock().as_micros_f64();
    v
}

#[derive(Serialize)]
struct TspThreadsPoint {
    protocol: String,
    threads_total: usize,
    elapsed_ms: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // --- Ablation 1: protocol-overhead sensitivity -------------------------
    println!("Ablation 1: read-fault total vs protocol overhead (BIP/Myrinet)\n");
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for overhead in [0.0, 13.0, 26.0, 52.0, 104.0] {
        let total = fault_total_with_overhead(overhead);
        rows.push(vec![format!("{overhead:.0}"), format!("{total:.0}")]);
        points.push(OverheadPoint {
            overhead_us: overhead,
            fault_total_us: total,
        });
    }
    println!(
        "{}",
        markdown_table(&["Protocol overhead (us)", "Read-fault total (us)"], &rows)
    );
    write_json("ablation_overhead", &points);

    // --- Ablation 2: TSP node-count scaling per protocol --------------------
    println!("Ablation 2: TSP scaling with cluster size (smaller instance)\n");
    let cities = if quick { 9 } else { 11 };
    let mut rows = Vec::new();
    let mut tsp_points = Vec::new();
    for nodes in [1usize, 2, 4] {
        for proto in ["li_hudak", "migrate_thread"] {
            let mut config = TspConfig::paper(nodes);
            config.cities = cities;
            let r = run_tsp(&config, proto);
            rows.push(vec![
                proto.to_string(),
                nodes.to_string(),
                format!("{:.1}", r.elapsed.as_millis_f64()),
            ]);
            tsp_points.push(TspThreadsPoint {
                protocol: proto.to_string(),
                threads_total: nodes,
                elapsed_ms: r.elapsed.as_millis_f64(),
            });
        }
    }
    println!(
        "{}",
        markdown_table(&["Protocol", "Nodes", "Run time (ms, virtual)"], &rows)
    );
    write_json("ablation_tsp_scaling", &tsp_points);

    // --- Ablation 3: network profile sweep for the same fault --------------
    println!("Ablation 3: read-fault total across network profiles (default overhead)\n");
    let mut rows = Vec::new();
    for net in profiles::all() {
        let b = dsmpm2_workloads::measure_read_fault(
            net.clone(),
            dsmpm2_workloads::FaultPolicy::PageTransfer,
        );
        rows.push(vec![net.name.clone(), format!("{:.0}", b.total_us)]);
    }
    println!(
        "{}",
        markdown_table(&["Network", "Read-fault total (us)"], &rows)
    );

    // --- Ablation 4: fixed vs dynamic distributed manager ------------------
    println!(
        "\nAblation 4: fixed vs dynamic distributed manager (ownership migrates around 4 nodes)\n"
    );
    let mut rows = Vec::new();
    let mut manager_points = Vec::new();
    for proto in ["li_hudak", "li_hudak_fixed"] {
        let m = ownership_migration_study(proto);
        rows.push(vec![
            proto.to_string(),
            format!("{}", m.faults),
            format!("{}", m.forwards),
            format!("{:.2}", m.forwards as f64 / m.faults.max(1) as f64),
            format!("{:.1}", m.elapsed_ms),
        ]);
        manager_points.push(m);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Protocol",
                "Faults",
                "Request forwards",
                "Forwards/fault",
                "Run time (ms)"
            ],
            &rows
        )
    );
    write_json("ablation_manager", &manager_points);

    // --- Ablation 5: lazy vs eager release consistency ----------------------
    println!("\nAblation 5: lazy vs eager release consistency (bystander holds a stale copy)\n");
    let mut rows = Vec::new();
    let mut lazy_points = Vec::new();
    for proto in ["hbrc_mw", "hlrc_notices"] {
        let m = bystander_study(proto, if quick { 8 } else { 32 });
        rows.push(vec![
            proto.to_string(),
            format!("{}", m.invalidations),
            format!("{}", m.diffs),
            format!("{:.1}", m.elapsed_ms),
        ]);
        lazy_points.push(m);
    }
    println!(
        "{}",
        markdown_table(
            &["Protocol", "Invalidations", "Diffs", "Run time (ms)"],
            &rows
        )
    );
    write_json("ablation_laziness", &lazy_points);

    // --- Ablation 6: SPLASH-2-style kernel x protocol matrix ----------------
    println!("\nAblation 6: SPLASH-2-style kernels under five protocols (virtual ms)\n");
    let kernel_protocols = [
        "li_hudak",
        "li_hudak_fixed",
        "erc_sw",
        "hbrc_mw",
        "hlrc_notices",
    ];
    let nodes = if quick { 2 } else { 4 };
    let mut rows = Vec::new();
    let mut kernel_points = Vec::new();
    for kernel in ["matmul", "sor", "lu", "radix"] {
        let mut row = vec![kernel.to_string()];
        for proto in kernel_protocols {
            let elapsed_ms = run_kernel(kernel, proto, nodes, quick);
            row.push(format!("{elapsed_ms:.1}"));
            kernel_points.push(KernelPoint {
                kernel: kernel.to_string(),
                protocol: proto.to_string(),
                nodes,
                elapsed_ms,
            });
        }
        rows.push(row);
    }
    let mut header = vec!["Kernel"];
    header.extend(kernel_protocols);
    println!("{}", markdown_table(&header, &rows));
    write_json("ablation_kernels", &kernel_points);

    // --- Ablations 8 and 9: what the batcher coalesces ----------------------
    // (There is no ablation 7 or 11 since PR 25; the other numbers are kept
    // so that each table still matches its EXPERIMENTS.md section.)
    println!(
        "\nAblation 8: per-tick batching on a home-based scatter workload (hbrc_mw, 3 nodes)\n"
    );
    let scatter = diff_aggregation_study(quick);
    print_batching(&scatter);
    println!(
        "Every round's final values reach the home (asserted above); every release's diffs \
         to the shared home travel in one envelope: {} of the {} wire messages carry {} \
         coherence messages.",
        scatter.coherence_batches, scatter.wire_messages, scatter.coherence_batched_messages
    );
    write_json("ablation_batching", &[scatter]);

    println!(
        "\nAblation 9: home-side release invalidation burst (hbrc_mw, 3 nodes, home writes its \
         own pages)\n"
    );
    let burst = home_release_burst_study(quick);
    print_batching(&burst);
    println!(
        "hbrc_mw's home sends the whole release-time invalidation round as one same-tick \
         burst, so the batcher folds the per-target invalidations — and the targets' \
         acknowledgements — into single envelopes: {} batches of {} coherence messages in {} \
         wire messages, and the last round's values reach the home (asserted above).",
        burst.coherence_batches, burst.coherence_batched_messages, burst.wire_messages
    );
    write_json("ablation_home_burst", &[burst]);

    // --- Ablation 10: transport backends (Ideal vs Contended vs Lossy) ------
    println!(
        "\nAblation 10: transport backends on SOR (hbrc_mw, 4 nodes) — identical memory, \
         distinct wire behaviour\n"
    );
    let sor_with = |transport: TransportTuning| {
        let config = sor::SorConfig {
            size: if quick { 16 } else { 32 },
            iterations: 4,
            omega: 1.25,
            nodes: 4,
            network: profiles::bip_myrinet(),
            compute_per_cell_us: 0.05,
            tuning: Default::default(),
            transport,
        };
        sor::run_sor(&config, "hbrc_mw")
    };
    let lossy_tuning = TransportTuning::lossy(0xD5);
    let ideal = sor_with(TransportTuning::ideal());
    let contended = sor_with(TransportTuning::contended());
    let lossy = sor_with(lossy_tuning);
    let lossy_replay = sor_with(lossy_tuning);
    assert_eq!(
        contended.final_cells, ideal.final_cells,
        "the contended backend changed the final shared memory"
    );
    assert_eq!(
        lossy.final_cells, ideal.final_cells,
        "the lossy backend changed the final shared memory"
    );
    assert!(
        contended.wire.contention_stall_ns() > 0,
        "the contended backend never stalled a frame"
    );
    assert!(
        contended.elapsed > ideal.elapsed,
        "NIC contention must cost virtual time ({} vs {})",
        contended.elapsed,
        ideal.elapsed
    );
    assert!(
        lossy.wire.drops > 0 && lossy.wire.retransmits > 0,
        "the lossy backend never dropped a frame"
    );
    assert!(
        lossy.elapsed > ideal.elapsed,
        "retransmissions must cost virtual time ({} vs {})",
        lossy.elapsed,
        ideal.elapsed
    );
    assert_eq!(
        (lossy.elapsed, lossy.wire, &lossy.final_cells),
        (
            lossy_replay.elapsed,
            lossy_replay.wire,
            &lossy_replay.final_cells
        ),
        "the lossy backend must replay bit-identically from the same seed"
    );
    let mut transport_points = Vec::new();
    let rows: Vec<Vec<String>> = [
        ("ideal", &ideal),
        ("contended", &contended),
        ("lossy (seed 0xD5)", &lossy),
    ]
    .iter()
    .map(|(label, r)| {
        transport_points.push(TransportPoint {
            backend: label.to_string(),
            elapsed_ms: r.elapsed.as_micros_f64() / 1000.0,
            wire_messages: r.wire_messages,
            contention_stall_us: r.wire.contention_stall_ns() as f64 / 1000.0,
            drops: r.wire.drops,
            retransmits: r.wire.retransmits,
            duplicates: r.wire.duplicates,
        });
        vec![
            label.to_string(),
            format!("{:.1}", r.elapsed.as_micros_f64() / 1000.0),
            r.wire_messages.to_string(),
            format!("{:.1}", r.wire.contention_stall_ns() as f64 / 1000.0),
            r.wire.drops.to_string(),
            r.wire.retransmits.to_string(),
            r.wire.duplicates.to_string(),
        ]
    })
    .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "Backend",
                "Run time (ms)",
                "Wire messages",
                "NIC stall (us)",
                "Drops",
                "Retransmits",
                "Duplicates"
            ],
            &rows
        )
    );
    println!(
        "All three backends converge to bit-identical final memory (asserted above); the \
         contended run pays {:.1} us of NIC stalls and the lossy run retransmits {} dropped \
         frames, and the lossy run replays bit-identically from its seed (asserted above).",
        contended.wire.contention_stall_ns() as f64 / 1000.0,
        lossy.wire.drops
    );
    write_json("ablation_transport", &transport_points);

    // --- Ablation 12: coherence granularity on the false-sharing kernel -----
    println!(
        "\nAblation 12: coherence granularity on the false-sharing kernel (4 nodes, 64-byte \
         stride — every counter in its own line at 64-byte granularity)\n"
    );
    use dsmpm2_workloads::false_sharing::{run_false_sharing, FalseSharingConfig};
    let fs_nodes = 4;
    let mut rows = Vec::new();
    let mut granularity_points = Vec::new();
    for proto in ["li_hudak_fixed", "erc_sw", "hbrc_mw"] {
        let mut reference: Option<(Vec<u64>, u64, u64)> = None;
        for granularity in [0usize, 256, 64] {
            let mut config = FalseSharingConfig::small(fs_nodes);
            config.tuning = config.tuning.with_granularity(granularity);
            let r = run_false_sharing(&config, proto);
            let label = if granularity == 0 {
                "page".to_string()
            } else {
                format!("{granularity} B")
            };
            match &reference {
                None => {
                    reference = Some((
                        r.final_slots.clone(),
                        r.wire.envelope_bytes,
                        r.elapsed.as_nanos(),
                    ))
                }
                Some((slots, page_bytes, page_elapsed)) => {
                    assert_eq!(
                        &r.final_slots, slots,
                        "{proto}: granularity {granularity} changed the final counters"
                    );
                    assert!(
                        r.wire.envelope_bytes * 2 <= *page_bytes,
                        "{proto} at {granularity} B must move at least 2x fewer wire bytes \
                         than whole pages ({} vs {page_bytes})",
                        r.wire.envelope_bytes
                    );
                    assert!(
                        r.elapsed.as_nanos() < *page_elapsed,
                        "{proto} at {granularity} B must finish in strictly less virtual time \
                         ({} vs {page_elapsed} ns)",
                        r.elapsed.as_nanos()
                    );
                }
            }
            rows.push(vec![
                proto.to_string(),
                label.clone(),
                r.wire_messages.to_string(),
                r.wire.envelope_bytes.to_string(),
                format!("{:.1}", r.elapsed.as_micros_f64() / 1000.0),
            ]);
            granularity_points.push(GranularityPoint {
                protocol: proto.to_string(),
                granularity,
                wire_messages: r.wire_messages,
                envelope_bytes: r.wire.envelope_bytes,
                elapsed_ms: r.elapsed.as_micros_f64() / 1000.0,
            });
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Protocol",
                "Granularity",
                "Wire messages",
                "Wire bytes",
                "Run time (ms)"
            ],
            &rows
        )
    );
    println!(
        "Same final counters at every granularity (asserted above); line granularity ends the \
         page ping-pong — disjoint 64-byte counters stop sharing a coherence unit, so each \
         sub-page run moves at least 2x fewer wire bytes and strictly less virtual time \
         (asserted above)."
    );
    write_json("ablation_granularity", &granularity_points);
}

#[derive(Serialize)]
struct GranularityPoint {
    protocol: String,
    granularity: usize,
    wire_messages: u64,
    envelope_bytes: u64,
    elapsed_ms: f64,
}

#[derive(Serialize)]
struct TransportPoint {
    backend: String,
    elapsed_ms: f64,
    wire_messages: u64,
    contention_stall_us: f64,
    drops: u64,
    retransmits: u64,
    duplicates: u64,
}

/// Workload exercising `hbrc_mw`'s *home-side* release invalidation: the
/// home node itself updates every page it hosts inside one critical section
/// while two other nodes hold read copies. At release, the home must
/// invalidate the copysets of all its modified pages — the path that used to
/// serialize page by page (send, wait for acks, next page) and now sends all
/// rounds as one burst before collecting the acknowledgements. Asserts that
/// the home's copy of every page holds the last round's value.
fn home_release_burst_study(quick: bool) -> BatchingPoint {
    let pages: u64 = if quick { 4 } else { 8 };
    let rounds = if quick { 3 } else { 6 };
    let nodes = 3usize;
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(nodes));
    let _ = register_all_protocols(&rt);
    rt.set_default_protocol(rt.protocol_by_name("hbrc_mw").unwrap());
    let base = rt.dsm_malloc(
        pages * 4096,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let lock = rt.create_lock(Some(NodeId(0)));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Arc::new(Mutex::new(SimDuration::ZERO));
    for node in 0..nodes {
        let finish = finish.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("burst{node}"), move |ctx| {
            let start = ctx.pm2.now();
            for round in 0..rounds {
                if node == 0 {
                    // The home updates a slot in every one of its pages
                    // inside one critical section; the release invalidates
                    // every reader's copy of every page.
                    ctx.dsm_lock(lock);
                    for page in 0..pages {
                        ctx.write::<u64>(base.add(page * 4096), (round * 10) as u64);
                    }
                    ctx.dsm_unlock(lock);
                } else {
                    // The readers re-cache a copy of every page each round.
                    ctx.dsm_lock(lock);
                    let mut sum = 0u64;
                    for page in 0..pages {
                        sum = sum.wrapping_add(ctx.read::<u64>(base.add(page * 4096)));
                    }
                    std::hint::black_box(sum);
                    ctx.dsm_unlock(lock);
                }
                ctx.dsm_barrier(barrier);
            }
            let mut f = finish.lock();
            let elapsed = ctx.pm2.now().since(start);
            if elapsed > *f {
                *f = elapsed;
            }
        });
    }
    let mut engine = engine;
    engine.run().expect("home-burst study must not deadlock");
    for page in 0..pages {
        assert_eq!(
            home_u64(&rt, base.add(page * 4096)),
            ((rounds - 1) * 10) as u64,
            "home-burst page {page} does not hold the last round's value"
        );
    }
    batching_point(&rt, &finish)
}

#[derive(Serialize)]
struct BatchingPoint {
    wire_messages: u64,
    coherence_batches: u64,
    coherence_batched_messages: u64,
    elapsed_ms: f64,
}

/// The measurements of a finished batching study, which must have found
/// something to coalesce.
fn batching_point(rt: &DsmRuntime, finish: &Mutex<SimDuration>) -> BatchingPoint {
    let stats = rt.stats().snapshot();
    assert!(
        stats.coherence_batched_messages > 0,
        "the batcher found nothing to coalesce"
    );
    BatchingPoint {
        wire_messages: rt.cluster().network().stats().messages(),
        coherence_batches: stats.coherence_batches,
        coherence_batched_messages: stats.coherence_batched_messages,
        elapsed_ms: finish.lock().as_micros_f64() / 1000.0,
    }
}

fn print_batching(m: &BatchingPoint) {
    let row = vec![
        "batched".to_string(),
        m.wire_messages.to_string(),
        m.coherence_batches.to_string(),
        m.coherence_batched_messages.to_string(),
        format!("{:.1}", m.elapsed_ms),
    ];
    println!(
        "{}",
        markdown_table(
            &[
                "Configuration",
                "Wire messages",
                "Batches",
                "Batched msgs",
                "Run time (ms)"
            ],
            &[row]
        )
    );
}

/// The home's (node 0's) copy of the `u64` at `addr`.
fn home_u64(rt: &DsmRuntime, addr: DsmAddr) -> u64 {
    rt.frames(NodeId(0))
        .with_bytes(addr.page(), addr.offset(), 8, false, |b| {
            u64::from_le_bytes(b.try_into().expect("8 bytes"))
        })
}

/// A home-based scatter workload where batching has real work to do: every
/// page is homed on node 0 (the "server" placement of home-based protocols),
/// and each worker updates a strided slot in every page inside one critical
/// section — so each release flushes one diff per page, all addressed to the
/// same home within one virtual-time tick. Asserts that the home's copy of
/// every slot holds the last round's value.
fn diff_aggregation_study(quick: bool) -> BatchingPoint {
    let pages: u64 = if quick { 4 } else { 8 };
    let rounds = if quick { 3 } else { 6 };
    let nodes = 3usize;
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(nodes));
    let _ = register_all_protocols(&rt);
    rt.set_default_protocol(rt.protocol_by_name("hbrc_mw").unwrap());
    let base = rt.dsm_malloc(
        pages * 4096,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let lock = rt.create_lock(Some(NodeId(0)));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Arc::new(Mutex::new(SimDuration::ZERO));
    for node in 0..nodes {
        let finish = finish.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("scatter{node}"), move |ctx| {
            let start = ctx.pm2.now();
            for round in 0..rounds {
                ctx.dsm_lock(lock);
                for page in 0..pages {
                    let addr = base.add(page * 4096 + node as u64 * 8);
                    ctx.write::<u64>(addr, (round * 100 + node) as u64);
                }
                ctx.dsm_unlock(lock);
            }
            ctx.dsm_barrier(barrier);
            let mut f = finish.lock();
            let elapsed = ctx.pm2.now().since(start);
            if elapsed > *f {
                *f = elapsed;
            }
        });
    }
    let mut engine = engine;
    engine.run().expect("scatter study must not deadlock");
    for page in 0..pages {
        for node in 0..nodes {
            assert_eq!(
                home_u64(&rt, base.add(page * 4096 + node as u64 * 8)),
                ((rounds - 1) * 100 + node) as u64,
                "scatter page {page}, node {node}'s slot does not hold the last round's value"
            );
        }
    }
    batching_point(&rt, &finish)
}

#[derive(Serialize)]
struct ManagerPoint {
    protocol: String,
    faults: u64,
    forwards: u64,
    elapsed_ms: f64,
}

/// Ownership of a single hot page migrates around the cluster, then every
/// node reads it: the request-routing behaviour of the two distributed
/// managers differs (hint chains vs a one-hop bounce through the manager).
fn ownership_migration_study(proto_name: &str) -> ManagerPoint {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(4));
    let _ = register_all_protocols(&rt);
    rt.set_default_protocol(rt.protocol_by_name(proto_name).unwrap());
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let b = rt.create_barrier(4, None);
    let finish = Arc::new(Mutex::new(SimDuration::ZERO));
    for node in 0..4usize {
        let finish = finish.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("w{node}"), move |ctx| {
            let start = ctx.pm2.now();
            for round in 0..8usize {
                if round % 4 == node {
                    ctx.write::<u64>(addr, (round * 10 + node) as u64);
                }
                ctx.dsm_barrier(b);
            }
            let _ = ctx.read::<u64>(addr);
            let mut f = finish.lock();
            let elapsed = ctx.pm2.now().since(start);
            if elapsed > *f {
                *f = elapsed;
            }
        });
    }
    let mut engine = engine;
    engine.run().expect("manager study must not deadlock");
    let stats = rt.stats().snapshot();
    let elapsed_ms = finish.lock().as_micros_f64() / 1000.0;
    ManagerPoint {
        protocol: proto_name.to_string(),
        faults: stats.total_faults(),
        forwards: stats.request_forwards,
        elapsed_ms,
    }
}

#[derive(Serialize)]
struct LazinessPoint {
    protocol: String,
    invalidations: u64,
    diffs: u64,
    elapsed_ms: f64,
}

/// A producer repeatedly updates a shared datum under a lock while a
/// bystander node holds a read copy and never re-synchronizes: the eager
/// protocol invalidates the bystander on every release, the lazy one never
/// does.
fn bystander_study(proto_name: &str, updates: usize) -> LazinessPoint {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(3));
    let _ = register_all_protocols(&rt);
    rt.set_default_protocol(rt.protocol_by_name(proto_name).unwrap());
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let lock = rt.create_lock(Some(NodeId(0)));
    let b = rt.create_barrier(3, None);
    let finish = Arc::new(Mutex::new(SimDuration::ZERO));
    let f = finish.clone();
    rt.spawn_dsm_thread(NodeId(2), "bystander", move |ctx| {
        let _ = ctx.read::<u64>(addr);
        ctx.dsm_barrier(b);
    });
    rt.spawn_dsm_thread(NodeId(1), "producer", move |ctx| {
        ctx.dsm_barrier(b);
        let start = ctx.pm2.now();
        for i in 0..updates {
            ctx.dsm_lock(lock);
            ctx.write::<u64>(addr, i as u64 + 1);
            ctx.dsm_unlock(lock);
        }
        *f.lock() = ctx.pm2.now().since(start);
    });
    rt.spawn_dsm_thread(NodeId(0), "home", move |ctx| {
        ctx.dsm_barrier(b);
    });
    let mut engine = engine;
    engine.run().expect("bystander study must not deadlock");
    let stats = rt.stats().snapshot();
    let elapsed_ms = finish.lock().as_micros_f64() / 1000.0;
    LazinessPoint {
        protocol: proto_name.to_string(),
        invalidations: stats.invalidations,
        diffs: stats.diffs_sent,
        elapsed_ms,
    }
}

#[derive(Serialize)]
struct KernelPoint {
    kernel: String,
    protocol: String,
    nodes: usize,
    elapsed_ms: f64,
}

/// One SPLASH-2-style kernel run; every run is validated against its
/// sequential oracle before the timing is reported.
fn run_kernel(kernel: &str, proto: &str, nodes: usize, quick: bool) -> f64 {
    match kernel {
        "matmul" => {
            let config = matmul::MatmulConfig {
                n: if quick { 16 } else { 32 },
                nodes,
                network: profiles::bip_myrinet(),
                compute_per_madd_us: 0.01,
                tuning: Default::default(),
                transport: Default::default(),
            };
            let r = matmul::run_matmul(&config, proto);
            assert!((r.checksum - matmul::sequential_checksum(config.n)).abs() < 1e-6);
            r.elapsed.as_micros_f64() / 1000.0
        }
        "sor" => {
            let config = sor::SorConfig {
                size: if quick { 16 } else { 32 },
                iterations: 4,
                omega: 1.25,
                nodes,
                network: profiles::bip_myrinet(),
                compute_per_cell_us: 0.05,
                tuning: Default::default(),
                transport: Default::default(),
            };
            let r = sor::run_sor(&config, proto);
            assert!((r.checksum - sor::sequential_checksum(&config)).abs() < 1e-6);
            r.elapsed.as_micros_f64() / 1000.0
        }
        "lu" => {
            let config = lu::LuConfig {
                n: if quick { 12 } else { 24 },
                nodes,
                network: profiles::bip_myrinet(),
                compute_per_update_us: 0.02,
            };
            let r = lu::run_lu(&config, proto);
            assert!((r.checksum - lu::sequential_checksum(config.n)).abs() < 1e-6);
            r.elapsed.as_micros_f64() / 1000.0
        }
        "radix" => {
            let config = radix::RadixConfig {
                keys: if quick { 128 } else { 256 },
                max_key: 1 << 16,
                seed: 42,
                nodes,
                network: profiles::bip_myrinet(),
                compute_per_key_us: 0.05,
            };
            let r = radix::run_radix(&config, proto);
            let mut oracle = radix::input_keys(&config);
            oracle.sort_unstable();
            assert_eq!(r.sorted, oracle);
            r.elapsed.as_micros_f64() / 1000.0
        }
        other => panic!("unknown kernel {other}"),
    }
}
