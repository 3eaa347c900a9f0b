//! The model's numbers: every virtual-time result the reproduction
//! publishes, one `name value unit` row each.
//!
//! The rows cover the paper's Tables 3 and 4 and its §2.1
//! micro-measurements, the transport backends against the calibrated model,
//! and the studies beyond the paper (ablations 1, 2, 4–6 and 8–10 and the
//! coherence-granularity sweep, numbered as in EXPERIMENTS.md). Every value
//! is an integer — virtual nanoseconds, a count or bytes — of a
//! deterministic simulation, so every row is exact on every host, in every
//! build and on both hand-offs. `crates/bench/model_rows.txt` is the
//! `model_rows` binary's output, and this module's test checks
//! [`model_rows`] against it row for row. A change that moves the model
//! regenerates the file, and its diff shows which rows moved:
//!
//! ```sh
//! cargo run --release -p dsmpm2-bench --bin model_rows > crates/bench/model_rows.txt
//! ```
//!
//! Each study asserts what makes its rows mean something before it reports
//! them: every kernel matches its sequential oracle, the batched workloads
//! coalesce something and end at the values they wrote, the transport
//! backends and the coherence granularities leave memory identical, and so
//! on (see each function).

use std::fmt;

use dsmpm2_core::{
    DsmAddr, DsmAttr, DsmCosts, DsmRuntime, HomePolicy, NodeId, Pm2Cluster, Pm2Config,
};
use dsmpm2_madeleine::{profiles, LossyConfig, NetworkModel, TransportTuning};
use dsmpm2_pm2::{service_fn, Engine, RpcClass, RpcReply};
use dsmpm2_protocols::register_builtin_protocols;
use dsmpm2_sim::SimDuration;
use dsmpm2_workloads::false_sharing::{run_false_sharing, FalseSharingConfig};
use dsmpm2_workloads::setup::{runtime, Latest};
use dsmpm2_workloads::tsp::{run_tsp, TspConfig};
use dsmpm2_workloads::{lu, matmul, measure_read_fault, radix, sor, FaultPolicy};

use crate::transport_probe::{probe_fan_in, probe_single_transfer};

/// One number of the model; `Display` renders it as `name value unit`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Dot-separated, unique among the rows, and free of spaces.
    name: String,
    value: u64,
    /// `ns` (virtual nanoseconds), `count` or `bytes`.
    unit: &'static str,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.value, self.unit)
    }
}

#[derive(Default)]
struct Rows(Vec<Row>);

impl Rows {
    fn push(&mut self, name: String, value: u64, unit: &'static str) {
        self.0.push(Row { name, value, unit });
    }
}

/// Every row, in the order of `model_rows.txt`. Runs every study (about
/// 40 ms optimised, half a second in a debug build) and panics if one of
/// their checks fails.
pub fn model_rows() -> Vec<Row> {
    let mut rows = Rows::default();
    read_fault_tables(&mut rows);
    pm2_micro(&mut rows);
    transport_calibration(&mut rows);
    overhead_sweep(&mut rows);
    tsp_scaling(&mut rows);
    manager_study(&mut rows);
    laziness_study(&mut rows);
    kernel_matrix(&mut rows);
    scatter_study(&mut rows);
    home_burst_study(&mut rows);
    transport_backends(&mut rows);
    granularity_sweep(&mut rows);
    rows.0
}

/// Tables 3 and 4: one remote read fault under the page-transfer and the
/// thread-migration policy, per network profile. `measure_read_fault`
/// reports whole virtual nanoseconds as microseconds; rounding takes them
/// back exactly.
fn read_fault_tables(rows: &mut Rows) {
    let ns = |us: f64| (us * 1_000.0).round() as u64;
    for net in profiles::all() {
        let b = measure_read_fault(net.clone(), FaultPolicy::PageTransfer);
        for (part, us) in [
            ("page_fault", b.page_fault_us),
            ("request", b.request_us),
            ("transfer", b.transfer_us),
            ("overhead", b.overhead_us),
            ("total", b.total_us),
        ] {
            rows.push(format!("table3.{}.{part}", net.name), ns(us), "ns");
        }
    }
    for net in profiles::all() {
        let b = measure_read_fault(net.clone(), FaultPolicy::ThreadMigration);
        for (part, us) in [
            ("page_fault", b.page_fault_us),
            ("migration", b.migration_us),
            ("overhead", b.overhead_us),
            ("total", b.total_us),
        ] {
            rows.push(format!("table4.{}.{part}", net.name), ns(us), "ns");
        }
    }
}

/// §2.1: minimal RPC and minimal-stack thread migration, per profile.
fn pm2_micro(rows: &mut Rows) {
    for net in profiles::all() {
        let rpc = rpc_latency(net.clone()).as_nanos();
        rows.push(format!("micro_pm2.{}.rpc", net.name), rpc, "ns");
        let migration = migration_latency(net.clone()).as_nanos();
        rows.push(format!("micro_pm2.{}.migration", net.name), migration, "ns");
    }
}

/// One minimal RPC between two nodes, reply included: an empty `null`
/// service handled without a thread of its own (§2.1's RPC latency).
pub fn rpc_latency(network: NetworkModel) -> SimDuration {
    let mut engine = Engine::new();
    let cluster = Pm2Cluster::new(&engine, Pm2Config::new(2, network));
    cluster.register_service(service_fn("null", false, |_ctx, _payload| {
        Some(RpcReply::minimal(()))
    }));
    let elapsed = Latest::default();
    let e = elapsed.clone();
    let c = cluster.clone();
    engine.spawn("rpc-caller", move |h| {
        let start = h.now();
        let _ = c.rpc_call(
            h,
            NodeId(0),
            NodeId(1),
            "null",
            Box::new(()),
            RpcClass::Minimal,
        );
        e.record(h.now().since(start));
    });
    engine.run().expect("micro-measurement must not deadlock");
    elapsed.get()
}

/// One migration of a thread with a minimal (~1 kB) stack between two
/// nodes (§2.1's migration latency).
pub fn migration_latency(network: NetworkModel) -> SimDuration {
    let mut engine = Engine::new();
    let cluster = Pm2Cluster::new(&engine, Pm2Config::new(2, network));
    let elapsed = Latest::default();
    let e = elapsed.clone();
    cluster.spawn_thread_on(NodeId(0), "migrator", move |ctx| {
        let start = ctx.now();
        ctx.migrate_to(NodeId(1));
        e.record(ctx.now().since(start));
    });
    engine.run().expect("micro-measurement must not deadlock");
    elapsed.get()
}

/// The transport backends against the calibrated model: a lone 4 kB page
/// transfer between idle nodes takes exactly `page_transfer_time(4096)` —
/// Table 3's transfer column — under `Ideal`, under `Contended` and under a
/// `Lossy` backend that loses nothing, because no queue is ever non-empty.
/// A 3-sender × 2-message fan-in under `Contended` is where they part.
fn transport_calibration(rows: &mut Rows) {
    let lossless = TransportTuning::Lossy(LossyConfig {
        drop_per_mille: 0,
        dup_per_mille: 0,
        ..LossyConfig::default()
    });
    for model in profiles::all() {
        let expected = model.page_transfer_time(4096);
        for (backend, tuning) in [
            ("ideal", TransportTuning::ideal()),
            ("contended", TransportTuning::contended()),
            ("lossless", lossless),
        ] {
            let probed = probe_single_transfer(&model, tuning);
            assert_eq!(
                probed, expected,
                "{}: an uncontended 4 kB transfer under {backend} must take the model's time",
                model.name
            );
            rows.push(
                format!("transport.{}.{backend}", model.name),
                probed.as_nanos(),
                "ns",
            );
        }
        let fan_in = probe_fan_in(&model, TransportTuning::contended(), 3, 2);
        rows.push(
            format!("transport.{}.fan_in_3x2_contended", model.name),
            fan_in.as_nanos(),
            "ns",
        );
    }
}

/// Ablation 1: Table 3's BIP/Myrinet read fault with the protocol overhead
/// swept, split evenly between the serving and the installing side.
fn overhead_sweep(rows: &mut Rows) {
    for overhead_us in [0u64, 13, 26, 52, 104] {
        let mut engine = Engine::new();
        let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
        let costs = DsmCosts {
            transfer_overhead: SimDuration::from_nanos(overhead_us * 500),
        };
        let rt = DsmRuntime::with_cluster_and_costs(cluster, costs);
        let protos = register_builtin_protocols(&rt);
        rt.set_default_protocol(protos.li_hudak);
        let addr = homed_on_node_0(&rt, 4096);
        let elapsed = Latest::default();
        let e = elapsed.clone();
        rt.spawn_dsm_thread(NodeId(1), "faulter", move |ctx| {
            let start = ctx.pm2.now();
            let _ = ctx.read::<u64>(addr);
            e.record(ctx.pm2.now().since(start));
        });
        engine.run().expect("overhead sweep must not deadlock");
        rows.push(
            format!("ablation1.overhead_{overhead_us}us.read_fault"),
            elapsed.get().as_nanos(),
            "ns",
        );
    }
}

/// Ablation 2: TSP (11 cities) on 1, 2 and 4 nodes, page replication vs
/// thread migration.
fn tsp_scaling(rows: &mut Rows) {
    for nodes in [1usize, 2, 4] {
        for proto in ["li_hudak", "migrate_thread"] {
            let mut config = TspConfig::paper(nodes);
            config.cities = 11;
            let elapsed = run_tsp(&config, proto).run.elapsed.as_nanos();
            rows.push(
                format!("ablation2.{proto}.nodes{nodes}.elapsed"),
                elapsed,
                "ns",
            );
        }
    }
}

fn homed_on_node_0(rt: &DsmRuntime, bytes: u64) -> DsmAddr {
    rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))))
}

/// Ablation 4: ownership of one hot page migrates around 4 nodes, then every
/// node reads it. The dynamic manager (`li_hudak`) follows hint chains; the
/// fixed one (`li_hudak_fixed`) bounces each request through the manager.
fn manager_study(rows: &mut Rows) {
    for proto in ["li_hudak", "li_hudak_fixed"] {
        let mut engine = Engine::new();
        let rt = runtime(&engine, &Pm2Config::bip_myrinet(4), proto);
        let addr = homed_on_node_0(&rt, 4096);
        let b = rt.create_barrier(4, None);
        let finish = Latest::default();
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
                finish.record(ctx.pm2.now().since(start));
            });
        }
        engine.run().expect("manager study must not deadlock");
        let stats = rt.stats().snapshot();
        rows.push(
            format!("ablation4.{proto}.faults"),
            stats.total_faults(),
            "count",
        );
        rows.push(
            format!("ablation4.{proto}.forwards"),
            stats.request_forwards,
            "count",
        );
        rows.push(
            format!("ablation4.{proto}.elapsed"),
            finish.get().as_nanos(),
            "ns",
        );
    }
}

/// Ablation 5: a producer updates a datum 32 times under a lock while a
/// bystander holds a read copy and never re-synchronises. The eager
/// protocol (`hbrc_mw`) invalidates the bystander at a release, the lazy one
/// (`hlrc_notices`) never does.
fn laziness_study(rows: &mut Rows) {
    for proto in ["hbrc_mw", "hlrc_notices"] {
        let mut engine = Engine::new();
        let rt = runtime(&engine, &Pm2Config::bip_myrinet(3), proto);
        let addr = homed_on_node_0(&rt, 4096);
        let lock = rt.create_lock(Some(NodeId(0)));
        let b = rt.create_barrier(3, None);
        let finish = Latest::default();
        let f = finish.clone();
        rt.spawn_dsm_thread(NodeId(2), "bystander", move |ctx| {
            let _ = ctx.read::<u64>(addr);
            ctx.dsm_barrier(b);
        });
        rt.spawn_dsm_thread(NodeId(1), "producer", move |ctx| {
            ctx.dsm_barrier(b);
            let start = ctx.pm2.now();
            for i in 0..32u64 {
                ctx.dsm_lock(lock);
                ctx.write::<u64>(addr, i + 1);
                ctx.dsm_unlock(lock);
            }
            f.record(ctx.pm2.now().since(start));
        });
        rt.spawn_dsm_thread(NodeId(0), "home", move |ctx| {
            ctx.dsm_barrier(b);
        });
        engine.run().expect("bystander study must not deadlock");
        let stats = rt.stats().snapshot();
        rows.push(
            format!("ablation5.{proto}.invalidations"),
            stats.invalidations,
            "count",
        );
        rows.push(
            format!("ablation5.{proto}.diffs"),
            stats.diffs_sent,
            "count",
        );
        rows.push(
            format!("ablation5.{proto}.elapsed"),
            finish.get().as_nanos(),
            "ns",
        );
    }
}

/// Ablation 6: four SPLASH-2-style kernels under five protocols on 4 nodes.
fn kernel_matrix(rows: &mut Rows) {
    for kernel in ["matmul", "sor", "lu", "radix"] {
        for proto in [
            "li_hudak",
            "li_hudak_fixed",
            "erc_sw",
            "hbrc_mw",
            "hlrc_notices",
        ] {
            let elapsed = run_kernel(kernel, proto);
            rows.push(format!("ablation6.{kernel}.{proto}.elapsed"), elapsed, "ns");
        }
    }
}

/// One 4-node kernel run's virtual nanoseconds, after checking its result
/// against the kernel's sequential oracle.
fn run_kernel(kernel: &str, proto: &str) -> u64 {
    let cluster = Pm2Config::bip_myrinet(4);
    let run = match kernel {
        "matmul" => {
            let config = matmul::MatmulConfig {
                n: 32,
                compute_per_madd_us: 0.01,
                cluster,
            };
            let r = matmul::run_matmul(&config, proto);
            assert!((r.checksum - matmul::sequential_checksum(config.n)).abs() < 1e-6);
            r.run
        }
        "sor" => {
            let config = sor_config(TransportTuning::default());
            let r = sor::run_sor(&config, proto);
            assert!((r.checksum - sor::sequential_checksum(&config)).abs() < 1e-6);
            r.run
        }
        "lu" => {
            let config = lu::LuConfig {
                n: 24,
                compute_per_update_us: 0.02,
                cluster,
            };
            let r = lu::run_lu(&config, proto);
            assert!((r.checksum - lu::sequential_checksum(config.n)).abs() < 1e-6);
            r.run
        }
        "radix" => {
            let config = radix::RadixConfig {
                keys: 256,
                max_key: 1 << 16,
                seed: 42,
                compute_per_key_us: 0.05,
                cluster,
            };
            let r = radix::run_radix(&config, proto);
            let mut oracle = radix::input_keys(&config);
            oracle.sort_unstable();
            assert_eq!(r.sorted, oracle);
            r.run
        }
        other => panic!("unknown kernel {other}"),
    };
    run.elapsed.as_nanos()
}

/// SOR on a 32×32 grid, 4 iterations, 4 BIP/Myrinet nodes.
fn sor_config(transport: TransportTuning) -> sor::SorConfig {
    sor::SorConfig {
        size: 32,
        iterations: 4,
        omega: 1.25,
        compute_per_cell_us: 0.05,
        cluster: Pm2Config::bip_myrinet(4).with_transport_tuning(transport),
    }
}

/// Ablation 8: a home-based scatter (`hbrc_mw`, 3 nodes, 8 pages homed on
/// node 0, 6 rounds). Each worker updates its slot of every page inside one
/// critical section, so a release flushes one diff per page, all to the
/// same home at the same instant. Checks that the home's copy of every slot
/// holds the last round's value.
fn scatter_study(rows: &mut Rows) {
    let (pages, rounds, nodes) = (8u64, 6usize, 3usize);
    let mut engine = Engine::new();
    let rt = runtime(&engine, &Pm2Config::bip_myrinet(nodes), "hbrc_mw");
    let base = homed_on_node_0(&rt, pages * 4096);
    let lock = rt.create_lock(Some(NodeId(0)));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Latest::default();
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
            finish.record(ctx.pm2.now().since(start));
        });
    }
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
    batching_rows(rows, "ablation8", &rt, &finish);
}

/// Ablation 9: `hbrc_mw`'s home-side release invalidation (3 nodes, 8 pages
/// homed on node 0, 6 rounds). The home updates every page it hosts inside
/// one critical section while the other two nodes re-read a copy of each,
/// so its release invalidates every reader's copy of every page in one
/// same-instant burst. Checks that the home's copy of every page holds the
/// last round's value.
fn home_burst_study(rows: &mut Rows) {
    let (pages, rounds, nodes) = (8u64, 6usize, 3usize);
    let mut engine = Engine::new();
    let rt = runtime(&engine, &Pm2Config::bip_myrinet(nodes), "hbrc_mw");
    let base = homed_on_node_0(&rt, pages * 4096);
    let lock = rt.create_lock(Some(NodeId(0)));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Latest::default();
    for node in 0..nodes {
        let finish = finish.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("burst{node}"), move |ctx| {
            let start = ctx.pm2.now();
            for round in 0..rounds {
                ctx.dsm_lock(lock);
                if node == 0 {
                    for page in 0..pages {
                        ctx.write::<u64>(base.add(page * 4096), (round * 10) as u64);
                    }
                } else {
                    let mut sum = 0u64;
                    for page in 0..pages {
                        sum = sum.wrapping_add(ctx.read::<u64>(base.add(page * 4096)));
                    }
                    std::hint::black_box(sum);
                }
                ctx.dsm_unlock(lock);
                ctx.dsm_barrier(barrier);
            }
            finish.record(ctx.pm2.now().since(start));
        });
    }
    engine.run().expect("home-burst study must not deadlock");
    for page in 0..pages {
        assert_eq!(
            home_u64(&rt, base.add(page * 4096)),
            ((rounds - 1) * 10) as u64,
            "home-burst page {page} does not hold the last round's value"
        );
    }
    batching_rows(rows, "ablation9", &rt, &finish);
}

/// What the per-instant coherence batcher did in a finished study, which
/// must have found something to coalesce.
fn batching_rows(rows: &mut Rows, study: &str, rt: &DsmRuntime, finish: &Latest<SimDuration>) {
    let stats = rt.stats().snapshot();
    assert!(
        stats.coherence_batched_messages > 0,
        "{study}: the batcher found nothing to coalesce"
    );
    let wire_messages = rt.cluster().network().stats().messages();
    rows.push(format!("{study}.wire_messages"), wire_messages, "count");
    rows.push(format!("{study}.batches"), stats.coherence_batches, "count");
    rows.push(
        format!("{study}.batched_messages"),
        stats.coherence_batched_messages,
        "count",
    );
    rows.push(format!("{study}.elapsed"), finish.get().as_nanos(), "ns");
}

/// The home's (node 0's) copy of the `u64` at `addr`.
fn home_u64(rt: &DsmRuntime, addr: DsmAddr) -> u64 {
    rt.frames(NodeId(0))
        .with_bytes(addr.page(), addr.offset(), 8, false, |b| {
            u64::from_le_bytes(b.try_into().expect("8 bytes"))
        })
}

/// Ablation 10: SOR (`hbrc_mw`, 4 nodes) under the three transport
/// backends. Checks that all three end with identical memory, that NIC
/// contention and retransmissions each cost virtual time, and that the
/// lossy run replays bit-identically from its seed.
fn transport_backends(rows: &mut Rows) {
    let sor_with = |transport| {
        let r = sor::run_sor(&sor_config(transport), "hbrc_mw");
        (r.final_cells, r.run)
    };
    let (ideal_cells, ideal) = sor_with(TransportTuning::ideal());
    let (contended_cells, contended) = sor_with(TransportTuning::contended());
    let (lossy_cells, lossy) = sor_with(TransportTuning::lossy(0xD5));
    let (replay_cells, lossy_replay) = sor_with(TransportTuning::lossy(0xD5));
    assert_eq!(
        contended_cells, ideal_cells,
        "the contended backend changed the final shared memory"
    );
    assert_eq!(
        lossy_cells, ideal_cells,
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
        (lossy.elapsed, lossy.wire, &lossy_cells),
        (lossy_replay.elapsed, lossy_replay.wire, &replay_cells),
        "the lossy backend must replay bit-identically from the same seed"
    );
    for (backend, r) in [
        ("ideal", &ideal),
        ("contended", &contended),
        ("lossy", &lossy),
    ] {
        let name = |field: &str| format!("ablation10.{backend}.{field}");
        rows.push(name("elapsed"), r.elapsed.as_nanos(), "ns");
        rows.push(name("wire_messages"), r.wire_messages, "count");
        rows.push(name("nic_stall"), r.wire.contention_stall_ns(), "ns");
        rows.push(name("drops"), r.wire.drops, "count");
        rows.push(name("retransmits"), r.wire.retransmits, "count");
        rows.push(name("duplicates"), r.wire.duplicates, "count");
    }
}

/// The coherence-granularity sweep on the false-sharing kernel (4 nodes,
/// 64-byte stride, 32 rounds): whole pages, 256-byte and 64-byte lines under
/// the three sub-page protocols. Checks that every granularity leaves the
/// final counters identical and that each line run moves at least 2× fewer
/// wire bytes than whole pages, in strictly less virtual time.
fn granularity_sweep(rows: &mut Rows) {
    for proto in ["li_hudak_fixed", "erc_sw", "hbrc_mw"] {
        let mut page_run = None;
        for (label, granularity) in [("page", None), ("256B", Some(256)), ("64B", Some(64))] {
            let mut config = FalseSharingConfig::small(4);
            config.iterations = 32;
            config.cluster.granularity = granularity;
            let r = run_false_sharing(&config, proto);
            let (bytes, elapsed) = (r.run.wire.envelope_bytes, r.run.elapsed.as_nanos());
            match &page_run {
                None => page_run = Some((r.final_slots.clone(), bytes, elapsed)),
                Some((slots, page_bytes, page_elapsed)) => {
                    assert_eq!(
                        &r.final_slots, slots,
                        "{proto}: {label} lines changed the final counters"
                    );
                    assert!(
                        bytes * 2 <= *page_bytes,
                        "{proto}: {label} lines moved {bytes} wire bytes vs {page_bytes} for \
                         whole pages (at least 2x fewer required)"
                    );
                    assert!(
                        elapsed < *page_elapsed,
                        "{proto}: {label} lines took {elapsed} ns vs {page_elapsed} ns for \
                         whole pages (strictly less required)"
                    );
                }
            }
            let name = |field: &str| format!("granularity.{proto}.{label}.{field}");
            rows.push(name("wire_messages"), r.run.wire_messages, "count");
            rows.push(name("wire_bytes"), bytes, "bytes");
            rows.push(name("envelopes"), r.run.wire.envelopes, "count");
            rows.push(name("elapsed"), elapsed, "ns");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn model_rows_match_the_committed_file() {
        let rows = model_rows();
        let mut names = HashSet::new();
        for row in &rows {
            assert!(
                !row.name.contains(' '),
                "row name '{}' has a space",
                row.name
            );
            assert!(names.insert(&row.name), "row name '{}' repeats", row.name);
        }
        let measured: String = rows.iter().map(|row| format!("{row}\n")).collect();
        let committed = include_str!("../model_rows.txt");
        if measured != committed {
            let moved: Vec<String> = committed
                .lines()
                .zip(measured.lines())
                .filter(|(c, m)| c != m)
                .map(|(c, m)| format!("  {c}  ->  {m}"))
                .collect();
            panic!(
                "the model moved: {} rows measured, {} committed; changed rows:\n{}\n\
                 regenerate with `cargo run --release -p dsmpm2-bench --bin model_rows > \
                 crates/bench/model_rows.txt` and explain the diff",
                rows.len(),
                committed.lines().count(),
                moved.join("\n")
            );
        }
    }
}
