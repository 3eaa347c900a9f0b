//! Layer probes: micro-measurements that isolate one layer each, through the
//! layer's public functions, in host nanoseconds per operation.
//!
//! They serve two purposes. Reported by name, they say which layer got slower
//! or faster. Multiplied by a workload's counts, they attribute the workload's
//! `run` time to layers (`attrib.*`): for that, each probe's cost is made
//! *exclusive* by subtracting what the layers below it cost for the events,
//! switches, envelopes and messages the probe itself caused.
//!
//! Two probes read the virtual clock instead: they reproduce the repo's own
//! Table 3 / Table 4 BIP/Myrinet totals and state the error against the paper.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsm_pm2::core::PageDiff;
use dsm_pm2::hyperion::HyperionHeap;
use dsm_pm2::madeleine::{Network, Topology, TransportTuning};
use dsm_pm2::pm2::{service_fn, RpcClass, RpcReply};
use dsm_pm2::prelude::*;
use dsm_pm2::sim::channel;
use dsm_pm2::workloads::{measure_read_fault, FaultPolicy};

use crate::host::{metric, Metric};
use crate::workloads::{dsm_cluster, Counts};

/// The paper's totals for one remote read fault on BIP/Myrinet, in µs.
const PAPER_READ_FAULT_US: f64 = 198.0;
const PAPER_MIGRATION_FAULT_US: f64 = 87.0;

/// Cost of one probed operation and what it made the lower layers do.
#[derive(Clone, Copy, Debug, Default)]
struct PerOp {
    ns: f64,
    events: f64,
    switches: f64,
    spawned: f64,
    envelopes: f64,
    /// pm2 RPC messages (zero for probes below pm2).
    messages: f64,
}

/// Run `engine` to completion and express its cost per operation.
fn timed(engine: Engine, ops: u64, wire: impl FnOnce() -> (u64, u64)) -> PerOp {
    let mut engine = engine;
    let started = Instant::now();
    let report = engine.run().expect("a probe must run to completion");
    let ns = started.elapsed().as_nanos() as f64;
    let (envelopes, messages) = wire();
    let per = |n: u64| n as f64 / ops as f64;
    PerOp {
        ns: ns / ops as f64,
        events: per(report.events),
        switches: per(report.context_switches),
        spawned: per(report.threads_spawned),
        envelopes: per(envelopes),
        messages: per(messages),
    }
}

/// The run with the median time out of three.
fn median3(probe: impl Fn() -> PerOp) -> PerOp {
    let mut runs = [probe(), probe(), probe()];
    runs.sort_by(|a, b| a.ns.total_cmp(&b.ns));
    runs[1]
}

fn dsm_wire(rt: &DsmRuntime) -> (u64, u64) {
    let wire = rt.cluster().network().wire_stats();
    (wire.envelopes, wire.messages)
}

// ----- sim -------------------------------------------------------------------

/// `call_at` closures: the engine pops and dispatches each one.
fn sim_event() -> PerOp {
    const N: u64 = 200_000;
    let engine = Engine::new();
    let ctl = engine.ctl();
    let hits = Arc::new(AtomicU64::new(0));
    for i in 0..N {
        let hits = hits.clone();
        ctl.call_at(SimTime::from_nanos(i + 1), move |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    let cost = timed(engine, N, || (0, 0));
    assert_eq!(hits.load(Ordering::Relaxed), N);
    cost
}

/// Two threads yielding to each other.
fn sim_yield() -> PerOp {
    const N: u64 = 100_000;
    let engine = Engine::new();
    for t in 0..2 {
        engine.spawn(format!("yield-{t}"), |h| {
            for _ in 0..N {
                h.yield_now();
            }
        });
    }
    timed(engine, 2 * N, || (0, 0))
}

/// Short-lived threads, created and run to their end one after the other:
/// the handler-per-message pattern.
fn sim_spawn() -> PerOp {
    const N: u64 = 50_000;
    let engine = Engine::new();
    engine.spawn("parent", |h| {
        for i in 0..N {
            h.spawn("child", move |_| {
                black_box(i);
            });
            h.yield_now();
        }
    });
    timed(engine, N, || (0, 0))
}

/// One value through a virtual-time channel: send, block, receive.
fn sim_channel() -> PerOp {
    const N: u64 = 100_000;
    let engine = Engine::new();
    let (tx, rx) = channel::<u64>(engine.ctl());
    engine.spawn("consumer", move |h| {
        for _ in 0..N {
            black_box(rx.recv(h));
        }
    });
    engine.spawn("producer", move |h| {
        for i in 0..N {
            tx.send_delayed(h, i, SimDuration::from_nanos(10));
            h.sleep(SimDuration::from_nanos(10));
        }
    });
    timed(engine, N, || (0, 0))
}

// ----- madeleine -------------------------------------------------------------

/// A control message there and back between two nodes, per message.
fn madeleine_send_recv(tuning: TransportTuning) -> PerOp {
    const N: u64 = 30_000;
    let engine = Engine::new();
    let net: Network<u64> = Network::with_transport(
        engine.ctl(),
        profiles::bip_myrinet(),
        Topology::flat(2),
        tuning,
    );
    for (me, peer) in [(0usize, 1usize), (1, 0)] {
        let (net, rx) = (net.clone(), net.endpoint(NodeId(me)));
        engine.spawn(format!("peer-{me}"), move |h| {
            for i in 0..N {
                if me == 0 {
                    net.send_control(h, NodeId(me), NodeId(peer), i);
                }
                black_box(rx.recv(h));
                if me == 1 {
                    net.send_control(h, NodeId(me), NodeId(peer), i);
                }
            }
        });
    }
    let stats = net.clone();
    timed(engine, 2 * N, move || (stats.wire_stats().envelopes, 0))
}

// ----- pm2 -------------------------------------------------------------------

/// A null RPC: request, dispatch, handler, reply.
fn pm2_null_rpc() -> PerOp {
    const N: u64 = 20_000;
    let engine = Engine::new();
    let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
    cluster.register_service(service_fn("null", true, |_ctx, _payload| {
        Some(RpcReply::minimal(()))
    }));
    let caller = cluster.clone();
    engine.spawn("caller", move |h| {
        for _ in 0..N {
            let _ = caller.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "null",
                Box::new(()),
                RpcClass::Minimal,
            );
        }
    });
    timed(engine, N, move || {
        let wire = cluster.network().wire_stats();
        (wire.envelopes, wire.messages)
    })
}

/// A thread migrating back and forth between two nodes.
fn pm2_migrate() -> PerOp {
    const N: u64 = 20_000;
    let engine = Engine::new();
    let cluster = Pm2Cluster::new(&engine, Pm2Config::bip_myrinet(2));
    cluster.spawn_thread_on(NodeId(0), "migrator", |ctx| {
        for i in 0..N {
            ctx.migrate_to(NodeId((1 + i as usize) % 2));
        }
    });
    timed(engine, N, move || {
        let wire = cluster.network().wire_stats();
        (wire.envelopes, wire.messages)
    })
}

// ----- core ------------------------------------------------------------------

/// Typed reads and writes that hit: one node, rights already held.
fn core_access_hit() -> PerOp {
    const N: u64 = 250_000;
    let (engine, rt, _) = dsm_cluster(1, "hbrc_mw");
    let base = rt.dsm_malloc(PAGE_SIZE as u64, DsmAttr::default());
    rt.spawn_dsm_thread(NodeId(0), "hit", move |ctx| {
        let mut sum = 0u64;
        for i in 0..N {
            let addr = base.add((i % 512) * 8);
            ctx.write::<u64>(addr, i);
            sum = sum.wrapping_add(ctx.read::<u64>(addr));
        }
        black_box(sum);
    });
    timed(engine, 2 * N, || (0, 0))
}

/// Remote read faults with no synchronisation in between: node 1 reads one
/// word of each of many pages homed on node 0.
fn core_read_fault() -> PerOp {
    const PAGES: u64 = 2_000;
    let (engine, rt, _) = dsm_cluster(2, "li_hudak_fixed");
    let attr = DsmAttr::default().home(HomePolicy::Fixed(NodeId(0)));
    let base = rt.dsm_malloc(PAGES * PAGE_SIZE as u64, attr);
    rt.spawn_dsm_thread(NodeId(1), "reader", move |ctx| {
        for p in 0..PAGES {
            black_box(ctx.read::<u64>(base.add(p * PAGE_SIZE as u64)));
        }
    });
    let wire = rt.clone();
    let cost = timed(engine, PAGES, move || dsm_wire(&wire));
    assert_eq!(rt.stats().snapshot().read_faults, PAGES);
    cost
}

/// Write faults of one protocol: node 1 takes every page from its home, a
/// barrier, node 0 takes them back. The release work the barrier triggers
/// (diffs, invalidations) is part of what a write costs under that protocol.
fn protocol_write_fault(protocol: &str) -> PerOp {
    const PAGES: u64 = 1_000;
    let (engine, rt, _) = dsm_cluster(2, protocol);
    let attr = DsmAttr::default().home(HomePolicy::Fixed(NodeId(0)));
    let base = rt.dsm_malloc(PAGES * PAGE_SIZE as u64, attr);
    let barrier = rt.create_barrier(2, None);
    for node in 0..2usize {
        rt.spawn_dsm_thread(NodeId(node), format!("writer-{node}"), move |ctx| {
            for phase in [1, 0] {
                if phase == node {
                    for p in 0..PAGES {
                        ctx.write::<u64>(base.add(p * PAGE_SIZE as u64), p);
                    }
                }
                ctx.dsm_barrier(barrier);
            }
        });
    }
    let wire = rt.clone();
    let cost = timed(engine, 2 * PAGES, move || dsm_wire(&wire));
    assert!(rt.stats().snapshot().write_faults >= PAGES);
    cost
}

/// A barrier episode of four nodes with nothing to release.
fn core_barrier() -> PerOp {
    const N: u64 = 5_000;
    let (engine, rt, _) = dsm_cluster(4, "li_hudak_fixed");
    let barrier = rt.create_barrier(4, None);
    for node in 0..4 {
        rt.spawn_dsm_thread(NodeId(node), format!("party-{node}"), move |ctx| {
            for _ in 0..N {
                ctx.dsm_barrier(barrier);
            }
        });
    }
    let wire = rt.clone();
    // Per participant, like the `core.barriers` count.
    timed(engine, 4 * N, move || dsm_wire(&wire))
}

/// An uncontended lock acquire + release from a node that is not its manager.
fn core_lock() -> PerOp {
    const N: u64 = 10_000;
    let (engine, rt, _) = dsm_cluster(2, "li_hudak_fixed");
    let lock = rt.create_lock(Some(NodeId(0)));
    rt.spawn_dsm_thread(NodeId(1), "locker", move |ctx| {
        for _ in 0..N {
            ctx.dsm_lock(lock);
            ctx.dsm_unlock(lock);
        }
    });
    let wire = rt.clone();
    timed(engine, N, move || dsm_wire(&wire))
}

/// Diff of a 4 kB page with one word in eight dirty: (compute, apply) in ns.
fn core_diff() -> (f64, f64) {
    const N: u32 = 20_000;
    let twin = vec![0u8; PAGE_SIZE];
    let mut current = twin.clone();
    for word in (0..PAGE_SIZE / 8).step_by(8) {
        current[word * 8..word * 8 + 8].copy_from_slice(&(word as u64 + 1).to_le_bytes());
    }
    let mut times = [(0.0, 0.0); 3];
    for slot in &mut times {
        let started = Instant::now();
        for _ in 0..N {
            black_box(PageDiff::compute(
                PageId(0),
                black_box(&twin),
                black_box(&current),
            ));
        }
        let compute = started.elapsed().as_nanos() as f64 / N as f64;
        let diff = PageDiff::compute(PageId(0), &twin, &current);
        let mut target = twin.clone();
        let started = Instant::now();
        for _ in 0..N {
            black_box(&diff).apply(black_box(&mut target));
        }
        *slot = (compute, started.elapsed().as_nanos() as f64 / N as f64);
    }
    times.sort_by(|a, b| a.0.total_cmp(&b.0));
    times[1]
}

// ----- hyperion --------------------------------------------------------------

/// `get` (or `put`) on a local object: inline check plus the access.
fn hyperion_hit(put: bool) -> PerOp {
    const N: u64 = 250_000;
    let (engine, rt, protocol) = dsm_cluster(1, "java_ic");
    let heap = HyperionHeap::new(&rt, protocol);
    let object = heap.alloc_object_on(NodeId(0), 8);
    rt.spawn_dsm_thread(NodeId(0), "object", move |ctx| {
        let mut sum = 0u64;
        for i in 0..N {
            let field = (i % 8) as usize;
            if put {
                heap.put(ctx, object, field, i);
            } else {
                sum = sum.wrapping_add(heap.get(ctx, object, field));
            }
        }
        black_box(sum);
    });
    timed(engine, N, || (0, 0))
}

// ----- accuracy (virtual clock) ----------------------------------------------

/// Virtual µs from a faulting read to its successful retry on two BIP/Myrinet
/// nodes: the measurement behind Table 3 (`li_hudak`) and Table 4
/// (`migrate_thread`), made through the facade.
fn read_fault_virtual_us(protocol: &str) -> f64 {
    let (engine, rt, _) = dsm_cluster(2, protocol);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let elapsed = Arc::new(Mutex::new(SimDuration::ZERO));
    let seen = elapsed.clone();
    rt.spawn_dsm_thread(NodeId(1), "faulting-thread", move |ctx| {
        let start = ctx.pm2.now();
        black_box(ctx.read::<u64>(addr));
        *seen.lock().expect("probe poisoned") = ctx.pm2.now().since(start);
    });
    let mut engine = engine;
    engine.run().expect("the fault probe must not deadlock");
    let us = elapsed.lock().expect("probe poisoned").as_micros_f64();
    us
}

// ----- the probe set ---------------------------------------------------------

/// Exclusive host cost of one unit of each layer's work, in ns.
#[derive(Clone, Debug, Default)]
pub struct Units {
    event: f64,
    switch: f64,
    spawn: f64,
    envelope: f64,
    message: f64,
    access: f64,
    read_fault: f64,
    write_fault: Vec<(&'static str, f64)>,
    barrier: f64,
    lock: f64,
    check: f64,
}

impl Units {
    fn sim(&self, p: &PerOp) -> f64 {
        p.events * self.event + p.switches * self.switch + p.spawned * self.spawn
    }

    /// What the layers below core cost for one operation of `p`.
    fn below_core(&self, p: &PerOp) -> f64 {
        self.sim(p) + p.envelopes * self.envelope + p.messages * self.message
    }

    /// Attribute a workload's `run` time to the layers: each layer's counts
    /// times its unit cost, as a share of `run_ns`; last, what is left.
    pub fn attribute(
        &self,
        protocol: &str,
        counts: &Counts,
        run_ns: f64,
    ) -> Vec<(&'static str, f64)> {
        let d = &counts.dsm;
        let n = |v: u64| v as f64;
        let write_fault = self
            .write_fault
            .iter()
            .find(|(name, _)| *name == protocol)
            .map_or(0.0, |(_, ns)| *ns);
        let shares = [
            (
                "attrib.sim_share",
                n(counts.events) * self.event
                    + n(counts.context_switches) * self.switch
                    + n(counts.threads_spawned) * self.spawn,
            ),
            (
                "attrib.madeleine_share",
                n(counts.envelopes) * self.envelope,
            ),
            ("attrib.pm2_share", n(counts.messages) * self.message),
            (
                // Every get and put is one check and one access: those
                // accesses are hyperion's, the rest are core's. Diffs are
                // not counted here: the write-fault probes already contain
                // the release work.
                "attrib.core_share",
                n(d.local_accesses.saturating_sub(d.inline_checks)) * self.access
                    + n(d.read_faults) * self.read_fault
                    + n(d.barriers) * self.barrier
                    + n(d.lock_acquires) * self.lock,
            ),
            ("attrib.protocols_share", n(d.write_faults) * write_fault),
            ("attrib.hyperion_share", n(d.inline_checks) * self.check),
        ];
        let mut out: Vec<_> = shares
            .iter()
            .map(|(name, ns)| (*name, ns / run_ns))
            .collect();
        let explained: f64 = out.iter().map(|(_, share)| share).sum();
        out.push(("attrib.unexplained_share", 1.0 - explained));
        out
    }
}

const WRITE_FAULT_PROTOCOLS: [&str; 3] = ["li_hudak_fixed", "erc_sw", "hbrc_mw"];

/// Run every probe. Returns the named results, the unit costs for
/// attribution, and whether the accuracy probes reproduced the repo's own
/// `table3` / `table4` totals exactly.
pub fn run_all() -> (Vec<Metric>, Units, bool) {
    let mut probes = Vec::new();
    let mut add =
        |name: &str, value: f64, unit: &'static str| probes.push(metric(name, value, unit));
    let mut units = Units::default();
    let positive = |ns: f64| ns.max(0.0);

    let event = median3(sim_event);
    units.event = event.ns / event.events.max(1.0);
    add("sim.event_ns", event.ns, "ns");
    let yielded = median3(sim_yield);
    units.switch = positive(yielded.ns - yielded.events * units.event) / yielded.switches.max(1.0);
    add("sim.yield_ns", yielded.ns, "ns");
    let spawn = median3(sim_spawn);
    units.spawn = positive(spawn.ns - units.sim(&spawn)) / spawn.spawned.max(1.0);
    add("sim.spawn_ns", spawn.ns, "ns");
    add("sim.channel_ns", median3(sim_channel).ns, "ns");

    let backends = [
        ("ideal", TransportTuning::ideal()),
        ("contended", TransportTuning::contended()),
        ("lossy", TransportTuning::lossy(42)),
    ];
    for (name, tuning) in backends {
        let cost = median3(|| madeleine_send_recv(tuning));
        if name == "ideal" {
            // The workloads run on the default (ideal) backend.
            units.envelope = positive(cost.ns - units.sim(&cost)) / cost.envelopes.max(1.0);
        }
        add(&format!("madeleine.send_recv_ns.{name}"), cost.ns, "ns");
    }

    let rpc = median3(pm2_null_rpc);
    units.message =
        positive(rpc.ns - units.sim(&rpc) - rpc.envelopes * units.envelope) / rpc.messages.max(1.0);
    add("pm2.null_rpc_ns", rpc.ns, "ns");
    add("pm2.migrate_ns", median3(pm2_migrate).ns, "ns");

    let hit = median3(core_access_hit);
    units.access = hit.ns;
    add("core.access_hit_ns", hit.ns, "ns");
    let fault = median3(core_read_fault);
    units.read_fault = positive(fault.ns - units.below_core(&fault));
    add("core.read_fault_ns", fault.ns, "ns");
    let barrier = median3(core_barrier);
    units.barrier = positive(barrier.ns - units.below_core(&barrier));
    add("core.barrier_ns", barrier.ns, "ns");
    let lock = median3(core_lock);
    units.lock = positive(lock.ns - units.below_core(&lock));
    add("core.lock_ns", lock.ns, "ns");
    let (compute, apply) = core_diff();
    add("core.diff_compute_ns", compute, "ns");
    add("core.diff_apply_ns", apply, "ns");

    for protocol in WRITE_FAULT_PROTOCOLS {
        let cost = median3(|| protocol_write_fault(protocol));
        units
            .write_fault
            .push((protocol, positive(cost.ns - units.below_core(&cost))));
        add(
            &format!("protocols.write_fault_ns.{protocol}"),
            cost.ns,
            "ns",
        );
    }

    let get = median3(|| hyperion_hit(false));
    let put = median3(|| hyperion_hit(true));
    // The workload's mix: 7 gets to 1 put.
    units.check = (7.0 * get.ns + put.ns) / 8.0;
    add("hyperion.get_hit_ns", get.ns, "ns");
    add("hyperion.put_hit_ns", put.ns, "ns");

    let err_pct = |us: f64, paper: f64| (us - paper) / paper * 100.0;
    let read_fault = read_fault_virtual_us("li_hudak");
    add("core.read_fault_virtual_us", read_fault, "us");
    add(
        "core.read_fault_err_pct",
        err_pct(read_fault, PAPER_READ_FAULT_US),
        "%",
    );
    let migration = read_fault_virtual_us("migrate_thread");
    add("pm2.migration_fault_virtual_us", migration, "us");
    add(
        "pm2.migration_fault_err_pct",
        err_pct(migration, PAPER_MIGRATION_FAULT_US),
        "%",
    );
    let table3 = measure_read_fault(profiles::bip_myrinet(), FaultPolicy::PageTransfer).total_us;
    let table4 = measure_read_fault(profiles::bip_myrinet(), FaultPolicy::ThreadMigration).total_us;
    let exact = read_fault == table3 && migration == table4;
    if !exact {
        eprintln!(
            "accuracy probes differ from the repo's tables: read fault {read_fault} vs table3 {table3}, migration {migration} vs table4 {table4}"
        );
    }

    (probes, units, exact)
}
