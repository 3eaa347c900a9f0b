//! Integration tests of the platform-level claims of the paper: portability
//! across interconnects, reproduction of the microbenchmark tables' shape,
//! the Figure 4 / Figure 5 orderings on reduced instances, and the
//! post-mortem monitoring facilities.

use dsm_pm2::madeleine::profiles;
use dsm_pm2::pm2::Pm2Config;
use dsm_pm2::workloads::map_coloring::{run_map_coloring, solve_sequential, ColoringConfig};
use dsm_pm2::workloads::tsp::{run_tsp, TspConfig, TspInstance};
use dsm_pm2::workloads::{measure_read_fault, run_shared_counter, FaultPolicy};

/// Table 3 / Table 4 shape on every profile: totals ordered like the paper's
/// columns, overhead bounded, migration always cheaper than page transfer for
/// the single-fault microbenchmark.
#[test]
fn fault_tables_shape_on_all_networks() {
    let mut page_totals = Vec::new();
    for net in profiles::all() {
        let page = measure_read_fault(net.clone(), FaultPolicy::PageTransfer);
        let mig = measure_read_fault(net.clone(), FaultPolicy::ThreadMigration);
        assert!(mig.total_us < page.total_us, "{}", net.name);
        assert!(
            page.overhead_us / page.total_us <= 0.20,
            "{}: protocol overhead must stay a small fraction (paper: <=15%)",
            net.name
        );
        page_totals.push((net.name.clone(), page.total_us));
    }
    let get = |name: &str| {
        page_totals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap()
    };
    // Paper's Table 3 ordering: SCI (194) < BIP (198) < TCP/Myrinet (600) < FastEthernet (993).
    assert!(get("SISCI/SCI") < get("BIP/Myrinet"));
    assert!(get("BIP/Myrinet") < get("TCP/Myrinet"));
    assert!(get("TCP/Myrinet") < get("TCP/FastEthernet"));
}

/// Figure 4 shape on a reduced instance: page-based protocols beat
/// migrate_thread, and the distributed result matches the sequential oracle.
#[test]
fn figure4_shape_on_reduced_instance() {
    let config = TspConfig::small(4, 9);
    let oracle = TspInstance::random(config.cities, config.seed).solve_sequential();
    let mut times = Vec::new();
    for proto in ["li_hudak", "migrate_thread", "erc_sw", "hbrc_mw"] {
        let r = run_tsp(&config, proto);
        assert_eq!(r.best, oracle, "{proto}");
        times.push((proto, r.run.elapsed));
    }
    let migrate_time = times
        .iter()
        .find(|(p, _)| *p == "migrate_thread")
        .unwrap()
        .1;
    for (proto, t) in &times {
        if *proto != "migrate_thread" {
            assert!(
                *t < migrate_time,
                "{proto} ({t}) should beat migrate_thread ({migrate_time})"
            );
        }
    }
}

/// Figure 5 shape on a reduced instance: java_pf beats java_ic and both find
/// the optimum of the instance's first states.
#[test]
fn figure5_shape_on_reduced_instance() {
    let config = ColoringConfig::small(4, 14);
    let ic = run_map_coloring(&config, "java_ic");
    let pf = run_map_coloring(&config, "java_pf");
    let oracle = solve_sequential(config.num_states);
    assert_eq!((ic.best_cost, pf.best_cost), (oracle, oracle));
    let (ic, pf) = (ic.run, pf.run);
    assert!(
        pf.elapsed < ic.elapsed,
        "pf {} vs ic {}",
        pf.elapsed,
        ic.elapsed
    );
    assert!(ic.stats.inline_checks > pf.stats.inline_checks);
    assert!(pf.stats.total_faults() > 0);
}

/// Portability: the same shared-counter program produces the same result on
/// every interconnect profile; only its timing changes (and it changes in the
/// direction the profiles predict).
#[test]
fn portability_same_result_different_cost() {
    let mut results = Vec::new();
    for net in profiles::all() {
        let v = run_shared_counter(&Pm2Config::new(2, net.clone()), 5, "li_hudak");
        assert_eq!(v, 10, "{}", net.name);
        results.push(net.name);
    }
    assert_eq!(results.len(), 4);
}

/// The §2.1 micro-measurements are reproduced by the PM2 substrate.
#[test]
fn pm2_micro_measurements_match_paper() {
    use dsm_pm2::pm2::{service_fn, NodeId, Pm2Cluster, Pm2Config, RpcClass, RpcReply};
    use dsm_pm2::sim::{Engine, SimDuration};
    use std::sync::Arc;
    use std::sync::Mutex;

    for (profile, rpc_us, mig_us) in [
        (profiles::bip_myrinet(), 8.0, 75.0),
        (profiles::sisci_sci(), 6.0, 62.0),
    ] {
        // RPC latency.
        let engine = Engine::new();
        let cluster = Pm2Cluster::new(&engine, Pm2Config::new(2, profile.clone()));
        cluster.register_service(service_fn("null", false, |_c, _p| {
            Some(RpcReply::minimal(()))
        }));
        let rpc_elapsed = Arc::new(Mutex::new(SimDuration::ZERO));
        let e = rpc_elapsed.clone();
        let c = cluster.clone();
        engine.spawn("caller", move |h| {
            let start = h.now();
            let _ = c.rpc_call(
                h,
                NodeId(0),
                NodeId(1),
                "null",
                Box::new(()),
                RpcClass::Minimal,
            );
            *e.lock().unwrap() = h.now().since(start);
        });
        let mut engine = engine;
        engine.run().unwrap();
        let measured_rpc = rpc_elapsed.lock().unwrap().as_micros_f64();
        assert!(
            (measured_rpc - rpc_us).abs() < 4.0,
            "{}: RPC {measured_rpc}us vs paper {rpc_us}us",
            profile.name
        );

        // Thread migration latency.
        let engine = Engine::new();
        let cluster = Pm2Cluster::new(&engine, Pm2Config::new(2, profile.clone()));
        let mig_elapsed = Arc::new(Mutex::new(SimDuration::ZERO));
        let e = mig_elapsed.clone();
        cluster.spawn_thread_on(NodeId(0), "mover", move |ctx| {
            let start = ctx.now();
            ctx.migrate_to(NodeId(1));
            *e.lock().unwrap() = ctx.now().since(start);
        });
        let mut engine = engine;
        engine.run().unwrap();
        let measured_mig = mig_elapsed.lock().unwrap().as_micros_f64();
        assert!(
            (measured_mig - mig_us).abs() < 2.0,
            "{}: migration {measured_mig}us vs paper {mig_us}us",
            profile.name
        );
    }
}

/// Post-mortem monitoring: after a run, what the elementary DSM functions
/// did can be read back (the facility §4 highlights) — the faults from the
/// DSM counters, and each RPC service's calls, one-way sends and handler
/// times from the service itself.
#[test]
fn post_mortem_monitor_reports_elementary_functions() {
    use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy, SVC_DSM};
    use dsm_pm2::prelude::*;

    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
    let protos = register_builtin_protocols(&rt);
    rt.set_default_protocol(protos.li_hudak);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    rt.spawn_dsm_thread(NodeId(1), "toucher", move |ctx| {
        let _ = ctx.read::<u64>(addr);
        ctx.write::<u64>(addr, 1);
    });
    let mut engine = engine;
    engine.run().unwrap();
    let stats = rt.stats().snapshot();
    assert_eq!((stats.read_faults, stats.write_faults), (1, 1));
    let report = rt.cluster().rpc_report();
    let (_, dsm) = report
        .iter()
        .find(|(name, _)| name == SVC_DSM)
        .expect("the DSM service reports");
    assert!(dsm.oneways > 0, "{dsm:?}");
    assert_eq!(dsm.handled.count, dsm.oneways, "{dsm:?}");
    assert!(dsm.handled.total >= dsm.handled.max, "{dsm:?}");
}

/// Regression (PR 3): a user-code panic while the thread holds the
/// scheduler's grant — mid-critical-section, with three other nodes blocked
/// on the same lock and coherence traffic in flight — must surface as the
/// run's error (carrying the panic message), release every other thread and
/// never hang. "All hand-offs" are the platform's one per build: the default
/// lane runs this on continuations, the `no-coro` lane on the baton.
#[test]
fn panic_mid_critical_section_reclaims_baton_under_all_handoffs() {
    use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy};
    use dsm_pm2::pm2::SimError;
    use dsm_pm2::prelude::*;

    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(4));
    let protos = register_builtin_protocols(&rt);
    rt.set_default_protocol(protos.hbrc_mw);
    let cell = rt.dsm_malloc(4 * 4096, DsmAttr::default().home(HomePolicy::RoundRobin));
    let lock = rt.create_lock(Some(NodeId(0)));
    for node in 0..4usize {
        rt.spawn_dsm_thread(NodeId(node), format!("w{node}"), move |ctx| {
            // Cache copies everywhere so the panicking release path has
            // invalidations and diffs in flight.
            for page in 0..4u64 {
                let _ = ctx.read::<u64>(cell.add(page * 4096));
            }
            for _ in 0..3u64 {
                ctx.dsm_lock(lock);
                for page in 0..4u64 {
                    let v = ctx.read::<u64>(cell.add(page * 4096));
                    ctx.write::<u64>(cell.add(page * 4096), v + 1);
                    if node == 2 && v >= 4 {
                        panic!("intentional mid-critical-section panic");
                    }
                }
                ctx.dsm_unlock(lock);
            }
        });
    }
    let mut engine = engine;
    match engine.run() {
        Err(SimError::ThreadPanic {
            thread, message, ..
        }) => {
            assert_eq!(thread, "w2");
            assert!(
                message.contains("intentional mid-critical-section panic"),
                "panic payload must be propagated, got '{message}'"
            );
        }
        other => panic!("expected ThreadPanic, got {other:?}"),
    }
    // If teardown failed to reclaim a thread this test would hang before
    // reaching this point; reaching it is the assertion.
}

/// Regression (PR 3): a panic inside a scheduler callback (`call_at`) must
/// not unwind past `Engine::run` leaving every simulated thread parked — it
/// becomes the run's error and teardown still reclaims all OS threads.
#[test]
fn scheduler_call_panic_is_reported_and_torn_down() {
    use dsm_pm2::sim::{Engine, SimDuration, SimError, SimTime};

    let mut engine = Engine::new();
    let ctl = engine.ctl();
    engine.spawn("sleeper", |h| {
        h.sleep(SimDuration::from_micros(500));
    });
    ctl.call_at(SimTime::from_micros(10), |_| {
        panic!("intentional scheduler-call panic");
    });
    match engine.run() {
        Err(SimError::ThreadPanic {
            thread, message, ..
        }) => {
            assert_eq!(thread, "scheduler-call");
            assert!(message.contains("intentional scheduler-call panic"));
        }
        other => panic!("expected scheduler-call panic error, got {other:?}"),
    }
}
