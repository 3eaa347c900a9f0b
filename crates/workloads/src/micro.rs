//! Microbenchmark kernels: the single-fault measurements behind Tables 3 and
//! 4, plus small shared-memory kernels used by tests and examples.

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_core::{DsmAttr, DsmRuntime, HomePolicy, NodeId, Pm2Config};
use dsmpm2_madeleine::NetworkModel;
use dsmpm2_pm2::Engine;
use dsmpm2_protocols::register_builtin_protocols;
use dsmpm2_sim::SimDuration;

/// Which fault-handling policy a read-fault measurement exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Page-transfer based handling (the `li_hudak` protocol).
    PageTransfer,
    /// Thread-migration based handling (the `migrate_thread` protocol).
    ThreadMigration,
}

/// Cost breakdown of processing one remote read fault, in microseconds —
/// the rows of Table 3 (page-transfer policy) and Table 4 (thread-migration
/// policy) of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultBreakdown {
    /// Page-fault detection.
    pub page_fault_us: f64,
    /// Page request transmission (page-transfer policy only).
    pub request_us: f64,
    /// 4 kB page transfer (page-transfer policy only).
    pub transfer_us: f64,
    /// Thread migration (thread-migration policy only).
    pub migration_us: f64,
    /// Protocol overhead (everything that is neither detection nor
    /// communication).
    pub overhead_us: f64,
    /// End-to-end time from the faulting access to its successful retry.
    pub total_us: f64,
}

/// Measure the cost of one remote read fault on a two-node cluster using
/// `network`, under the given policy. The total is measured end-to-end in the
/// simulation; the communication components are taken from the (calibrated)
/// network model and the protocol overhead is the measured remainder, exactly
/// how the paper's tables decompose the measurement.
pub fn measure_read_fault(network: NetworkModel, policy: FaultPolicy) -> FaultBreakdown {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::new(2, network.clone()));
    let protos = register_builtin_protocols(&rt);
    let protocol = match policy {
        FaultPolicy::PageTransfer => protos.li_hudak,
        FaultPolicy::ThreadMigration => protos.migrate_thread,
    };
    rt.set_default_protocol(protocol);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));

    let elapsed = Arc::new(Mutex::new(SimDuration::ZERO));
    let elapsed2 = elapsed.clone();
    rt.spawn_dsm_thread(NodeId(1), "faulting-thread", move |ctx| {
        let start = ctx.pm2.now();
        let _ = ctx.read::<u64>(addr);
        *elapsed2.lock() = ctx.pm2.now().since(start);
    });
    let mut engine = engine;
    engine
        .run()
        .expect("fault microbenchmark must not deadlock");

    let total_us = elapsed.lock().as_micros_f64();
    let page_fault_us = rt.costs().page_fault.as_micros_f64();
    match policy {
        FaultPolicy::PageTransfer => {
            let request_us = network.control_time().as_micros_f64();
            let transfer_us = network.page_transfer_time(4096).as_micros_f64();
            FaultBreakdown {
                page_fault_us,
                request_us,
                transfer_us,
                migration_us: 0.0,
                overhead_us: total_us - page_fault_us - request_us - transfer_us,
                total_us,
            }
        }
        FaultPolicy::ThreadMigration => {
            let migration_us = network.thread_migration_time(1024, 0).as_micros_f64();
            FaultBreakdown {
                page_fault_us,
                request_us: 0.0,
                transfer_us: 0.0,
                migration_us,
                overhead_us: total_us - page_fault_us - migration_us,
                total_us,
            }
        }
    }
}

/// A lock-protected shared counter incremented from every node; returns the
/// final value (used by the quickstart example and by smoke tests).
pub fn run_shared_counter(
    nodes: usize,
    increments_per_thread: u64,
    network: NetworkModel,
    protocol_name: &str,
) -> u64 {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::new(nodes, network));
    let protos = register_builtin_protocols(&rt);
    let protocol = protos
        .by_name(protocol_name)
        .unwrap_or_else(|| panic!("unknown protocol {protocol_name}"));
    rt.set_default_protocol(protocol);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let lock = rt.create_lock(Some(NodeId(0)));
    let done = rt.create_barrier(nodes, None);
    let result = Arc::new(Mutex::new(0u64));

    for n in 0..nodes {
        let res = result.clone();
        rt.spawn_dsm_thread(NodeId(n), format!("incr-{n}"), move |ctx| {
            for _ in 0..increments_per_thread {
                ctx.dsm_lock(lock);
                let v = ctx.read::<u64>(addr);
                ctx.write::<u64>(addr, v + 1);
                ctx.dsm_unlock(lock);
            }
            ctx.dsm_barrier(done);
            // Every worker reads the final value after the barrier; they all
            // see the same total, so recording the maximum is exact.
            ctx.dsm_lock(lock);
            let v = ctx.read::<u64>(addr);
            ctx.dsm_unlock(lock);
            let mut res = res.lock();
            if v > *res {
                *res = v;
            }
        });
    }
    let mut engine = engine;
    engine.run().expect("shared counter must not deadlock");
    let v = *result.lock();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmpm2_madeleine::profiles;

    #[test]
    fn table3_shape_page_transfer_fault() {
        let b = measure_read_fault(profiles::bip_myrinet(), FaultPolicy::PageTransfer);
        // Paper Table 3, BIP/Myrinet column: 11 + 23 + 138 + 26 = 198 us.
        assert!((b.page_fault_us - 11.0).abs() < 0.1);
        assert!((b.request_us - 23.0).abs() < 2.0);
        assert!((b.transfer_us - 138.0).abs() < 4.0);
        assert!(b.overhead_us > 5.0 && b.overhead_us < 60.0, "{:?}", b);
        assert!((b.total_us - 198.0).abs() < 30.0, "total {}", b.total_us);
        // Protocol overhead stays a small fraction of the total (paper: <=15%).
        assert!(b.overhead_us / b.total_us < 0.2);
    }

    #[test]
    fn table4_shape_thread_migration_fault() {
        let b = measure_read_fault(profiles::bip_myrinet(), FaultPolicy::ThreadMigration);
        // Paper Table 4, BIP/Myrinet column: 11 + 75 + 1 = 87 us.
        assert!((b.page_fault_us - 11.0).abs() < 0.1);
        assert!((b.migration_us - 75.0).abs() < 1.0);
        assert!(b.overhead_us < 10.0, "{:?}", b);
        assert!((b.total_us - 87.0).abs() < 12.0, "total {}", b.total_us);
    }

    #[test]
    fn migration_beats_page_transfer_on_every_network() {
        for net in profiles::all() {
            let page = measure_read_fault(net.clone(), FaultPolicy::PageTransfer);
            let mig = measure_read_fault(net.clone(), FaultPolicy::ThreadMigration);
            assert!(
                mig.total_us < page.total_us,
                "{}: migration {} vs page {}",
                net.name,
                mig.total_us,
                page.total_us
            );
        }
    }

    #[test]
    fn shared_counter_is_exact_under_each_sc_protocol() {
        for proto in ["li_hudak", "migrate_thread"] {
            let v = run_shared_counter(3, 4, profiles::bip_myrinet(), proto);
            assert_eq!(v, 12, "protocol {proto}");
        }
    }
}
