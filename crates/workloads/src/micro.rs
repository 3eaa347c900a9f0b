//! Microbenchmark kernels: the single-fault measurements behind Tables 3 and
//! 4, plus small shared-memory kernels used by tests and examples.

use dsmpm2_core::{DsmAttr, HomePolicy, NodeId, Pm2Config};
use dsmpm2_madeleine::NetworkModel;
use dsmpm2_pm2::Engine;

use crate::setup::{runtime, Latest};

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
    let protocol = match policy {
        FaultPolicy::PageTransfer => "li_hudak",
        FaultPolicy::ThreadMigration => "migrate_thread",
    };
    let mut engine = Engine::new();
    let rt = runtime(&engine, &Pm2Config::new(2, network.clone()), protocol);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));

    let elapsed = Latest::default();
    let e = elapsed.clone();
    rt.spawn_dsm_thread(NodeId(1), "faulting-thread", move |ctx| {
        let start = ctx.pm2.now();
        let _ = ctx.read::<u64>(addr);
        e.record(ctx.pm2.now().since(start));
    });
    engine
        .run()
        .expect("fault microbenchmark must not deadlock");

    let total_us = elapsed.get().as_micros_f64();
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
            let migration_us = network.thread_migration_time().as_micros_f64();
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

/// A lock-protected shared counter incremented from every node of
/// `cluster`; returns the final value (used by smoke tests and the race
/// gate).
pub fn run_shared_counter(
    cluster: &Pm2Config,
    increments_per_thread: u64,
    protocol_name: &str,
) -> u64 {
    let nodes = cluster.num_nodes;
    let mut engine = Engine::new();
    let rt = runtime(&engine, cluster, protocol_name);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let lock = rt.create_lock(Some(NodeId(0)));
    let done = rt.create_barrier(nodes, None);
    let result = Latest::default();

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
            // see the same total, so keeping the largest is exact.
            ctx.dsm_lock(lock);
            res.record(ctx.read::<u64>(addr));
            ctx.dsm_unlock(lock);
        });
    }
    engine.run().expect("shared counter must not deadlock");
    result.get()
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
            let v = run_shared_counter(&Pm2Config::bip_myrinet(3), 4, proto);
            assert_eq!(v, 12, "protocol {proto}");
        }
    }
}
