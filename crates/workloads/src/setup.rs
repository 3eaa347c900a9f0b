//! The set-up every runner shares: a runtime on the cluster a run is given,
//! a recorder of when the run's threads finish, and what a finished run
//! reports besides its application result.

use std::sync::Arc;

use dsmpm2_core::{DsmRuntime, DsmStatsSnapshot, Engine, Pm2Config, SimTime, WireStatsSnapshot};
use dsmpm2_protocols::register_all_protocols;
use dsmpm2_sim::{RunReport, SliceCell};

/// A DSM runtime on a fresh cluster described by `cluster`, with every
/// protocol registered and the one named `protocol` the default.
///
/// # Panics
/// Panics if no protocol is named `protocol`.
pub fn runtime(engine: &Engine, cluster: &Pm2Config, protocol: &str) -> DsmRuntime {
    let rt = DsmRuntime::new(engine, cluster.clone());
    let _ = register_all_protocols(&rt);
    let id = rt
        .protocol_by_name(protocol)
        .unwrap_or_else(|| panic!("unknown protocol {protocol}"));
    rt.set_default_protocol(id);
    rt
}

/// The largest value any of its clones recorded — of finish times, the
/// latest: a run ends when its slowest thread does. Simulated threads
/// record, the host reads after `Engine::run`.
#[derive(Default)]
pub struct Latest<T>(Arc<SliceCell<T>>);

impl<T> Clone for Latest<T> {
    fn clone(&self) -> Self {
        Latest(Arc::clone(&self.0))
    }
}

impl<T: Copy + Ord> Latest<T> {
    /// Keep `value` if it is the largest so far.
    pub fn record(&self, value: T) {
        let mut latest = self.0.borrow();
        *latest = (*latest).max(value);
    }

    /// The largest value recorded (the default if none was).
    pub fn get(&self) -> T {
        *self.0.borrow()
    }
}

/// What every run reports besides its application result.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Virtual time at which the last application thread finished.
    pub elapsed: SimTime,
    /// DSM statistics.
    pub stats: DsmStatsSnapshot,
    /// Total messages put on the wire (a batch of coherence messages is one).
    pub wire_messages: u64,
    /// Wire-level transport statistics: NIC stalls, drops, retransmits and
    /// the envelope/message byte accounting.
    pub wire: WireStatsSnapshot,
    /// Engine-level run report (events, context switches, threads spawned).
    pub engine: RunReport,
}

impl RunOutcome {
    /// Run `engine` to completion and report the run of `rt` on it, whose
    /// application threads record their finish in `finish`.
    ///
    /// # Panics
    /// Panics if the run deadlocks or a thread panics; the error names the
    /// threads.
    pub fn run(engine: &mut Engine, rt: &DsmRuntime, finish: &Latest<SimTime>) -> Self {
        let report = engine
            .run()
            .unwrap_or_else(|e| panic!("the run must not deadlock: {e:?}"));
        RunOutcome {
            elapsed: finish.get(),
            stats: rt.stats().snapshot(),
            wire_messages: rt.cluster().network().stats().messages(),
            wire: rt.cluster().network().wire_stats(),
            engine: report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        run_false_sharing, run_jacobi, run_lu, run_map_coloring, run_matmul, run_radix, run_sor,
        run_tsp, ColoringConfig, FalseSharingConfig, JacobiConfig, LuConfig, MatmulConfig,
        RadixConfig, SorConfig, TspConfig,
    };
    use dsmpm2_madeleine::profiles;

    /// Every kernel at its smallest configuration on `cluster`: its name,
    /// its application result (floats as bit patterns) and when it ended.
    fn kernels_on(cluster: &Pm2Config) -> Vec<(&'static str, Vec<u64>, SimTime)> {
        macro_rules! on_cluster {
            ($config:expr) => {{
                let mut config = $config;
                config.cluster = cluster.clone();
                config
            }};
        }
        let with_checksum = |sum: f64, cells: Vec<u64>| [vec![sum.to_bits()], cells].concat();
        let p = "li_hudak";
        let jacobi = run_jacobi(&on_cluster!(JacobiConfig::small(2)), p);
        let sor = run_sor(&on_cluster!(SorConfig::small(2)), p);
        let matmul = run_matmul(&on_cluster!(MatmulConfig::small(2)), p);
        let false_sharing = run_false_sharing(&on_cluster!(FalseSharingConfig::small(2)), p);
        let lu = run_lu(&on_cluster!(LuConfig::small(2)), p);
        let radix = run_radix(&on_cluster!(RadixConfig::small(2)), p);
        let tsp = run_tsp(&on_cluster!(TspConfig::small(2, 7)), p);
        let coloring = run_map_coloring(&on_cluster!(ColoringConfig::small(2, 6)), "java_pf");
        vec![
            (
                "jacobi",
                with_checksum(jacobi.checksum, jacobi.final_cells),
                jacobi.run.elapsed,
            ),
            (
                "sor",
                with_checksum(sor.checksum, sor.final_cells),
                sor.run.elapsed,
            ),
            (
                "matmul",
                with_checksum(matmul.checksum, matmul.final_cells),
                matmul.run.elapsed,
            ),
            (
                "false_sharing",
                false_sharing.final_slots,
                false_sharing.run.elapsed,
            ),
            ("lu", vec![lu.checksum.to_bits()], lu.run.elapsed),
            ("radix", radix.sorted, radix.run.elapsed),
            ("tsp", vec![u64::from(tsp.best)], tsp.run.elapsed),
            (
                "map_coloring",
                vec![coloring.best_cost],
                coloring.run.elapsed,
            ),
        ]
    }

    #[test]
    fn every_runner_runs_on_the_cluster_it_is_given() {
        let fast = kernels_on(&Pm2Config::bip_myrinet(2));
        let slow = kernels_on(&Pm2Config::new(2, profiles::tcp_fast_ethernet()));
        for ((kernel, fast_result, fast_end), (_, slow_result, slow_end)) in fast.iter().zip(&slow)
        {
            assert_eq!(
                fast_result, slow_result,
                "{kernel}: the network changed the result"
            );
            assert!(
                slow_end > fast_end,
                "{kernel} ended at {slow_end} on TCP/FastEthernet and at {fast_end} on \
                 BIP/Myrinet: it did not run on the cluster it was given"
            );
        }
    }
}
