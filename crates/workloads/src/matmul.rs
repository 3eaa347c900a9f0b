//! Blocked dense matrix multiply: a read-mostly SPLASH-2-style kernel.
//!
//! `C = A × B` with the three matrices in shared memory. Rows of `A` and `C`
//! are distributed block-wise across the nodes (each node computes its own
//! row block of `C`), while every node reads all of `B` — the classic
//! "replicate the read-only operand" sharing pattern that page replication
//! handles well and thread migration handles poorly. The paper's outlook
//! calls for exactly this kind of sharing-pattern study (SPLASH-2).

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_core::{DsmAddr, DsmAttr, HomePolicy, NodeId, Pm2Config};
use dsmpm2_pm2::Engine;
use dsmpm2_sim::SimDuration;

use crate::setup::{runtime, Latest, RunOutcome};

/// Configuration of a matrix-multiply run.
#[derive(Clone, Debug)]
pub struct MatmulConfig {
    /// Matrices are `n x n` `f64`.
    pub n: usize,
    /// Virtual compute time charged per multiply-add, in µs.
    pub compute_per_madd_us: f64,
    /// The cluster the kernel runs on, one worker thread per node.
    pub cluster: Pm2Config,
}

impl MatmulConfig {
    /// A small configuration usable in tests.
    pub fn small(nodes: usize) -> Self {
        MatmulConfig {
            n: 16,
            compute_per_madd_us: 0.01,
            cluster: Pm2Config::bip_myrinet(nodes),
        }
    }
}

/// Result of a matrix-multiply run.
#[derive(Clone, Debug)]
pub struct MatmulResult {
    /// Sum of all entries of `C` (checked against the sequential oracle).
    pub checksum: f64,
    /// Bit patterns of every final entry of `C` in row-major order — the
    /// exact final shared memory, used by the conformance matrix.
    pub final_cells: Vec<u64>,
    /// Time, statistics and engine report of the run.
    pub run: RunOutcome,
}

/// Deterministic input entry of `A`.
pub fn a_entry(n: usize, row: usize, col: usize) -> f64 {
    ((row * n + col) % 7) as f64 + 0.5
}

/// Deterministic input entry of `B`.
pub fn b_entry(_n: usize, row: usize, col: usize) -> f64 {
    ((row + 2 * col) % 5) as f64 - 1.0
}

/// Sequential oracle: the checksum of `C = A × B` computed without any DSM.
pub fn sequential_checksum(n: usize) -> f64 {
    let mut sum = 0.0;
    for i in 0..n {
        for j in 0..n {
            let mut c = 0.0;
            for k in 0..n {
                c += a_entry(n, i, k) * b_entry(n, k, j);
            }
            sum += c;
        }
    }
    sum
}

fn cell(base: DsmAddr, n: usize, row: usize, col: usize) -> DsmAddr {
    base.add(((row * n + col) * 8) as u64)
}

/// Run the blocked matrix multiply under `protocol_name` (any registered
/// built-in or extension protocol).
pub fn run_matmul(config: &MatmulConfig, protocol_name: &str) -> MatmulResult {
    let nodes = config.cluster.num_nodes;
    assert!(config.n >= nodes && config.n.is_multiple_of(nodes));
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);

    let bytes = (config.n * config.n * 8) as u64;
    // A and C are distributed block-wise (each node owns its row block); B is
    // homed round-robin and replicated on demand.
    let a = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block));
    let b = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::RoundRobin));
    let c = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Latest::default();
    let checksum = Arc::new(Mutex::new(0.0f64));
    let final_cells = Arc::new(Mutex::new(vec![0u64; config.n * config.n]));

    let rows_per_node = config.n / nodes;
    for node in 0..nodes {
        let finish = finish.clone();
        let checksum = checksum.clone();
        let final_cells = final_cells.clone();
        let config = config.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("matmul-{node}"), move |ctx| {
            let n = config.n;
            let first = node * rows_per_node;
            let last = first + rows_per_node;
            // Initialise the owned row block of A and the corresponding
            // columns of B (the B rows are split the same way so that every
            // node contributes to initialising it exactly once).
            for row in first..last {
                for col in 0..n {
                    ctx.write::<f64>(cell(a, n, row, col), a_entry(n, row, col));
                    ctx.write::<f64>(cell(b, n, row, col), b_entry(n, row, col));
                }
            }
            ctx.dsm_barrier(barrier);

            let mut madds = 0u64;
            let mut local_sum = 0.0;
            for row in first..last {
                for col in 0..n {
                    let mut acc = 0.0;
                    for k in 0..n {
                        let x = ctx.read::<f64>(cell(a, n, row, k));
                        let y = ctx.read::<f64>(cell(b, n, k, col));
                        acc += x * y;
                        madds += 1;
                    }
                    ctx.write::<f64>(cell(c, n, row, col), acc);
                    local_sum += acc;
                }
            }
            ctx.compute(SimDuration::from_micros_f64(
                config.compute_per_madd_us * madds as f64,
            ));
            ctx.dsm_barrier(barrier);
            // Read the owned row block of C back from shared memory (not
            // from the locally accumulated values): the conformance matrix
            // compares what the DSM actually holds after the run. The block
            // is buffered locally and published under one lock.
            let mut block = Vec::with_capacity((last - first) * n);
            for row in first..last {
                for col in 0..n {
                    block.push(ctx.read::<f64>(cell(c, n, row, col)).to_bits());
                }
            }
            final_cells.lock()[first * n..last * n].copy_from_slice(&block);
            *checksum.lock() += local_sum;
            finish.record(ctx.pm2.now());
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let checksum = *checksum.lock();
    let final_cells = std::mem::take(&mut *final_cells.lock());
    MatmulResult {
        checksum,
        final_cells,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_oracle_is_deterministic() {
        assert_eq!(sequential_checksum(8), sequential_checksum(8));
        assert_ne!(sequential_checksum(8), 0.0);
    }

    #[test]
    fn matmul_multiple_writers_per_page_across_pages() {
        // Regression: with 4 nodes and n=32, C/A/B each span 2 pages with 2
        // concurrent writers per page. The home's release-time invalidation
        // used to reach a third-party writer mid-phase and evict its frame
        // while the application thread was still writing into it, silently
        // losing those writes (fixed by revoking access before the blocking
        // diff push in hbrc_mw's invalidate_server).
        let config = MatmulConfig {
            n: 32,
            compute_per_madd_us: 0.01,
            cluster: Pm2Config::bip_myrinet(4),
        };
        let oracle = sequential_checksum(config.n);
        for proto in ["hbrc_mw", "hlrc_notices"] {
            let result = run_matmul(&config, proto);
            assert!(
                (result.checksum - oracle).abs() < 1e-6,
                "{proto}: {} != oracle {}",
                result.checksum,
                oracle
            );
        }
    }

    #[test]
    fn matmul_matches_the_sequential_oracle_under_page_protocols() {
        let config = MatmulConfig::small(2);
        let oracle = sequential_checksum(config.n);
        for proto in ["li_hudak", "li_hudak_fixed", "hbrc_mw"] {
            let result = run_matmul(&config, proto);
            assert!(
                (result.checksum - oracle).abs() < 1e-6,
                "{proto}: {} != oracle {}",
                result.checksum,
                oracle
            );
            assert!(result.run.elapsed > dsmpm2_sim::SimTime::ZERO);
        }
    }

    #[test]
    fn matmul_replicates_b_rather_than_migrating_threads() {
        let config = MatmulConfig::small(2);
        let result = run_matmul(&config, "li_hudak");
        assert!(result.run.stats.page_transfers > 0, "B must be replicated");
        assert_eq!(result.run.stats.thread_migrations, 0);
    }

    #[test]
    fn more_nodes_agree_on_the_checksum() {
        let c2 = MatmulConfig::small(2);
        let c4 = MatmulConfig::small(4);
        let r2 = run_matmul(&c2, "li_hudak");
        let r4 = run_matmul(&c4, "li_hudak");
        assert!((r2.checksum - r4.checksum).abs() < 1e-6);
    }
}
