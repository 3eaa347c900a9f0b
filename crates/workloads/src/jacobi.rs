//! Jacobi 2-D stencil: a regular, barrier-synchronised workload.
//!
//! The paper's outlook calls for studying the protocols on applications with
//! different sharing patterns (SPLASH-2 style). This kernel provides the
//! classic regular pattern: a grid distributed block-wise by rows, one thread
//! per node updating its own block and reading one halo row from each
//! neighbour per iteration, with a barrier between iterations. It exercises
//! the release-consistency protocols' barrier flushes and the page manager's
//! handling of mostly-local data.

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_core::{DsmAddr, DsmAttr, HomePolicy, NodeId, Pm2Config};
use dsmpm2_pm2::Engine;
use dsmpm2_sim::SimDuration;

use crate::setup::{runtime, Latest, RunOutcome};

/// Configuration of a Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiConfig {
    /// Grid is `size x size` `f64` cells.
    pub size: usize,
    /// Number of relaxation iterations.
    pub iterations: usize,
    /// Virtual compute time charged per updated cell, in µs.
    pub compute_per_cell_us: f64,
    /// The cluster the kernel runs on, one thread per node.
    pub cluster: Pm2Config,
}

impl JacobiConfig {
    /// A small configuration usable in tests.
    pub fn small(nodes: usize) -> Self {
        JacobiConfig {
            size: 32,
            iterations: 4,
            compute_per_cell_us: 0.05,
            cluster: Pm2Config::bip_myrinet(nodes),
        }
    }
}

/// Result of a Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiResult {
    /// Sum of the final grid (used to check cross-protocol agreement).
    pub checksum: f64,
    /// Bit patterns of every final grid cell in row-major order — the exact
    /// final shared memory, used by the cross-protocol conformance matrix.
    pub final_cells: Vec<u64>,
    /// Time, statistics and engine report of the run.
    pub run: RunOutcome,
}

fn cell_addr(base: DsmAddr, size: usize, row: usize, col: usize) -> DsmAddr {
    base.add(((row * size + col) * 8) as u64)
}

/// Run the Jacobi kernel under `protocol_name`.
pub fn run_jacobi(config: &JacobiConfig, protocol_name: &str) -> JacobiResult {
    let nodes = config.cluster.num_nodes;
    assert!(config.size >= 4 && config.size.is_multiple_of(nodes));
    // Each row occupies a whole number of pages only if size*8 >= 4096; for
    // small grids rows share pages, which is fine (more sharing, not less).
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);

    let bytes = (config.size * config.size * 8) as u64;
    let grid_a = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block));
    let grid_b = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Latest::default();
    let checksum = Arc::new(Mutex::new(0.0f64));
    let final_cells = Arc::new(Mutex::new(vec![0u64; config.size * config.size]));

    let rows_per_node = config.size / nodes;
    for node in 0..nodes {
        let finish = finish.clone();
        let checksum = checksum.clone();
        let final_cells = final_cells.clone();
        let config = config.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("jacobi-{node}"), move |ctx| {
            let size = config.size;
            let first_row = node * rows_per_node;
            let last_row = first_row + rows_per_node;
            // Initialise own block of grid A: boundary 100.0, interior 0.0.
            for row in first_row..last_row {
                for col in 0..size {
                    let v = if row == 0 || row == size - 1 || col == 0 || col == size - 1 {
                        100.0
                    } else {
                        0.0
                    };
                    ctx.write::<f64>(cell_addr(grid_a, size, row, col), v);
                    ctx.write::<f64>(cell_addr(grid_b, size, row, col), v);
                }
            }
            ctx.dsm_barrier(barrier);

            let (mut src, mut dst) = (grid_a, grid_b);
            for _iter in 0..config.iterations {
                let mut cells = 0u64;
                for row in first_row.max(1)..last_row.min(size - 1) {
                    for col in 1..(size - 1) {
                        let up = ctx.read::<f64>(cell_addr(src, size, row - 1, col));
                        let down = ctx.read::<f64>(cell_addr(src, size, row + 1, col));
                        let left = ctx.read::<f64>(cell_addr(src, size, row, col - 1));
                        let right = ctx.read::<f64>(cell_addr(src, size, row, col + 1));
                        ctx.write::<f64>(
                            cell_addr(dst, size, row, col),
                            (up + down + left + right) / 4.0,
                        );
                        cells += 1;
                    }
                }
                ctx.pm2.compute_shared(SimDuration::from_micros_f64(
                    config.compute_per_cell_us * cells as f64,
                ));
                ctx.dsm_barrier(barrier);
                std::mem::swap(&mut src, &mut dst);
            }

            // Node-local contribution to the checksum and to the captured
            // final memory (each node reads back its own block, then
            // publishes it under a single lock — never holding the host
            // mutex across a DSM access, which may park the thread).
            let mut local = 0.0;
            let mut block = Vec::with_capacity((last_row - first_row) * size);
            for row in first_row..last_row {
                for col in 0..size {
                    let v = ctx.read::<f64>(cell_addr(src, size, row, col));
                    block.push(v.to_bits());
                    local += v;
                }
            }
            final_cells.lock()[first_row * size..last_row * size].copy_from_slice(&block);
            *checksum.lock() += local;
            finish.record(ctx.pm2.now());
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let checksum = *checksum.lock();
    let final_cells = std::mem::take(&mut *final_cells.lock());
    JacobiResult {
        checksum,
        final_cells,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_runs_and_produces_identical_results_across_protocols() {
        let config = JacobiConfig::small(2);
        let reference = run_jacobi(&config, "li_hudak");
        assert!(reference.run.elapsed > dsmpm2_sim::SimTime::ZERO);
        assert!(reference.checksum > 0.0);
        for proto in ["erc_sw", "hbrc_mw"] {
            let result = run_jacobi(&config, proto);
            assert!(
                (result.checksum - reference.checksum).abs() < 1e-6,
                "{proto} diverged: {} vs {}",
                result.checksum,
                reference.checksum
            );
        }
    }

    #[test]
    fn more_nodes_share_more_pages_but_still_agree() {
        let c2 = JacobiConfig::small(2);
        let c4 = JacobiConfig::small(4);
        let r2 = run_jacobi(&c2, "hbrc_mw");
        let r4 = run_jacobi(&c4, "hbrc_mw");
        assert!((r2.checksum - r4.checksum).abs() < 1e-6);
        assert!(r4.run.stats.page_transfers + r4.run.stats.diffs_sent > 0);
    }
}
