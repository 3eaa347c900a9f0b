//! Red-black successive over-relaxation (SOR): a barrier-heavy stencil with
//! nearest-neighbour sharing, in the style of the SPLASH-2 `ocean`/`sor`
//! kernels the paper lists as future evaluation targets.
//!
//! The grid is distributed block-wise by rows. Every iteration has two
//! half-sweeps (red cells, then black cells) separated by barriers, so only
//! the halo rows at block boundaries are ever shared between nodes — the
//! pattern release-consistency protocols are designed to exploit.

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_core::{DsmAddr, DsmAttr, HomePolicy, NodeId, Pm2Config};
use dsmpm2_pm2::Engine;
use dsmpm2_sim::SimDuration;

use crate::setup::{runtime, Latest, RunOutcome};

/// Configuration of a red-black SOR run.
#[derive(Clone, Debug)]
pub struct SorConfig {
    /// Grid is `size x size` `f64` cells.
    pub size: usize,
    /// Number of red+black iterations.
    pub iterations: usize,
    /// Over-relaxation factor (0 < omega < 2).
    pub omega: f64,
    /// Virtual compute time charged per updated cell, in µs.
    pub compute_per_cell_us: f64,
    /// The cluster the kernel runs on, one thread per node.
    pub cluster: Pm2Config,
}

impl SorConfig {
    /// A small configuration usable in tests.
    pub fn small(nodes: usize) -> Self {
        SorConfig {
            size: 24,
            iterations: 3,
            omega: 1.25,
            compute_per_cell_us: 0.05,
            cluster: Pm2Config::sisci_sci(nodes),
        }
    }
}

/// Result of a SOR run.
#[derive(Clone, Debug)]
pub struct SorResult {
    /// Sum of the final grid.
    pub checksum: f64,
    /// Bit patterns of every final grid cell in row-major order — the exact
    /// final shared memory, used by the cross-protocol conformance matrix.
    pub final_cells: Vec<u64>,
    /// Time, statistics and engine report of the run.
    pub run: RunOutcome,
}

fn initial(size: usize, row: usize, col: usize) -> f64 {
    if row == 0 || row == size - 1 || col == 0 || col == size - 1 {
        100.0
    } else {
        0.0
    }
}

/// Sequential oracle: run the same red-black sweeps without any DSM and
/// return the grid checksum.
pub fn sequential_checksum(config: &SorConfig) -> f64 {
    let size = config.size;
    let mut grid = vec![0.0f64; size * size];
    for row in 0..size {
        for col in 0..size {
            grid[row * size + col] = initial(size, row, col);
        }
    }
    for _ in 0..config.iterations {
        for colour in 0..2usize {
            for row in 1..size - 1 {
                for col in 1..size - 1 {
                    if (row + col) % 2 != colour {
                        continue;
                    }
                    let neighbours = grid[(row - 1) * size + col]
                        + grid[(row + 1) * size + col]
                        + grid[row * size + col - 1]
                        + grid[row * size + col + 1];
                    let old = grid[row * size + col];
                    grid[row * size + col] = old + config.omega * (neighbours / 4.0 - old);
                }
            }
        }
    }
    grid.iter().sum()
}

fn cell(base: DsmAddr, size: usize, row: usize, col: usize) -> DsmAddr {
    base.add(((row * size + col) * 8) as u64)
}

/// Run red-black SOR under `protocol_name` (any registered built-in or
/// extension protocol).
pub fn run_sor(config: &SorConfig, protocol_name: &str) -> SorResult {
    let nodes = config.cluster.num_nodes;
    assert!(config.size >= 4 && config.size.is_multiple_of(nodes));
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);

    let bytes = (config.size * config.size * 8) as u64;
    let grid = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block));
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
        rt.spawn_dsm_thread(NodeId(node), format!("sor-{node}"), move |ctx| {
            let size = config.size;
            let first = node * rows_per_node;
            let last = first + rows_per_node;
            for row in first..last {
                for col in 0..size {
                    ctx.write::<f64>(cell(grid, size, row, col), initial(size, row, col));
                }
            }
            ctx.dsm_barrier(barrier);

            for _iter in 0..config.iterations {
                for colour in 0..2usize {
                    let mut updated = 0u64;
                    for row in first.max(1)..last.min(size - 1) {
                        for col in 1..size - 1 {
                            if (row + col) % 2 != colour {
                                continue;
                            }
                            let neighbours = ctx.read::<f64>(cell(grid, size, row - 1, col))
                                + ctx.read::<f64>(cell(grid, size, row + 1, col))
                                + ctx.read::<f64>(cell(grid, size, row, col - 1))
                                + ctx.read::<f64>(cell(grid, size, row, col + 1));
                            let old = ctx.read::<f64>(cell(grid, size, row, col));
                            ctx.write::<f64>(
                                cell(grid, size, row, col),
                                old + config.omega * (neighbours / 4.0 - old),
                            );
                            updated += 1;
                        }
                    }
                    ctx.compute(SimDuration::from_micros_f64(
                        config.compute_per_cell_us * updated as f64,
                    ));
                    ctx.dsm_barrier(barrier);
                }
            }

            let mut local = 0.0;
            let mut block = Vec::with_capacity((last - first) * size);
            for row in first..last {
                for col in 0..size {
                    let v = ctx.read::<f64>(cell(grid, size, row, col));
                    block.push(v.to_bits());
                    local += v;
                }
            }
            final_cells.lock()[first * size..last * size].copy_from_slice(&block);
            *checksum.lock() += local;
            finish.record(ctx.pm2.now());
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let checksum = *checksum.lock();
    let final_cells = std::mem::take(&mut *final_cells.lock());
    SorResult {
        checksum,
        final_cells,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sor_read_copies_granted_during_release_are_tracked() {
        // Regression: with 4 nodes and a 2-page grid, a read copy granted
        // while the owner's release-time invalidation was in flight used to
        // be wiped from the copyset bookkeeping, leaving the reader with a
        // permanently stale boundary row under erc_sw.
        let config = SorConfig {
            size: 32,
            iterations: 4,
            omega: 1.25,
            compute_per_cell_us: 0.05,
            cluster: Pm2Config::bip_myrinet(4),
        };
        let oracle = sequential_checksum(&config);
        for proto in ["erc_sw", "hbrc_mw"] {
            let result = run_sor(&config, proto);
            assert!(
                (result.checksum - oracle).abs() < 1e-6,
                "{proto}: {} != oracle {}",
                result.checksum,
                oracle
            );
        }
    }

    #[test]
    fn sequential_oracle_heats_the_interior() {
        let config = SorConfig::small(2);
        let boundary_only: f64 = (0..config.size)
            .flat_map(|r| (0..config.size).map(move |c| (r, c)))
            .map(|(r, c)| initial(config.size, r, c))
            .sum();
        assert!(sequential_checksum(&config) > boundary_only);
    }

    #[test]
    fn sor_matches_the_sequential_oracle_across_protocols() {
        let config = SorConfig::small(2);
        let oracle = sequential_checksum(&config);
        for proto in ["li_hudak", "erc_sw", "hbrc_mw", "hlrc_notices"] {
            let result = run_sor(&config, proto);
            assert!(
                (result.checksum - oracle).abs() < 1e-6,
                "{proto}: {} != oracle {}",
                result.checksum,
                oracle
            );
        }
    }

    #[test]
    fn sor_shares_only_halo_rows() {
        let config = SorConfig::small(2);
        let result = run_sor(&config, "hbrc_mw");
        // Sharing exists (halo rows cross the block boundary) but the bulk of
        // the accesses are local.
        let stats = result.run.stats;
        assert!(stats.page_transfers + stats.diffs_sent > 0);
        assert!(stats.local_accesses > stats.total_faults() * 10);
    }
}
