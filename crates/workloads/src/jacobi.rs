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

use dsmpm2_core::{
    DsmAddr, DsmAttr, DsmRuntime, DsmStatsSnapshot, DsmTuning, HomePolicy, NodeId, Pm2Config,
    TransportTuning, WireStatsSnapshot,
};
use dsmpm2_madeleine::NetworkModel;
use dsmpm2_pm2::Engine;
use dsmpm2_protocols::register_all_protocols;
use dsmpm2_sim::{SimDuration, SimTime};

/// Configuration of a Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiConfig {
    /// Grid is `size x size` `f64` cells.
    pub size: usize,
    /// Number of relaxation iterations.
    pub iterations: usize,
    /// Number of cluster nodes (one thread per node).
    pub nodes: usize,
    /// Network profile.
    pub network: NetworkModel,
    /// Virtual compute time charged per updated cell, in µs.
    pub compute_per_cell_us: f64,
    /// DSM tuning knobs (coherence granularity).
    pub tuning: DsmTuning,
    /// Transport-layer tuning knobs (wire-level backend selection).
    pub transport: TransportTuning,
}

impl JacobiConfig {
    /// A small configuration usable in tests.
    pub fn small(nodes: usize) -> Self {
        JacobiConfig {
            size: 32,
            iterations: 4,
            nodes,
            network: dsmpm2_madeleine::profiles::bip_myrinet(),
            compute_per_cell_us: 0.05,
            tuning: DsmTuning::default(),
            transport: TransportTuning::default(),
        }
    }
}

/// Result of a Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiResult {
    /// Virtual completion time.
    pub elapsed: SimTime,
    /// Sum of the final grid (used to check cross-protocol agreement).
    pub checksum: f64,
    /// Bit patterns of every final grid cell in row-major order — the exact
    /// final shared memory, used by the cross-protocol conformance matrix.
    pub final_cells: Vec<u64>,
    /// DSM statistics.
    pub stats: DsmStatsSnapshot,
    /// Total messages put on the wire (a batch of coherence messages is one).
    pub wire_messages: u64,
    /// Wire-level transport statistics (NIC stalls, drops, retransmits):
    /// what the transport ablation compares across backends.
    pub wire: WireStatsSnapshot,
    /// Engine-level run report (events processed, context switches, threads
    /// spawned): pinned by the cross-substrate conformance test.
    pub engine: dsmpm2_sim::RunReport,
}

fn cell_addr(base: DsmAddr, size: usize, row: usize, col: usize) -> DsmAddr {
    base.add(((row * size + col) * 8) as u64)
}

/// Run the Jacobi kernel under `protocol_name`.
pub fn run_jacobi(config: &JacobiConfig, protocol_name: &str) -> JacobiResult {
    assert!(config.size >= 4 && config.size.is_multiple_of(config.nodes));
    // Each row occupies a whole number of pages only if size*8 >= 4096; for
    // small grids rows share pages, which is fine (more sharing, not less).
    let cluster_config = Pm2Config::new(config.nodes, config.network.clone())
        .with_dsm_tuning(config.tuning)
        .with_transport_tuning(config.transport);
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, cluster_config);
    let _ = register_all_protocols(&rt);
    let protocol = rt
        .protocol_by_name(protocol_name)
        .unwrap_or_else(|| panic!("unknown protocol {protocol_name}"));
    rt.set_default_protocol(protocol);

    let bytes = (config.size * config.size * 8) as u64;
    let grid_a = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block));
    let grid_b = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Block));
    let barrier = rt.create_barrier(config.nodes, None);
    let finish = Arc::new(Mutex::new(Vec::new()));
    let checksum = Arc::new(Mutex::new(0.0f64));
    let final_cells = Arc::new(Mutex::new(vec![0u64; config.size * config.size]));

    let rows_per_node = config.size / config.nodes;
    for node in 0..config.nodes {
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
            finish.lock().push(ctx.pm2.now());
        });
    }

    let mut engine = engine;
    let report = engine.run().expect("jacobi must not deadlock");
    let elapsed = finish.lock().iter().copied().max().unwrap_or(SimTime::ZERO);
    let checksum = *checksum.lock();
    let final_cells = std::mem::take(&mut *final_cells.lock());
    JacobiResult {
        elapsed,
        checksum,
        final_cells,
        stats: rt.stats().snapshot(),
        wire_messages: rt.cluster().network().stats().messages(),
        wire: rt.cluster().network().wire_stats(),
        engine: report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_runs_and_produces_identical_results_across_protocols() {
        let config = JacobiConfig::small(2);
        let reference = run_jacobi(&config, "li_hudak");
        assert!(reference.elapsed > SimTime::ZERO);
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
        assert!(r4.stats.page_transfers + r4.stats.diffs_sent > 0);
    }
}
