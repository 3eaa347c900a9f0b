//! Dense LU factorisation without pivoting (the SPLASH-2 `lu` kernel shape).
//!
//! The matrix is factored in place: at step `k` every node updates its own
//! rows below `k` using row `k`, which is owned by one node and *read by all
//! the others* — a broadcast-like sharing pattern with a barrier per step.
//! The input is made strictly diagonally dominant so the factorisation is
//! numerically stable without pivoting, which keeps the kernel faithful to
//! the SPLASH-2 version (which also factors without pivoting).

use std::sync::Arc;

use dsmpm2_core::{DsmAddr, DsmAttr, HomePolicy, NodeId, Pm2Config};
use dsmpm2_pm2::Engine;
use dsmpm2_sim::{SimDuration, SliceCell};

use crate::setup::{runtime, Latest, RunOutcome};

/// Configuration of an LU factorisation run.
#[derive(Clone, Debug)]
pub struct LuConfig {
    /// The matrix is `n x n` `f64`.
    pub n: usize,
    /// Virtual compute time charged per updated element, in µs.
    pub compute_per_update_us: f64,
    /// The cluster the kernel runs on, one thread per node, rows dealt
    /// round-robin.
    pub cluster: Pm2Config,
}

impl LuConfig {
    /// A small configuration usable in tests.
    pub fn small(nodes: usize) -> Self {
        LuConfig {
            n: 16,
            compute_per_update_us: 0.02,
            cluster: Pm2Config::bip_myrinet(nodes),
        }
    }
}

/// Result of an LU run.
#[derive(Clone, Debug)]
pub struct LuResult {
    /// Sum of the entries of the packed LU factors.
    pub checksum: f64,
    /// Time, statistics and engine report of the run.
    pub run: RunOutcome,
}

/// Deterministic, strictly diagonally dominant input matrix.
pub fn input_entry(n: usize, row: usize, col: usize) -> f64 {
    if row == col {
        (2 * n) as f64 + 1.0
    } else {
        (((row * 31 + col * 17) % 11) as f64 - 5.0) / 3.0
    }
}

/// Sequential oracle: the checksum of the packed LU factors computed without
/// any DSM.
pub fn sequential_checksum(n: usize) -> f64 {
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = input_entry(n, i, j);
        }
    }
    for k in 0..n {
        for i in (k + 1)..n {
            a[i * n + k] /= a[k * n + k];
            for j in (k + 1)..n {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
        }
    }
    a.iter().sum()
}

fn cell(base: DsmAddr, n: usize, row: usize, col: usize) -> DsmAddr {
    base.add(((row * n + col) * 8) as u64)
}

/// Which node owns (and updates) `row` under the round-robin row
/// distribution.
pub fn row_owner(row: usize, nodes: usize) -> usize {
    row % nodes
}

/// Run the LU factorisation under `protocol_name`.
pub fn run_lu(config: &LuConfig, protocol_name: &str) -> LuResult {
    let nodes = config.cluster.num_nodes;
    assert!(config.n >= nodes);
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);

    let bytes = (config.n * config.n * 8) as u64;
    let a = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::RoundRobin));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Latest::default();
    let checksum = Arc::new(SliceCell::new(0.0f64));

    for node in 0..nodes {
        let finish = finish.clone();
        let checksum = checksum.clone();
        let config = config.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("lu-{node}"), move |ctx| {
            let n = config.n;
            // Initialise the rows this node owns.
            for row in (0..n).filter(|&r| row_owner(r, nodes) == node) {
                for col in 0..n {
                    ctx.write::<f64>(cell(a, n, row, col), input_entry(n, row, col));
                }
            }
            ctx.dsm_barrier(barrier);

            for k in 0..n {
                // Read the pivot row (owned by one node, read by all).
                let pivot = ctx.read::<f64>(cell(a, n, k, k));
                let mut updates = 0u64;
                for row in ((k + 1)..n).filter(|&r| row_owner(r, nodes) == node) {
                    let factor = ctx.read::<f64>(cell(a, n, row, k)) / pivot;
                    ctx.write::<f64>(cell(a, n, row, k), factor);
                    for col in (k + 1)..n {
                        let above = ctx.read::<f64>(cell(a, n, k, col));
                        let cur = ctx.read::<f64>(cell(a, n, row, col));
                        ctx.write::<f64>(cell(a, n, row, col), cur - factor * above);
                        updates += 1;
                    }
                }
                ctx.compute(SimDuration::from_micros_f64(
                    config.compute_per_update_us * updates as f64,
                ));
                ctx.dsm_barrier(barrier);
            }

            let mut local = 0.0;
            for row in (0..n).filter(|&r| row_owner(r, nodes) == node) {
                for col in 0..n {
                    local += ctx.read::<f64>(cell(a, n, row, col));
                }
            }
            *checksum.borrow() += local;
            finish.record(ctx.pm2.now());
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let checksum = *checksum.borrow();
    LuResult { checksum, run }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_concurrent_write_faults_on_shared_pages_complete() {
        // Regression: with 3+ nodes and a matrix spanning multiple pages,
        // rows interleave across nodes within each page and every step
        // produces concurrent write faults on the same pages. The original
        // request routing parked requests at arbitrary fetching nodes and
        // let late invalidations rewind ownership hints, which deadlocked
        // the single-writer protocols (li_hudak, li_hudak_fixed, erc_sw)
        // here. Ownership acquisition is now serialized by the page's home
        // manager.
        let config = LuConfig {
            n: 24,
            compute_per_update_us: 0.02,
            cluster: Pm2Config::bip_myrinet(4),
        };
        let oracle = sequential_checksum(config.n);
        for proto in ["li_hudak", "li_hudak_fixed", "erc_sw"] {
            let result = run_lu(&config, proto);
            assert!(
                (result.checksum - oracle).abs() < 1e-6,
                "{proto}: {} != oracle {}",
                result.checksum,
                oracle
            );
        }
    }

    #[test]
    fn oracle_factors_a_diagonally_dominant_matrix() {
        let n = 8;
        // The factorisation must leave finite values everywhere.
        let sum = sequential_checksum(n);
        assert!(sum.is_finite());
        // Reconstruct A from L and U and compare against the input.
        let mut lu = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                lu[i * n + j] = input_entry(n, i, j);
            }
        }
        for k in 0..n {
            for i in (k + 1)..n {
                lu[i * n + k] /= lu[k * n + k];
                for j in (k + 1)..n {
                    lu[i * n + j] -= lu[i * n + k] * lu[k * n + j];
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i {
                        1.0
                    } else if k < i {
                        lu[i * n + k]
                    } else {
                        0.0
                    };
                    let u = if k <= j { lu[k * n + j] } else { 0.0 };
                    acc += l * u;
                }
                assert!(
                    (acc - input_entry(n, i, j)).abs() < 1e-9,
                    "L*U must reconstruct A at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn lu_matches_the_sequential_oracle_across_protocols() {
        let config = LuConfig::small(2);
        let oracle = sequential_checksum(config.n);
        for proto in ["li_hudak", "li_hudak_fixed", "hbrc_mw"] {
            let result = run_lu(&config, proto);
            assert!(
                (result.checksum - oracle).abs() < 1e-6,
                "{proto}: {} != oracle {}",
                result.checksum,
                oracle
            );
        }
    }

    #[test]
    fn row_ownership_is_round_robin() {
        assert_eq!(row_owner(0, 4), 0);
        assert_eq!(row_owner(5, 4), 1);
        assert_eq!(row_owner(7, 2), 1);
    }
}
