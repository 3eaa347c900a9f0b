//! The Travelling Salesman Problem workload of the paper's Figure 4.
//!
//! The program solves TSP by branch and bound for `n` randomly placed cities.
//! The only intensively shared variable is the current shortest path length,
//! which is always accessed under a DSM lock; one application thread runs per
//! node (the paper's setup). Work is distributed statically: the second-level
//! branches of the search tree are dealt round-robin to the threads.
//!
//! The interesting effect (the one Figure 4 shows) is *where the compute
//! happens*: under the page-based protocols every thread keeps computing on
//! its own node and only the bound page travels, while under
//! `migrate_thread` the first access to the shared bound drags every thread
//! to the node holding it, overloading that node's CPU.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dsmpm2_core::{DsmAddr, DsmAttr, DsmThreadCtx, HomePolicy, LockId, NodeId, Pm2Config};
use dsmpm2_pm2::Engine;
use dsmpm2_sim::SimDuration;

use crate::setup::{runtime, Latest, RunOutcome};

/// A TSP instance: a symmetric distance matrix over `n` cities.
#[derive(Clone, Debug)]
pub struct TspInstance {
    /// Number of cities.
    pub n: usize,
    /// Distance matrix (`dist[i][j]`, symmetric, zero diagonal).
    pub dist: Vec<Vec<u32>>,
}

impl TspInstance {
    /// A random instance with inter-city distances in `1..=100` (the paper
    /// uses "random inter-city distances").
    pub fn random(n: usize, seed: u64) -> Self {
        assert!(n >= 3, "TSP needs at least 3 cities");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dist = vec![vec![0u32; n]; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in (i + 1)..n {
                let d = rng.gen_range(1..=100u32);
                dist[i][j] = d;
                dist[j][i] = d;
            }
        }
        TspInstance { n, dist }
    }

    /// Length of the greedy nearest-neighbour tour (a cheap initial bound).
    pub fn greedy_bound(&self) -> u32 {
        let mut visited = vec![false; self.n];
        visited[0] = true;
        let mut current = 0usize;
        let mut total = 0u32;
        for _ in 1..self.n {
            let next = (0..self.n)
                .filter(|&c| !visited[c])
                .min_by_key(|&c| self.dist[current][c])
                .expect("unvisited city exists");
            total += self.dist[current][next];
            visited[next] = true;
            current = next;
        }
        total + self.dist[current][0]
    }

    /// Exact sequential branch-and-bound solution (the oracle used by tests).
    pub fn solve_sequential(&self) -> u32 {
        let mut best = self.greedy_bound();
        let mut visited = vec![false; self.n];
        visited[0] = true;
        let mut path = vec![0usize];
        self.dfs(&mut visited, &mut path, 0, &mut best, &mut 0);
        best
    }

    fn dfs(
        &self,
        visited: &mut [bool],
        path: &mut Vec<usize>,
        length: u32,
        best: &mut u32,
        expanded: &mut u64,
    ) {
        *expanded += 1;
        let current = *path.last().expect("path never empty");
        if path.len() == self.n {
            let tour = length + self.dist[current][0];
            if tour < *best {
                *best = tour;
            }
            return;
        }
        for next in 1..self.n {
            if visited[next] {
                continue;
            }
            let extended = length + self.dist[current][next];
            if extended >= *best {
                continue;
            }
            visited[next] = true;
            path.push(next);
            self.dfs(visited, path, extended, best, expanded);
            path.pop();
            visited[next] = false;
        }
    }
}

/// Configuration of one distributed TSP run.
#[derive(Clone, Debug)]
pub struct TspConfig {
    /// Number of cities (the paper uses 14).
    pub cities: usize,
    /// RNG seed for the instance.
    pub seed: u64,
    /// Virtual compute time charged per explored search-tree node, in µs
    /// (calibrated to a few µs on the 450 MHz PII nodes of the testbed).
    pub compute_per_node_us: f64,
    /// How many explored nodes are batched into one CPU reservation.
    pub compute_batch: u64,
    /// How often (in explored nodes) a thread re-reads the shared bound.
    pub bound_check_interval: u64,
    /// The cluster the search runs on; one application thread runs per node.
    pub cluster: Pm2Config,
}

impl TspConfig {
    /// The paper's configuration on a given node count: 14 cities,
    /// BIP/Myrinet, one thread per node.
    pub fn paper(nodes: usize) -> Self {
        TspConfig {
            seed: 42,
            compute_batch: 64,
            bound_check_interval: 16,
            ..TspConfig::small(nodes, 14)
        }
    }

    /// A smaller instance suitable for unit/integration tests.
    pub fn small(nodes: usize, cities: usize) -> Self {
        TspConfig {
            cities,
            seed: 7,
            compute_per_node_us: 2.0,
            compute_batch: 16,
            bound_check_interval: 8,
            cluster: Pm2Config::bip_myrinet(nodes),
        }
    }
}

/// Result of one distributed TSP run.
#[derive(Clone, Debug)]
pub struct TspResult {
    /// Best tour length found.
    pub best: u32,
    /// Total number of search-tree nodes expanded (all threads).
    pub expanded: u64,
    /// Thread migrations per application thread (only non-zero under
    /// `migrate_thread`).
    pub migrations: u64,
    /// Time, statistics and engine report of the run.
    pub run: RunOutcome,
}

struct SharedBound {
    addr: DsmAddr,
    lock: LockId,
}

fn read_bound(ctx: &mut DsmThreadCtx<'_, '_>, shared: &SharedBound) -> u32 {
    ctx.read::<u32>(shared.addr)
}

fn try_improve_bound(ctx: &mut DsmThreadCtx<'_, '_>, shared: &SharedBound, candidate: u32) {
    ctx.dsm_lock(shared.lock);
    let current = ctx.read::<u32>(shared.addr);
    if candidate < current {
        ctx.write::<u32>(shared.addr, candidate);
    }
    ctx.dsm_unlock(shared.lock);
}

struct WorkerSearch<'i> {
    instance: &'i TspInstance,
    shared: SharedBound,
    local_best: u32,
    expanded: u64,
    pending_compute: u64,
    config: TspConfig,
}

impl WorkerSearch<'_> {
    fn charge_expansion(&mut self, ctx: &mut DsmThreadCtx<'_, '_>) {
        self.expanded += 1;
        self.pending_compute += 1;
        if self.pending_compute >= self.config.compute_batch {
            let us = self.config.compute_per_node_us * self.pending_compute as f64;
            ctx.pm2.compute_shared(SimDuration::from_micros_f64(us));
            self.pending_compute = 0;
        }
    }

    fn flush_compute(&mut self, ctx: &mut DsmThreadCtx<'_, '_>) {
        if self.pending_compute > 0 {
            let us = self.config.compute_per_node_us * self.pending_compute as f64;
            ctx.pm2.compute_shared(SimDuration::from_micros_f64(us));
            self.pending_compute = 0;
        }
    }

    fn dfs(
        &mut self,
        ctx: &mut DsmThreadCtx<'_, '_>,
        visited: &mut [bool],
        path: &mut Vec<usize>,
        length: u32,
    ) {
        self.charge_expansion(ctx);
        // Periodically refresh the bound from shared memory (a read fault if
        // our copy was invalidated, a cheap local read otherwise).
        if self
            .expanded
            .is_multiple_of(self.config.bound_check_interval)
        {
            let global = read_bound(ctx, &self.shared);
            if global < self.local_best {
                self.local_best = global;
            }
        }
        let n = self.instance.n;
        let current = *path.last().expect("path never empty");
        if path.len() == n {
            let tour = length + self.instance.dist[current][0];
            if tour < self.local_best {
                self.local_best = tour;
                try_improve_bound(ctx, &self.shared, tour);
            }
            return;
        }
        for next in 1..n {
            if visited[next] {
                continue;
            }
            let extended = length + self.instance.dist[current][next];
            if extended >= self.local_best {
                continue;
            }
            visited[next] = true;
            path.push(next);
            self.dfs(ctx, visited, path, extended);
            path.pop();
            visited[next] = false;
        }
    }
}

/// Run the distributed TSP under `protocol_name` on a fresh cluster, so
/// that runs are independent, and return the result.
pub fn run_tsp(config: &TspConfig, protocol_name: &str) -> TspResult {
    let nodes = config.cluster.num_nodes;
    let instance = TspInstance::random(config.cities, config.seed);
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);

    // The shared bound lives on node 0, like the globally shared variable of
    // the paper's program.
    let bound_addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let bound_lock = rt.create_lock(Some(NodeId(0)));
    let initial_bound = instance.greedy_bound();

    // Pre-compute the static work distribution: second-level prefixes
    // (0, a, b) dealt round-robin across the worker threads.
    let mut prefixes = Vec::new();
    for a in 1..config.cities {
        for b in 1..config.cities {
            if a != b {
                prefixes.push((a, b));
            }
        }
    }

    let finish = Latest::default();
    let expanded_total = Arc::new(Mutex::new(0u64));
    let final_bounds = Arc::new(Mutex::new(Vec::new()));
    let done = rt.create_barrier(nodes, None);
    let instance = Arc::new(instance);

    for node in 0..nodes {
        let instance = Arc::clone(&instance);
        let my_prefixes: Vec<(usize, usize)> = prefixes
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % nodes == node)
            .map(|(_, p)| p)
            .collect();
        let finish = finish.clone();
        let expanded_total = expanded_total.clone();
        let final_bounds = final_bounds.clone();
        let config = config.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("tsp-worker-{node}"), move |ctx| {
            // Initialise the shared bound exactly once (node 0's thread).
            if ctx.node() == NodeId(0) {
                ctx.dsm_lock(bound_lock);
                let current = ctx.read::<u32>(bound_addr);
                if current == 0 || initial_bound < current {
                    ctx.write::<u32>(bound_addr, initial_bound);
                }
                ctx.dsm_unlock(bound_lock);
            }
            ctx.dsm_barrier(done);

            let mut search = WorkerSearch {
                instance: &instance,
                shared: SharedBound {
                    addr: bound_addr,
                    lock: bound_lock,
                },
                local_best: initial_bound,
                expanded: 0,
                pending_compute: 0,
                config: config.clone(),
            };
            let n = instance.n;
            for (a, b) in my_prefixes {
                let mut visited = vec![false; n];
                visited[0] = true;
                visited[a] = true;
                visited[b] = true;
                let mut path = vec![0, a, b];
                let length = instance.dist[0][a] + instance.dist[a][b];
                let global = read_bound(ctx, &search.shared);
                if global < search.local_best {
                    search.local_best = global;
                }
                if length < search.local_best {
                    search.dfs(ctx, &mut visited, &mut path, length);
                }
            }
            search.flush_compute(ctx);
            ctx.dsm_barrier(done);
            finish.record(ctx.pm2.now());
            *expanded_total.lock() += search.expanded;
            // Every worker reads the agreed-upon final bound.
            ctx.dsm_lock(bound_lock);
            final_bounds.lock().push(ctx.read::<u32>(bound_addr));
            ctx.dsm_unlock(bound_lock);
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let best = final_bounds
        .lock()
        .iter()
        .copied()
        .min()
        .expect("at least one worker reports the final bound");
    let migrations = rt
        .cluster()
        .app_threads()
        .iter()
        .map(|t| t.migrations())
        .sum();
    let expanded = *expanded_total.lock();
    TspResult {
        best,
        expanded,
        migrations,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_instance_is_symmetric_with_zero_diagonal() {
        let inst = TspInstance::random(8, 3);
        for i in 0..8 {
            assert_eq!(inst.dist[i][i], 0);
            for j in 0..8 {
                assert_eq!(inst.dist[i][j], inst.dist[j][i]);
            }
        }
    }

    #[test]
    fn greedy_bound_is_a_valid_upper_bound() {
        let inst = TspInstance::random(9, 11);
        let exact = inst.solve_sequential();
        assert!(inst.greedy_bound() >= exact);
    }

    #[test]
    fn distributed_tsp_matches_sequential_oracle_for_every_protocol() {
        let config = TspConfig::small(2, 8);
        let oracle = TspInstance::random(config.cities, config.seed).solve_sequential();
        for proto in ["li_hudak", "migrate_thread", "erc_sw", "hbrc_mw"] {
            let result = run_tsp(&config, proto);
            assert_eq!(result.best, oracle, "protocol {proto}");
            assert!(result.expanded > 0);
            assert!(result.run.elapsed > dsmpm2_sim::SimTime::ZERO);
        }
    }

    #[test]
    fn migrate_thread_drags_every_worker_to_the_bound_holder() {
        let config = TspConfig::small(3, 8);
        let page_based = run_tsp(&config, "li_hudak");
        let migrating = run_tsp(&config, "migrate_thread");
        assert_eq!(page_based.migrations, 0);
        assert!(
            migrating.migrations >= 2,
            "threads must migrate to the data"
        );
        assert_eq!(migrating.run.stats.page_transfers, 0);
        // Figure 4's shape: the migration protocol is slower because all the
        // compute piles up on one node.
        assert!(
            migrating.run.elapsed > page_based.run.elapsed,
            "migrate_thread {} should be slower than li_hudak {}",
            migrating.run.elapsed,
            page_based.run.elapsed
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]
        /// The distributed solver agrees with the sequential oracle on random
        /// small instances (li_hudak, 2 nodes).
        #[test]
        fn prop_distributed_matches_oracle(seed in 0u64..1000) {
            let mut config = TspConfig::small(2, 7);
            config.seed = seed;
            let oracle = TspInstance::random(7, seed).solve_sequential();
            let result = run_tsp(&config, "li_hudak");
            proptest::prop_assert_eq!(result.best, oracle);
        }
    }
}
