//! Parallel radix sort (the SPLASH-2 `radix` kernel shape): histogram,
//! prefix-sum, scatter — a workload whose scatter phase writes all over the
//! destination array and therefore stresses exactly the write-sharing
//! behaviour that distinguishes the DSM protocols.
//!
//! Keys are dealt block-wise to the nodes. Each pass over one digit has three
//! phases separated by barriers: (1) every node histograms its own block into
//! its own slice of a shared count array, (2) every node reads *all* the
//! histograms and computes, deterministically, the global starting offset of
//! each of its (digit, node) buckets, (3) every node scatters its keys into
//! the shared destination array. The scatter targets are disjoint, so the
//! sort is correct under any of the consistency protocols.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dsmpm2_core::{DsmAddr, DsmAttr, HomePolicy, NodeId, Pm2Config};
use dsmpm2_pm2::Engine;
use dsmpm2_sim::{SimDuration, SliceCell};

use crate::setup::{runtime, Latest, RunOutcome};

/// Number of buckets per radix pass (one byte per pass).
pub const RADIX: usize = 256;

/// Configuration of a radix-sort run.
#[derive(Clone, Debug)]
pub struct RadixConfig {
    /// Number of keys (must be a multiple of the node count).
    pub keys: usize,
    /// Largest key value generated (exclusive). Determines the number of
    /// 8-bit passes.
    pub max_key: u64,
    /// RNG seed for the input keys.
    pub seed: u64,
    /// Virtual compute time charged per key per pass, in µs.
    pub compute_per_key_us: f64,
    /// The cluster the kernel runs on, one thread per node.
    pub cluster: Pm2Config,
}

impl RadixConfig {
    /// A small configuration usable in tests.
    pub fn small(nodes: usize) -> Self {
        RadixConfig {
            keys: 128,
            max_key: 1 << 16,
            seed: 7,
            compute_per_key_us: 0.05,
            cluster: Pm2Config::bip_myrinet(nodes),
        }
    }

    /// Number of 8-bit passes needed to cover `max_key`.
    pub fn passes(&self) -> usize {
        let bits = 64 - (self.max_key - 1).leading_zeros() as usize;
        bits.div_ceil(8).max(1)
    }
}

/// Result of a radix-sort run.
#[derive(Clone, Debug)]
pub struct RadixResult {
    /// The sorted keys, as read back from shared memory by the worker nodes.
    pub sorted: Vec<u64>,
    /// Time, statistics and engine report of the run.
    pub run: RunOutcome,
}

/// The deterministic input keys for `config`.
pub fn input_keys(config: &RadixConfig) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    (0..config.keys)
        .map(|_| rng.gen_range(0..config.max_key))
        .collect()
}

fn key_addr(base: DsmAddr, index: usize) -> DsmAddr {
    base.add((index * 8) as u64)
}

fn hist_addr(base: DsmAddr, node: usize, bucket: usize) -> DsmAddr {
    base.add(((node * RADIX + bucket) * 8) as u64)
}

/// Run the parallel radix sort under `protocol_name`.
pub fn run_radix(config: &RadixConfig, protocol_name: &str) -> RadixResult {
    let nodes = config.cluster.num_nodes;
    assert!(config.keys.is_multiple_of(nodes) && config.keys > 0);
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);

    let key_bytes = (config.keys * 8) as u64;
    let src = rt.dsm_malloc(key_bytes, DsmAttr::default().home(HomePolicy::Block));
    let dst = rt.dsm_malloc(key_bytes, DsmAttr::default().home(HomePolicy::Block));
    let hist = rt.dsm_malloc(
        (nodes * RADIX * 8) as u64,
        DsmAttr::default().home(HomePolicy::Block),
    );
    let barrier = rt.create_barrier(nodes, None);
    let finish = Latest::default();
    let collected = Arc::new(SliceCell::new(vec![0u64; config.keys]));

    let keys_per_node = config.keys / nodes;
    let input = input_keys(config);
    for node in 0..nodes {
        let finish = finish.clone();
        let collected = collected.clone();
        let config = config.clone();
        let input = input.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("radix-{node}"), move |ctx| {
            let first = node * keys_per_node;
            let last = first + keys_per_node;
            // Deal the input keys into the shared source array.
            for (i, &key) in input.iter().enumerate().take(last).skip(first) {
                ctx.write::<u64>(key_addr(src, i), key);
            }
            ctx.dsm_barrier(barrier);

            let (mut from, mut to) = (src, dst);
            for pass in 0..config.passes() {
                let shift = (pass * 8) as u32;
                // Phase 1: histogram the local block into our slice.
                let mut local_hist = vec![0u64; RADIX];
                for i in first..last {
                    let key = ctx.read::<u64>(key_addr(from, i));
                    local_hist[((key >> shift) as usize) & (RADIX - 1)] += 1;
                }
                for (bucket, &count) in local_hist.iter().enumerate() {
                    ctx.write::<u64>(hist_addr(hist, node, bucket), count);
                }
                ctx.compute(SimDuration::from_micros_f64(
                    config.compute_per_key_us * keys_per_node as f64,
                ));
                ctx.dsm_barrier(barrier);

                // Phase 2: read every node's histogram and compute the global
                // starting offset of each of our buckets (bucket-major, then
                // node-major — the same deterministic rule on every node).
                let mut all = vec![0u64; nodes * RADIX];
                for n in 0..nodes {
                    for bucket in 0..RADIX {
                        all[n * RADIX + bucket] = ctx.read::<u64>(hist_addr(hist, n, bucket));
                    }
                }
                let mut offsets = vec![0u64; RADIX];
                let mut running = 0u64;
                for bucket in 0..RADIX {
                    for n in 0..nodes {
                        if n == node {
                            offsets[bucket] = running;
                        }
                        running += all[n * RADIX + bucket];
                    }
                }
                ctx.dsm_barrier(barrier);

                // Phase 3: scatter our keys to their destination slots.
                for i in first..last {
                    let key = ctx.read::<u64>(key_addr(from, i));
                    let bucket = ((key >> shift) as usize) & (RADIX - 1);
                    let slot = offsets[bucket];
                    offsets[bucket] += 1;
                    ctx.write::<u64>(key_addr(to, slot as usize), key);
                }
                ctx.compute(SimDuration::from_micros_f64(
                    config.compute_per_key_us * keys_per_node as f64,
                ));
                ctx.dsm_barrier(barrier);
                std::mem::swap(&mut from, &mut to);
            }

            // Collect the final (sorted) block this node is responsible for.
            for i in first..last {
                let key = ctx.read::<u64>(key_addr(from, i));
                collected.borrow()[i] = key;
            }
            finish.record(ctx.pm2.now());
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let sorted = collected.borrow().clone();
    RadixResult { sorted, run }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_covers_the_key_range() {
        let mut config = RadixConfig::small(2);
        assert_eq!(config.passes(), 2);
        config.max_key = 1 << 8;
        assert_eq!(config.passes(), 1);
        config.max_key = 1 << 24;
        assert_eq!(config.passes(), 3);
    }

    #[test]
    fn input_keys_are_deterministic_per_seed() {
        let config = RadixConfig::small(2);
        assert_eq!(input_keys(&config), input_keys(&config));
        let other = RadixConfig {
            seed: 8,
            ..config.clone()
        };
        assert_ne!(input_keys(&config), input_keys(&other));
    }

    #[test]
    fn radix_sorts_correctly_under_sequential_consistency() {
        let config = RadixConfig::small(2);
        let mut oracle = input_keys(&config);
        oracle.sort_unstable();
        let result = run_radix(&config, "li_hudak");
        assert_eq!(result.sorted, oracle);
        assert!(result.run.elapsed > dsmpm2_sim::SimTime::ZERO);
    }

    #[test]
    fn radix_sorts_correctly_under_release_consistency() {
        let config = RadixConfig::small(2);
        let mut oracle = input_keys(&config);
        oracle.sort_unstable();
        for proto in ["hbrc_mw", "hlrc_notices"] {
            let result = run_radix(&config, proto);
            assert_eq!(result.sorted, oracle, "{proto} produced an unsorted array");
        }
    }
}
