//! False-sharing microbenchmark: per-node counters packed into shared pages.
//!
//! Each node owns `slots_per_node` 8-byte counters, laid out `stride` bytes
//! apart so that the counters of *different* nodes share pages but never
//! share a `stride`-aligned line. Every iteration each node increments its
//! own counters, then all nodes meet at a barrier. At the default whole-page
//! coherence granularity the writes of different nodes collide on the page
//! and the coherence unit ping-pongs between them (false sharing); at a line
//! granularity of `stride` bytes or less the writes touch disjoint units and
//! no coherence traffic is exchanged after warm-up. The wire-byte and
//! virtual-time gap between the two runs is exactly the cost of false
//! sharing, which makes this the granularity ablation's workload.

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_core::{DsmAddr, DsmAttr, HomePolicy, NodeId, Pm2Config};
use dsmpm2_pm2::Engine;

use crate::setup::{runtime, Latest, RunOutcome};

/// Configuration of a false-sharing run.
#[derive(Clone, Debug)]
pub struct FalseSharingConfig {
    /// 8-byte counters owned by each node.
    pub slots_per_node: usize,
    /// Byte distance between consecutive counters (the "line" the layout
    /// avoids sharing). Must be a multiple of 8.
    pub stride: usize,
    /// Number of increment rounds, with a barrier after each.
    pub iterations: usize,
    /// The cluster the kernel runs on, one thread per node; its granularity
    /// is what the ablation varies.
    pub cluster: Pm2Config,
}

impl FalseSharingConfig {
    /// A small configuration usable in tests: `nodes` nodes, 4 counters
    /// each, 64-byte stride, 8 rounds — all counters fit in one page, so
    /// every write round exhibits maximal false sharing at page granularity.
    pub fn small(nodes: usize) -> Self {
        FalseSharingConfig {
            slots_per_node: 4,
            stride: 64,
            iterations: 8,
            cluster: Pm2Config::bip_myrinet(nodes),
        }
    }
}

/// Result of a false-sharing run.
#[derive(Clone, Debug)]
pub struct FalseSharingResult {
    /// Final value of every counter, in slot order — the exact final shared
    /// memory, compared bit-for-bit by the conformance matrix.
    pub final_slots: Vec<u64>,
    /// Sum of the final counters.
    pub checksum: u64,
    /// Time, statistics and engine report of the run.
    pub run: RunOutcome,
}

fn slot_addr(base: DsmAddr, stride: usize, slot: usize) -> DsmAddr {
    base.add((slot * stride) as u64)
}

/// Run the false-sharing kernel under `protocol_name`.
pub fn run_false_sharing(config: &FalseSharingConfig, protocol_name: &str) -> FalseSharingResult {
    let nodes = config.cluster.num_nodes;
    assert!(nodes >= 1 && config.slots_per_node >= 1);
    assert!(
        config.stride >= 8 && config.stride.is_multiple_of(8),
        "stride must be a multiple of 8 bytes"
    );
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);

    let slots = nodes * config.slots_per_node;
    let bytes = (slots * config.stride) as u64;
    // A single fixed home concentrates the pages: every node's counters
    // share pages with other nodes' counters whenever they fit.
    let base = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let barrier = rt.create_barrier(nodes, None);
    let finish = Latest::default();
    let final_slots = Arc::new(Mutex::new(vec![0u64; slots]));

    for node in 0..nodes {
        let finish = finish.clone();
        let final_slots = final_slots.clone();
        let config = config.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("false-sharing-{node}"), move |ctx| {
            let mine = node * config.slots_per_node..(node + 1) * config.slots_per_node;
            // Zero own counters, then increment them every round. The
            // counters of different nodes share pages but never share a
            // stride-aligned line.
            for slot in mine.clone() {
                ctx.write::<u64>(slot_addr(base, config.stride, slot), 0);
            }
            ctx.dsm_barrier(barrier);
            for _ in 0..config.iterations {
                for slot in mine.clone() {
                    let addr = slot_addr(base, config.stride, slot);
                    let v = ctx.read::<u64>(addr);
                    ctx.write::<u64>(addr, v + 1);
                }
                ctx.dsm_barrier(barrier);
            }

            // Each node reads back its own counters and publishes them to
            // the host array outside any DSM access.
            let mut block = Vec::new();
            for slot in mine.clone() {
                block.push(ctx.read::<u64>(slot_addr(base, config.stride, slot)));
            }
            final_slots.lock()[mine].copy_from_slice(&block);
            finish.record(ctx.pm2.now());
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let final_slots = std::mem::take(&mut *final_slots.lock());
    let checksum = final_slots.iter().sum();
    FalseSharingResult {
        final_slots,
        checksum,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_exact_across_protocols() {
        let config = FalseSharingConfig::small(2);
        for proto in ["li_hudak", "li_hudak_fixed", "erc_sw", "hbrc_mw"] {
            let r = run_false_sharing(&config, proto);
            assert!(
                r.final_slots.iter().all(|&v| v == 8),
                "{proto}: {:?}",
                r.final_slots
            );
        }
    }

    #[test]
    fn line_granularity_eliminates_false_sharing_traffic() {
        let page = run_false_sharing(&FalseSharingConfig::small(2), "li_hudak_fixed");
        let mut line_cfg = FalseSharingConfig::small(2);
        line_cfg.cluster.granularity = Some(64);
        let line = run_false_sharing(&line_cfg, "li_hudak_fixed");
        assert_eq!(page.final_slots, line.final_slots);
        let (line, page) = (line.run, page.run);
        assert!(
            line.wire.envelope_bytes * 2 <= page.wire.envelope_bytes,
            "line {} vs page {} bytes",
            line.wire.envelope_bytes,
            page.wire.envelope_bytes
        );
        assert!(line.elapsed < page.elapsed);
    }
}
