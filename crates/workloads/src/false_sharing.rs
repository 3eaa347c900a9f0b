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
//!
//! The optional *read-mostly* mode replaces the write phase: node 0
//! initialises every counter once, and the remaining nodes repeatedly read
//! them all. Remote read faults in this mode are uncontended — the home's
//! copy is clean and nothing is in flight — which is the regime the
//! one-sided `FetchRead` fast path targets.

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_core::{
    DsmAddr, DsmAttr, DsmRuntime, DsmStatsSnapshot, DsmTuning, HomePolicy, NodeId, Pm2Config,
    TransportTuning, WireStatsSnapshot,
};
use dsmpm2_madeleine::NetworkModel;
use dsmpm2_pm2::Engine;
use dsmpm2_protocols::register_all_protocols;
use dsmpm2_sim::SimTime;

/// Configuration of a false-sharing run.
#[derive(Clone, Debug)]
pub struct FalseSharingConfig {
    /// Number of cluster nodes (one thread per node).
    pub nodes: usize,
    /// 8-byte counters owned by each node.
    pub slots_per_node: usize,
    /// Byte distance between consecutive counters (the "line" the layout
    /// avoids sharing). Must be a multiple of 8.
    pub stride: usize,
    /// Number of increment (or read) rounds, with a barrier after each.
    pub iterations: usize,
    /// Read-mostly mode: node 0 writes once, everyone else only reads.
    pub read_mostly: bool,
    /// Network profile.
    pub network: NetworkModel,
    /// DSM tuning knobs (coherence granularity, one-sided reads).
    pub tuning: DsmTuning,
    /// Transport-layer tuning knobs.
    pub transport: TransportTuning,
}

impl FalseSharingConfig {
    /// A small configuration usable in tests: `nodes` nodes, 4 counters
    /// each, 64-byte stride, 8 rounds — all counters fit in one page, so
    /// every write round exhibits maximal false sharing at page granularity.
    pub fn small(nodes: usize) -> Self {
        FalseSharingConfig {
            nodes,
            slots_per_node: 4,
            stride: 64,
            iterations: 8,
            read_mostly: false,
            network: dsmpm2_madeleine::profiles::bip_myrinet(),
            tuning: DsmTuning::default(),
            transport: TransportTuning::default(),
        }
    }

    /// The same layout in read-mostly mode (the one-sided read regime).
    pub fn read_mostly(nodes: usize) -> Self {
        FalseSharingConfig {
            read_mostly: true,
            ..FalseSharingConfig::small(nodes)
        }
    }
}

/// Result of a false-sharing run.
#[derive(Clone, Debug)]
pub struct FalseSharingResult {
    /// Virtual completion time.
    pub elapsed: SimTime,
    /// Final value of every counter, in slot order — the exact final shared
    /// memory, compared bit-for-bit by the conformance matrix.
    pub final_slots: Vec<u64>,
    /// Sum of the final counters.
    pub checksum: u64,
    /// DSM statistics.
    pub stats: DsmStatsSnapshot,
    /// Total messages put on the wire (a batch of coherence messages is one).
    pub wire_messages: u64,
    /// Wire-level transport statistics, including the envelope/message byte
    /// accounting and the delivery-interceptor counters.
    pub wire: WireStatsSnapshot,
    /// Engine-level run report.
    pub engine: dsmpm2_sim::RunReport,
}

fn slot_addr(base: DsmAddr, stride: usize, slot: usize) -> DsmAddr {
    base.add((slot * stride) as u64)
}

/// Run the false-sharing kernel under `protocol_name`.
pub fn run_false_sharing(config: &FalseSharingConfig, protocol_name: &str) -> FalseSharingResult {
    assert!(config.nodes >= 1 && config.slots_per_node >= 1);
    assert!(
        config.stride >= 8 && config.stride.is_multiple_of(8),
        "stride must be a multiple of 8 bytes"
    );
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

    let slots = config.nodes * config.slots_per_node;
    let bytes = (slots * config.stride) as u64;
    // A single fixed home concentrates the pages: every node's counters
    // share pages with other nodes' counters whenever they fit.
    let base = rt.dsm_malloc(bytes, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let barrier = rt.create_barrier(config.nodes, None);
    let finish = Arc::new(Mutex::new(Vec::new()));
    let final_slots = Arc::new(Mutex::new(vec![0u64; slots]));

    for node in 0..config.nodes {
        let finish = finish.clone();
        let final_slots = final_slots.clone();
        let config = config.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("false-sharing-{node}"), move |ctx| {
            let mine = node * config.slots_per_node..(node + 1) * config.slots_per_node;
            if config.read_mostly {
                // Node 0 publishes every counter once; the others only read.
                if node == 0 {
                    for slot in 0..slots {
                        ctx.write::<u64>(slot_addr(base, config.stride, slot), (slot + 1) as u64);
                    }
                }
                ctx.dsm_barrier(barrier);
                if node != 0 {
                    for _ in 0..config.iterations {
                        let mut sum = 0u64;
                        for slot in 0..slots {
                            sum += ctx.read::<u64>(slot_addr(base, config.stride, slot));
                        }
                        let expect = (slots * (slots + 1) / 2) as u64;
                        assert_eq!(sum, expect, "reader {node} saw a stale counter");
                    }
                }
                ctx.dsm_barrier(barrier);
            } else {
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
            }

            // Each node reads back the counters it owns (its own in write
            // mode; node 0's published values are read back by node 0) and
            // publishes them to the host array outside any DSM access.
            let read_back = if config.read_mostly {
                if node == 0 {
                    0..slots
                } else {
                    0..0
                }
            } else {
                mine
            };
            let mut block = Vec::new();
            for slot in read_back.clone() {
                block.push(ctx.read::<u64>(slot_addr(base, config.stride, slot)));
            }
            final_slots.lock()[read_back].copy_from_slice(&block);
            finish.lock().push(ctx.pm2.now());
        });
    }

    let mut engine = engine;
    let report = engine.run().expect("false sharing must not deadlock");
    let elapsed = finish.lock().iter().copied().max().unwrap_or(SimTime::ZERO);
    let final_slots = std::mem::take(&mut *final_slots.lock());
    let checksum = final_slots.iter().sum();
    FalseSharingResult {
        elapsed,
        final_slots,
        checksum,
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
        line_cfg.tuning = line_cfg.tuning.with_granularity(64);
        let line = run_false_sharing(&line_cfg, "li_hudak_fixed");
        assert_eq!(page.final_slots, line.final_slots);
        assert!(
            line.wire.envelope_bytes * 2 <= page.wire.envelope_bytes,
            "line {} vs page {} bytes",
            line.wire.envelope_bytes,
            page.wire.envelope_bytes
        );
        assert!(line.elapsed < page.elapsed);
    }

    #[test]
    fn read_mostly_mode_observes_published_values() {
        let config = FalseSharingConfig::read_mostly(3);
        let r = run_false_sharing(&config, "li_hudak_fixed");
        let slots = config.nodes * config.slots_per_node;
        let expect: Vec<u64> = (1..=slots as u64).collect();
        assert_eq!(r.final_slots, expect);
    }

    #[test]
    fn one_sided_reads_serve_the_read_mostly_regime_without_handler_wakes() {
        let mut config = FalseSharingConfig::read_mostly(3);
        config.tuning = config.tuning.with_one_sided_reads();
        let r = run_false_sharing(&config, "li_hudak_fixed");
        let slots = config.nodes * config.slots_per_node;
        let expect: Vec<u64> = (1..=slots as u64).collect();
        assert_eq!(r.final_slots, expect);
        // Every uncontended remote read fault went one-sided: the home's
        // interceptor consumed the fetch at arrival instant, and the
        // fallback handler never ran.
        assert!(r.stats.one_sided_serves > 0);
        assert_eq!(r.stats.fetch_handler_wakes, 0, "{:?}", r.stats);
        assert!(
            r.stats.one_sided_serves * 10 >= r.stats.read_faults * 9,
            "one-sided {} of {} read faults",
            r.stats.one_sided_serves,
            r.stats.read_faults
        );
        assert_eq!(r.wire.hook_consumed, r.stats.one_sided_serves);
    }
}
