//! Property test: random fault/release interleavings preserve page contents.
//!
//! Each sampled case drives a 3-node cluster through a random sequence of
//! DSM operations — unsynchronized reads (faults that replicate or migrate
//! pages) and lock-protected writes (release-consistency episodes) — over
//! two shared pages, under a randomly chosen protocol and coherence
//! granularity (whole pages or 1 kB lines, one node slot per line). Every
//! node writes only its
//! own byte range, so the expected final contents are computable from the op
//! list alone: for each (page, node) slot, the last value that node wrote
//! there in program order. Every fault is detected through
//! `PageTable::resolve`; after the run its view of every slot is checked
//! against the entry it summarises. A failing case shrinks to a minimal op
//! list thanks to the shim's halving-based shrinker.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use dsm_pm2::core::{line_of_offset, DsmAttr, DsmRuntime, HomePolicy, Unit};
use dsm_pm2::prelude::*;

const NODES: usize = 3;
const PAGES: usize = 2;
const PAGE_BYTES: u64 = 4096;

const PROTOCOLS: [&str; 4] = ["li_hudak", "li_hudak_fixed", "erc_sw", "hbrc_mw"];
/// Coherence granularities (`None` = whole pages). Node slots are
/// `SLOT_STRIDE` apart, so at 1 kB lines every node's slot has a line of its
/// own.
const GRANULARITY_CHOICES: [Option<usize>; 2] = [None, Some(1024)];
const SLOT_STRIDE: u64 = 1024;

/// One sampled operation: (acting node, page, kind, value).
/// kind 0 = unsynchronized read of the node's own slot,
/// kind 1 = lock-protected write of `value` to the node's own slot,
/// kind 2 = unsynchronized read of the *next* node's slot (cross-node
///          sharing: forces replication / invalidation traffic).
type Op = (usize, usize, u32, u8);

fn run_interleaving(ops: &[Op], protocol: &str, granularity: Option<usize>) -> Vec<u8> {
    let engine = Engine::new();
    let cluster = Pm2Config {
        granularity,
        ..Pm2Config::bip_myrinet(NODES)
    };
    let rt = DsmRuntime::new(&engine, cluster);
    let _ = register_all_protocols(&rt);
    rt.set_default_protocol(rt.protocol_by_name(protocol).unwrap());
    let base = rt.dsm_malloc(
        PAGES as u64 * PAGE_BYTES,
        DsmAttr::default().home(HomePolicy::RoundRobin),
    );
    let lock = rt.create_lock(Some(NodeId(0)));
    // One barrier slot per mutator plus one for the observer: the observer
    // reads only after every mutator has finished its op list.
    let barrier = rt.create_barrier(NODES + 1, None);
    let slot = move |page: usize, node: usize| {
        base.add(page as u64 * PAGE_BYTES + node as u64 * SLOT_STRIDE)
    };

    for node in 0..NODES {
        let my_ops: Vec<Op> = ops.iter().copied().filter(|op| op.0 == node).collect();
        rt.spawn_dsm_thread(NodeId(node), format!("mutator{node}"), move |ctx| {
            for (_, page, kind, value) in my_ops {
                match kind {
                    0 => {
                        let _ = ctx.read::<u8>(slot(page, node));
                    }
                    1 => {
                        ctx.dsm_lock(lock);
                        ctx.write::<u8>(slot(page, node), value);
                        ctx.dsm_unlock(lock);
                    }
                    _ => {
                        let _ = ctx.read::<u8>(slot(page, (node + 1) % NODES));
                    }
                }
            }
            ctx.dsm_barrier(barrier);
        });
    }

    // Observer: after every mutator finished, read the final contents under
    // the lock (the acquire makes release-consistency protocols coherent).
    let observed = Arc::new(Mutex::new(vec![0u8; PAGES * NODES]));
    let obs = observed.clone();
    rt.spawn_dsm_thread(NodeId(0), "observer", move |ctx| {
        ctx.dsm_barrier(barrier);
        ctx.dsm_lock(lock);
        let mut out = obs.lock();
        for page in 0..PAGES {
            for node in 0..NODES {
                out[page * NODES + node] = ctx.read::<u8>(slot(page, node));
            }
        }
        ctx.dsm_unlock(lock);
    });

    let mut engine = engine;
    engine.run().expect("interleaving must not deadlock");
    // The accessor every access above went through agrees, field by field,
    // with the entry it summarises — on every node, for every slot.
    for table in (0..NODES).map(|n| rt.page_table(NodeId(n))) {
        for addr in (0..PAGES * NODES).map(|i| slot(i / NODES, i % NODES)) {
            let view = table
                .resolve(addr.page(), addr.offset(), false)
                .expect("allocated pages are registered on every node");
            assert_eq!(view.line, line_of_offset(addr.offset(), view.line_size));
            let entry = table.get(Unit::new(addr.page(), view.line));
            assert_eq!(
                (
                    view.access,
                    view.line_size,
                    view.protocol,
                    view.records_writes
                ),
                (
                    entry.access,
                    entry.line_size,
                    entry.protocol,
                    entry.records_writes
                ),
                "view of {addr} diverged from its entry"
            );
        }
    }
    let observed = observed.lock().clone();
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Random fault/release interleavings leave exactly the last
    /// lock-protected write of each node visible, for every protocol and
    /// granularity.
    #[test]
    fn interleavings_preserve_page_contents(
        ops in proptest::collection::vec((0usize..3, 0usize..2, 0u32..3, 1u8..=255), 1..24),
        proto_idx in 0usize..4,
        granularity_idx in 0usize..2,
    ) {
        let protocol = PROTOCOLS[proto_idx];
        let granularity = GRANULARITY_CHOICES[granularity_idx];
        let mut expected = vec![0u8; PAGES * NODES];
        for &(node, page, kind, value) in &ops {
            if kind == 1 {
                expected[page * NODES + node] = value;
            }
        }
        let observed = run_interleaving(&ops, protocol, granularity);
        prop_assert_eq!(
            observed,
            expected,
            "final page contents diverged under {} at granularity {:?}",
            protocol,
            granularity
        );
    }
}

/// Run one access on node 0 of a region of 1 kB lines under `hbrc_mw` and
/// return the panic it must die with.
fn access_panic(
    access: impl FnOnce(&mut DsmThreadCtx<'_, '_>, DsmAddr) + Send + 'static,
) -> String {
    let mut engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(1));
    let _ = register_all_protocols(&rt);
    rt.set_default_protocol(rt.protocol_by_name("hbrc_mw").unwrap());
    let base = rt.dsm_malloc(PAGE_BYTES, DsmAttr::default().granularity(1024));
    rt.spawn_dsm_thread(NodeId(0), "offender", move |ctx| access(ctx, base));
    match engine.run() {
        Err(dsm_pm2::sim::SimError::ThreadPanic { message, .. }) => message,
        other => panic!("the access must panic, got {other:?}"),
    }
}

/// The checks around the accessor stay: a scalar straddling two coherence
/// lines and an access outside every allocation are still rejected.
#[test]
fn straddling_and_wild_accesses_still_panic() {
    let straddle = access_panic(|ctx, base| ctx.write::<u64>(base.add(1020), 1));
    assert!(
        straddle.contains("crosses a coherence-line boundary"),
        "{straddle}"
    );
    let wild = access_panic(|ctx, base| {
        let _ = ctx.read::<u8>(base.add(64 * PAGE_BYTES));
    });
    assert!(wild.contains("outside every DSM allocation"), "{wild}");
}
