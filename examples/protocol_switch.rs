//! Switching the protocol of a shared region between program phases (§2.3 of
//! the paper): a work queue is filled under a page-based sequential
//! consistency protocol (good for the bulk initialisation), then switched to
//! the thread-migration protocol for the processing phase, in which every
//! worker's accesses drag it to the data instead of copying pages around.
//!
//! The switch is bracketed by barriers, exactly as the paper prescribes: "one
//! has to keep the corresponding memory area from being accessed by the
//! application threads during the protocol switch".
//!
//! Run with: `cargo run --example protocol_switch`

use std::sync::Arc;

use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy};
use dsm_pm2::prelude::*;
use dsm_pm2::sim::SliceCell;

const NODES: usize = 4;
const ITEMS: usize = 64;

fn main() {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(NODES));
    let protocols = register_builtin_protocols(&rt);
    rt.set_default_protocol(protocols.li_hudak);

    // The work queue lives on node 0; items are u64 slots.
    let queue = rt.dsm_malloc(
        (ITEMS * 8) as u64,
        DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))),
    );
    let phase = rt.create_barrier(NODES, None);
    let results = Arc::new(SliceCell::new(Vec::new()));

    let rt_for_switch = rt.clone();
    for node in 0..NODES {
        let results = results.clone();
        let rt_for_switch = rt_for_switch.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("worker-{node}"), move |ctx| {
            // Phase 1 (li_hudak): every node fills its share of the queue.
            for i in (node..ITEMS).step_by(NODES) {
                ctx.write::<u64>(queue.add((i * 8) as u64), (i * i) as u64);
            }
            ctx.dsm_barrier(phase);

            // Quiescent point: node 0 switches the queue region to the
            // thread-migration protocol while nobody touches it.
            if node == 0 {
                let switched = rt_for_switch.switch_region_protocol(
                    queue,
                    (ITEMS * 8) as u64,
                    rt_for_switch.protocol_by_name("migrate_thread").unwrap(),
                );
                println!("switched {switched} page(s) to migrate_thread");
            }
            ctx.dsm_barrier(phase);

            // Phase 2 (migrate_thread): processing the queue drags every
            // worker to node 0, where the data lives.
            let mut sum = 0u64;
            for i in (node..ITEMS).step_by(NODES) {
                sum += ctx.read::<u64>(queue.add((i * 8) as u64));
            }
            results
                .borrow()
                .push((node, sum, ctx.node(), ctx.pm2.state().migrations()));
            ctx.dsm_barrier(phase);
        });
    }

    let mut engine = engine;
    engine.run().expect("simulation completed");

    let expected_total: u64 = (0..ITEMS as u64).map(|i| i * i).sum();
    let mut grand_total = 0;
    println!("\nworker results (value sum, final node, migrations):");
    for (node, sum, final_node, migrations) in results.borrow().iter() {
        println!(
            "  worker {node}: sum = {sum:>6}, now on node {final_node}, migrated {migrations} time(s)"
        );
        grand_total += sum;
        if *node != 0 {
            assert_eq!(*final_node, NodeId(0), "phase 2 drags workers to the data");
        }
    }
    assert_eq!(grand_total, expected_total);

    let stats = rt.stats().snapshot();
    println!(
        "\nphase 1 moved pages ({} transfers); phase 2 moved threads ({} migrations)",
        stats.page_transfers, stats.thread_migrations
    );
}
