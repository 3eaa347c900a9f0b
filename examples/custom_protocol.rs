//! Building a new protocol out of library routines (§2.3 of the paper).
//!
//! The paper's "mixed approach": page replication on read faults (as in
//! `li_hudak`) combined with thread migration on write faults (as in
//! `migrate_thread`). The protocol is assembled from the protocol-library
//! toolbox with the `CustomProtocol` builder, registered at run time exactly
//! like `dsm_create_protocol`, and then used like any built-in protocol — no
//! recompilation of the platform required.
//!
//! Run with: `cargo run --example custom_protocol`

use dsm_pm2::core::{protolib, Access, CustomProtocol, DsmAttr, DsmRuntime, HomePolicy};
use dsm_pm2::prelude::*;

fn main() {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(3));
    let builtins = register_builtin_protocols(&rt);

    // dsm_create_protocol(read_fault_handler, write_fault_handler, ...)
    let hybrid = CustomProtocol::builder("my_hybrid")
        .read_fault_handler(|ctx, fault| {
            let rt = ctx.runtime().clone();
            let node = ctx.node();
            protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Read);
        })
        .write_fault_handler(|ctx, fault| {
            protolib::migrate_thread_to_page(ctx, fault.unit);
        })
        .read_server(|ctx, req| {
            let rt = ctx.runtime;
            let node = ctx.local_node;
            if rt.page_table(node).read(req.unit, |e| e.owned) {
                protolib::serve_read_copy(ctx.sim, node, rt, &req);
            } else {
                protolib::forward_request(ctx.sim, node, rt, &req);
            }
        })
        .invalidate_server(|ctx, inv| {
            let rt = ctx.runtime;
            let node = ctx.local_node;
            protolib::apply_invalidation(ctx.sim, node, rt, &inv);
        })
        .receive_page_server(|ctx, transfer| {
            let rt = ctx.runtime;
            let node = ctx.local_node;
            protolib::install_received_page(ctx.sim, node, rt, transfer);
        })
        .build();

    let my_hybrid = rt.register_protocol(hybrid);
    // Dynamic protocol selection, as in the paper: pick one of several
    // registered protocols at run time without recompiling.
    let use_hybrid = std::env::args().all(|a| a != "--builtin");
    let selected = if use_hybrid {
        my_hybrid
    } else {
        builtins.li_hudak
    };
    rt.set_default_protocol(selected);
    println!("selected protocol: {}", rt.protocol(selected).name());

    // A read-mostly table homed on node 0, plus a write-intensive cell.
    let table = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let ready = rt.create_barrier(3, None);

    rt.spawn_dsm_thread(NodeId(0), "producer", move |ctx| {
        for i in 0..16u64 {
            ctx.write::<u64>(table.add(i * 8), i * i);
        }
        ctx.dsm_barrier(ready);
        ctx.dsm_barrier(ready);
    });
    for node in 1..3usize {
        rt.spawn_dsm_thread(NodeId(node), format!("consumer-{node}"), move |ctx| {
            ctx.dsm_barrier(ready);
            // Reads replicate the page locally; the thread stays put.
            let mut sum = 0;
            for i in 0..16u64 {
                sum += ctx.read::<u64>(table.add(i * 8));
            }
            println!("node {} read the table locally, sum = {sum}", ctx.node());
            assert_eq!(ctx.node(), NodeId(node));
            // The first write drags the thread to the data instead of moving
            // the page.
            ctx.write::<u64>(table.add(8 * (node as u64 + 16)), sum);
            println!("node {node} thread now runs on {}", ctx.node());
            assert_eq!(ctx.node(), NodeId(0));
            ctx.dsm_barrier(ready);
        });
    }

    let mut engine = engine;
    engine.run().expect("custom protocol example completed");
    let stats = rt.stats().snapshot();
    println!(
        "\npage transfers: {}, thread migrations: {}",
        stats.page_transfers, stats.thread_migrations
    );
    assert!(stats.page_transfers >= 2 && stats.thread_migrations >= 2);
}
