//! Building a new protocol out of library routines (§2.3 of the paper).
//!
//! The paper's "mixed approach": page replication on read faults (as in
//! `li_hudak`) combined with thread migration on write faults (as in
//! `migrate_thread`). The protocol is a type implementing `DsmProtocol` with
//! the protocol-library toolbox: it overrides only the actions that differ
//! from the defaults (`li_hudak`'s), is registered at run time exactly like
//! `dsm_create_protocol`, and is then used like any built-in protocol — no
//! recompilation of the platform required.
//!
//! Run with: `cargo run --example custom_protocol` (`-- --builtin` selects
//! `li_hudak` instead: the same program, with pages moving instead of the
//! writers). `cargo test --example custom_protocol` runs its test.

use dsm_pm2::core::{
    protolib, DsmAttr, DsmProtocol, DsmRuntime, FaultInfo, HomePolicy, PageRequest, ServerCtx,
};
use dsm_pm2::prelude::*;

/// Reads replicate the page, writes migrate the thread to the page's owner.
///
/// As the paper notes, the user is responsible for combining routines into a
/// *valid* protocol: this hybrid keeps writes sequentially consistent (they
/// all execute on the owning node) but read replicas are only refreshed when
/// they are re-fetched, so it is best suited to mostly-read shared data.
struct MyHybrid;

impl DsmProtocol for MyHybrid {
    fn name(&self) -> &str {
        "my_hybrid"
    }

    // A writer already on the owning node reclaims the write access that
    // handing out read replicas took away, by invalidating them.
    fn write_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        protolib::migrate_thread_to_page(ctx, fault.unit);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        let rt = ctx.runtime;
        let node = ctx.local_node;
        if rt.page_table(node).read(req.unit, |e| e.owned) {
            protolib::serve_read_copy(ctx.sim, node, rt, &req);
        } else {
            protolib::forward_request(ctx.sim, node, rt, &req);
        }
    }
}

fn main() {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(3));
    let builtins = register_builtin_protocols(&rt);

    // dsm_create_protocol(read_fault_handler, write_fault_handler, ...):
    // register the protocol, get its id.
    let my_hybrid = rt.register_protocol(std::sync::Arc::new(MyHybrid));
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
            // Under the hybrid, the first write drags the thread to the data
            // instead of moving the page.
            ctx.write::<u64>(table.add(8 * (node as u64 + 16)), sum);
            println!("node {node} thread now runs on {}", ctx.node());
            let runs_on = if use_hybrid { NodeId(0) } else { NodeId(node) };
            assert_eq!(ctx.node(), runs_on);
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
    assert!(stats.page_transfers >= 2);
    assert_eq!(stats.thread_migrations >= 2, use_hybrid);
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;

    /// One thread's read replicates the page to its node, and its write then
    /// migrates it to the page's owner.
    #[test]
    fn hybrid_protocol_combines_replication_and_migration() {
        let mut engine = Engine::new();
        let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
        register_builtin_protocols(&rt);
        let hybrid = rt.register_protocol(Arc::new(MyHybrid));
        rt.set_default_protocol(hybrid);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let where_after_read = Arc::new(Mutex::new(NodeId(9)));
        let where_after_write = Arc::new(Mutex::new(NodeId(9)));

        let r = where_after_read.clone();
        let w = where_after_write.clone();
        rt.spawn_dsm_thread(NodeId(1), "mixed", move |ctx| {
            let _ = ctx.read::<u64>(addr); // replicates the page to node 1
            *r.lock().unwrap() = ctx.node();
            ctx.write::<u64>(addr, 3); // migrates the thread to node 0
            *w.lock().unwrap() = ctx.node();
        });
        engine.run().unwrap();
        assert_eq!(*where_after_read.lock().unwrap(), NodeId(1));
        assert_eq!(*where_after_write.lock().unwrap(), NodeId(0));
        let stats = rt.stats().snapshot();
        assert_eq!(stats.page_transfers, 1);
        assert_eq!(stats.thread_migrations, 1);
    }
}
