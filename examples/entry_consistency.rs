//! Entry consistency in practice: independent shared objects, each bound to
//! its own lock, manipulated concurrently from every node. Acquiring a lock
//! makes exactly the data bound to it consistent — the other objects never
//! generate any traffic for nodes that do not touch them.
//!
//! Run with: `cargo run --example entry_consistency`

use std::sync::Arc;

use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy};
use dsm_pm2::prelude::*;
use dsm_pm2::sim::SliceCell;

const NODES: usize = 4;
const ACCOUNTS: usize = 8;
const TRANSFERS_PER_NODE: usize = 16;

fn main() {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::sisci_sci(NODES));
    let (_builtins, extensions) = register_all_protocols(&rt);
    rt.set_default_protocol(extensions.entry_sw);

    // One "account" per page, each guarded by (and bound to) its own lock —
    // the Midway programming model.
    let mut accounts = Vec::new();
    for i in 0..ACCOUNTS {
        let addr = rt.dsm_malloc(
            4096,
            DsmAttr::default().home(HomePolicy::Fixed(NodeId(i % NODES))),
        );
        let lock = rt.create_lock(Some(NodeId(i % NODES)));
        extensions.entry.bind(lock, addr, 4096);
        accounts.push((addr, lock));
    }
    let accounts = Arc::new(accounts);
    let done = rt.create_barrier(NODES, None);
    let audit = Arc::new(SliceCell::new(Vec::new()));

    // Every node seeds two accounts, then performs transfers between pairs of
    // accounts, always acquiring the two guarding locks in index order.
    for node in 0..NODES {
        let accounts = accounts.clone();
        let audit = audit.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("bank-{node}"), move |ctx| {
            for (i, &(addr, lock)) in accounts.iter().enumerate() {
                if i % NODES == node {
                    ctx.dsm_lock(lock);
                    ctx.write::<u64>(addr, 1000);
                    ctx.dsm_unlock(lock);
                }
            }
            ctx.dsm_barrier(done);

            for t in 0..TRANSFERS_PER_NODE {
                let from = (node + t) % ACCOUNTS;
                let to = (node + t + 1 + t % 3) % ACCOUNTS;
                if from == to {
                    continue;
                }
                let (first, second) = if from < to { (from, to) } else { (to, from) };
                let (addr_a, lock_a) = accounts[first];
                let (addr_b, lock_b) = accounts[second];
                ctx.dsm_lock(lock_a);
                ctx.dsm_lock(lock_b);
                let amount = 10 + (t as u64 % 5);
                let (src, dst) = if from < to {
                    (addr_a, addr_b)
                } else {
                    (addr_b, addr_a)
                };
                let balance_src = ctx.read::<u64>(src);
                let balance_dst = ctx.read::<u64>(dst);
                ctx.write::<u64>(src, balance_src - amount);
                ctx.write::<u64>(dst, balance_dst + amount);
                ctx.dsm_unlock(lock_b);
                ctx.dsm_unlock(lock_a);
            }
            ctx.dsm_barrier(done);

            // Audit: every node sums every account under its lock.
            let mut total = 0u64;
            for &(addr, lock) in accounts.iter() {
                ctx.dsm_lock(lock);
                total += ctx.read::<u64>(addr);
                ctx.dsm_unlock(lock);
            }
            audit.borrow().push((node, total));
        });
    }

    let mut engine = engine;
    engine.run().expect("simulation completed");

    let expected = (ACCOUNTS as u64) * 1000;
    println!("entry consistency (entry_sw), {NODES} nodes, {ACCOUNTS} accounts");
    for (node, total) in audit.borrow().iter() {
        println!("  node {node}: audited total = {total}");
        assert_eq!(*total, expected, "money must be conserved");
    }
    let stats = rt.stats().snapshot();
    println!("\nDSM statistics: {stats:#?}");
    println!(
        "page transfers: {}, diffs: {}, invalidations: {} — only the pages bound to the \
         acquired locks ever moved",
        stats.page_transfers, stats.diffs_sent, stats.invalidations
    );
}
