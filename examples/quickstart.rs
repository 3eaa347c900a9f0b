//! Quickstart: the Figure 2 program of the paper, in Rust.
//!
//! A shared integer lives in the DSM static data area, the built-in
//! `li_hudak` protocol is selected as the default, and threads on different
//! nodes read and update it under a DSM lock.
//!
//! Run with: `cargo run --example quickstart`

use dsm_pm2::prelude::*;

fn main() {
    // Boot a 4-node cluster over the BIP/Myrinet profile and install DSM-PM2.
    let engine = Engine::new();
    let rt = dsm_pm2::core::DsmRuntime::new(&engine, Pm2Config::bip_myrinet(4));
    let protocols = register_builtin_protocols(&rt);

    // pm2_dsm_set_default_protocol(li_hudak);
    rt.set_default_protocol(protocols.li_hudak);

    // BEGIN_DSM_DATA int x = 34; END_DSM_DATA
    let x = rt.dsm_static_area(4096);
    let lock = rt.create_lock(None);
    let done = rt.create_barrier(4, None);

    for node in 0..4usize {
        rt.spawn_dsm_thread(NodeId(node), format!("worker-{node}"), move |ctx| {
            if node == 0 {
                // x = 34;
                ctx.write::<u64>(x, 34);
            }
            ctx.dsm_barrier(done);
            // x++ on every node, under a DSM lock.
            ctx.dsm_lock(lock);
            let v = ctx.read::<u64>(x);
            ctx.write::<u64>(x, v + 1);
            ctx.dsm_unlock(lock);
            ctx.dsm_barrier(done);
            let final_value = ctx.read::<u64>(x);
            println!(
                "[{:>9}] node {} sees x = {}",
                format!("{}", ctx.pm2.now()),
                ctx.node(),
                final_value
            );
            assert_eq!(final_value, 38);
        });
    }

    let mut engine = engine;
    let report = engine.run().expect("simulation completed");
    println!("\nvirtual time: {}", report.final_time);
    println!("DSM statistics: {:#?}", rt.stats().snapshot());
    println!("\npost-mortem RPC report:");
    println!(
        "{:<18} {:>7} {:>13} {:>7} {:>9} {:>13} {:>11}",
        "service", "calls", "call (us)", "oneway", "handled", "handler (us)", "max (us)"
    );
    for (name, s) in rt.cluster().rpc_report() {
        println!(
            "{:<18} {:>7} {:>13.1} {:>7} {:>9} {:>13.1} {:>11.1}",
            name,
            s.calls.count,
            s.calls.total.as_micros_f64(),
            s.oneways,
            s.handled.count,
            s.handled.total.as_micros_f64(),
            s.handled.max.as_micros_f64()
        );
    }
}
