//! Regenerates the §2.1 micro-measurements of the paper: minimal RPC latency
//! and minimal-stack thread-migration latency on the four network profiles
//! (the paper reports 6 µs / 8 µs RPC and 62 µs / 75 µs migration for
//! SISCI/SCI and BIP/Myrinet respectively).

use dsmpm2_bench::{markdown_table, migration_latency, rpc_latency};
use dsmpm2_madeleine::profiles;

fn main() {
    println!("PM2 micro-measurements (paper section 2.1)\n");
    let rows: Vec<Vec<String>> = profiles::all()
        .into_iter()
        .map(|net| {
            vec![
                net.name.clone(),
                format!("{:.1}", rpc_latency(net.clone()).as_micros_f64()),
                format!("{:.1}", migration_latency(net).as_micros_f64()),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "Network",
                "Minimal RPC (us)",
                "Thread migration, ~1kB stack (us)"
            ],
            &rows
        )
    );
    println!("Paper: RPC 8us on BIP/Myrinet, 6us on SISCI/SCI; migration 75us / 62us.");
}
