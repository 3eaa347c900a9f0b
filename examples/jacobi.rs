//! A barrier-synchronised Jacobi stencil on the DSM, run under three
//! protocols — the kind of regular SPLASH-2-style sharing pattern the paper
//! lists as the next evaluation step.
//!
//! Run with: `cargo run --release --example jacobi -- [size] [nodes] [iters]`

use dsm_pm2::prelude::Pm2Config;
use dsm_pm2::workloads::jacobi::{run_jacobi, JacobiConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let size: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let iterations: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(8);

    println!("Jacobi {size}x{size}, {iterations} iterations, {nodes} nodes, BIP/Myrinet\n");
    println!(
        "{:<10} {:>14} {:>16} {:>12} {:>10}",
        "protocol", "time (ms)", "page transfers", "diffs", "checksum"
    );
    let mut reference = None;
    for proto in ["li_hudak", "erc_sw", "hbrc_mw"] {
        let config = JacobiConfig {
            size,
            iterations,
            compute_per_cell_us: 0.05,
            cluster: Pm2Config::bip_myrinet(nodes),
        };
        let r = run_jacobi(&config, proto);
        println!(
            "{:<10} {:>14.1} {:>16} {:>12} {:>10.1}",
            proto,
            r.run.elapsed.as_millis_f64(),
            r.run.stats.page_transfers,
            r.run.stats.diffs_sent,
            r.checksum
        );
        match reference {
            None => reference = Some(r.checksum),
            Some(c) => assert!(
                (c - r.checksum).abs() < 1e-6,
                "protocols must agree on the numerical result"
            ),
        }
    }
    println!("\nAll protocols produce the same grid; they differ only in how pages move.");
}
