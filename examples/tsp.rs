//! The paper's Figure 4 workload as a runnable example: TSP by branch and
//! bound with one application thread per node, comparing the four protocols.
//!
//! Run with: `cargo run --release --example tsp -- [cities] [nodes]`
//! (defaults: 11 cities, 4 nodes — use 14 to match the paper exactly).

use dsm_pm2::workloads::tsp::{run_tsp, TspConfig, TspInstance};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cities: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(11);
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    let oracle = TspInstance::random(cities, 42).solve_sequential();
    println!("TSP, {cities} cities, {nodes} nodes (one thread per node), BIP/Myrinet");
    println!("sequential optimum: {oracle}\n");
    println!(
        "{:<16} {:>14} {:>16} {:>12} {:>12}",
        "protocol", "time (ms)", "page transfers", "migrations", "faults"
    );
    for proto in ["li_hudak", "migrate_thread", "erc_sw", "hbrc_mw"] {
        let mut config = TspConfig::paper(nodes);
        config.cities = cities;
        let r = run_tsp(&config, proto);
        assert_eq!(r.best, oracle, "protocol {proto} must find the optimum");
        println!(
            "{:<16} {:>14.1} {:>16} {:>12} {:>12}",
            proto,
            r.run.elapsed.as_millis_f64(),
            r.run.stats.page_transfers,
            r.migrations,
            r.run.stats.total_faults()
        );
    }
    println!("\nAs in the paper, the page-based protocols beat migrate_thread: all threads");
    println!("migrate to the node holding the shared bound, which becomes overloaded.");
}
