//! Regenerates **Figure 4** of the paper: solving TSP for 14 cities with
//! random inter-city distances, one application thread per node, on the
//! BIP/Myrinet profile, comparing the four DSM protocols `li_hudak`,
//! `migrate_thread`, `erc_sw` and `hbrc_mw`.
//!
//! Usage: `fig4_tsp [cities] [max_nodes]` — defaults to 14 cities and node
//! counts {1, 2, 4}. Use fewer cities for a quick run.

use dsmpm2_bench::markdown_table;
use dsmpm2_workloads::tsp::{run_tsp, TspConfig, TspInstance};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cities: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(14);
    let max_nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let node_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect();
    let protocols = ["li_hudak", "migrate_thread", "erc_sw", "hbrc_mw"];

    println!("Figure 4: TSP, {cities} cities, one thread per node, BIP/Myrinet\n");
    let oracle = TspInstance::random(cities, 42).solve_sequential();
    println!("sequential optimum (oracle): {oracle}\n");

    let mut rows = Vec::new();
    for &nodes in &node_counts {
        for proto in protocols {
            let mut config = TspConfig::paper(nodes);
            config.cities = cities;
            let result = run_tsp(&config, proto);
            assert_eq!(
                result.best, oracle,
                "distributed result must match the oracle"
            );
            rows.push(vec![
                proto.to_string(),
                nodes.to_string(),
                format!("{:.1}", result.run.elapsed.as_millis_f64()),
                result.run.stats.page_transfers.to_string(),
                result.migrations.to_string(),
                result.expanded.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "Protocol",
                "Nodes",
                "Run time (ms, virtual)",
                "Page transfers",
                "Thread migrations",
                "Expanded nodes"
            ],
            &rows
        )
    );
    println!(
        "Expected shape (paper): every page-based protocol outperforms migrate_thread,\n\
         because all computing threads migrate to the node holding the shared bound."
    );
}
