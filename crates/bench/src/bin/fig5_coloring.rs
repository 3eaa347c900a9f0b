//! Regenerates **Figure 5** of the paper: the minimal-cost map-colouring
//! program (29 eastern-most US states, four colours with different costs),
//! compiled through the Hyperion-style object layer, run on a four-node
//! SISCI/SCI cluster, comparing `java_ic` (inline checks) with `java_pf`
//! (page faults).
//!
//! Usage: `fig5_coloring [num_states] [max_nodes]` — defaults to 29 states
//! and node counts {1, 2, 4}.

use dsmpm2_bench::markdown_table;
use dsmpm2_workloads::map_coloring::{run_map_coloring, solve_sequential, ColoringConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let states: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(29);
    let max_nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let node_counts: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect();

    println!(
        "Figure 5: minimal-cost map colouring, {states} states, SISCI/SCI, java_ic vs java_pf\n"
    );
    let oracle = solve_sequential(states);
    println!("sequential optimum (oracle): {oracle}\n");

    let mut rows = Vec::new();
    for &nodes in &node_counts {
        for proto in ["java_ic", "java_pf"] {
            let mut config = ColoringConfig::paper(nodes);
            config.num_states = states;
            let result = run_map_coloring(&config, proto);
            assert_eq!(
                result.best_cost, oracle,
                "{proto} on {nodes} nodes must find the oracle's cost"
            );
            let (run, stats) = (&result.run, &result.run.stats);
            rows.push(vec![
                proto.to_string(),
                nodes.to_string(),
                format!("{:.1}", run.elapsed.as_millis_f64()),
                result.best_cost.to_string(),
                stats.inline_checks.to_string(),
                stats.total_faults().to_string(),
                stats.page_transfers.to_string(),
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
                "Best cost",
                "Inline checks",
                "Page faults",
                "Page transfers"
            ],
            &rows
        )
    );
    println!(
        "Expected shape (paper): java_pf outperforms java_ic because local objects are\n\
         used intensively (every get/put pays a check under java_ic) while remote\n\
         accesses — the only ones that fault under java_pf — are infrequent."
    );
}
