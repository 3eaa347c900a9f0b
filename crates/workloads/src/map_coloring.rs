//! The minimal-cost map-colouring workload of the paper's Figure 5.
//!
//! A multithreaded Java program (compiled with Hyperion) solves, by branch
//! and bound, the problem of colouring the twenty-nine eastern-most states of
//! the USA with four colours of different costs, minimising the total cost of
//! a proper colouring. The state graph is stored as Hyperion objects
//! distributed across the nodes; the best cost found so far is a shared
//! object updated under a monitor. Because objects are well distributed and
//! local objects are used intensively, remote accesses are rare — which is
//! why page-fault-based access detection (`java_pf`) beats inline checks
//! (`java_ic`).

use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_core::{NodeId, Pm2Config};
use dsmpm2_hyperion::{HyperionHeap, ObjectRef};
use dsmpm2_pm2::Engine;
use dsmpm2_sim::SimDuration;

use crate::setup::{runtime, Latest, RunOutcome};

/// Names of the 29 eastern-most US states used by the instance.
pub const STATES: [&str; 29] = [
    "ME", "NH", "VT", "MA", "RI", "CT", "NY", "NJ", "PA", "DE", "MD", "VA", "WV", "OH", "MI", "IN",
    "KY", "TN", "NC", "SC", "GA", "FL", "AL", "MS", "WI", "IL", "LA", "AR", "MO",
];

/// Adjacency list (pairs of indices into [`STATES`]) of the instance graph.
pub fn adjacency() -> Vec<(usize, usize)> {
    let idx = |name: &str| STATES.iter().position(|&s| s == name).unwrap();
    let pairs = [
        ("ME", "NH"),
        ("NH", "VT"),
        ("NH", "MA"),
        ("VT", "MA"),
        ("VT", "NY"),
        ("MA", "RI"),
        ("MA", "CT"),
        ("MA", "NY"),
        ("RI", "CT"),
        ("CT", "NY"),
        ("NY", "NJ"),
        ("NY", "PA"),
        ("NJ", "PA"),
        ("NJ", "DE"),
        ("PA", "DE"),
        ("PA", "MD"),
        ("PA", "WV"),
        ("PA", "OH"),
        ("DE", "MD"),
        ("MD", "VA"),
        ("MD", "WV"),
        ("VA", "WV"),
        ("VA", "KY"),
        ("VA", "TN"),
        ("VA", "NC"),
        ("WV", "OH"),
        ("WV", "KY"),
        ("OH", "MI"),
        ("OH", "IN"),
        ("OH", "KY"),
        ("MI", "IN"),
        ("MI", "WI"),
        ("IN", "IL"),
        ("IN", "KY"),
        ("KY", "TN"),
        ("KY", "IL"),
        ("KY", "MO"),
        ("TN", "NC"),
        ("TN", "GA"),
        ("TN", "AL"),
        ("TN", "MS"),
        ("TN", "AR"),
        ("TN", "MO"),
        ("NC", "SC"),
        ("NC", "GA"),
        ("SC", "GA"),
        ("GA", "FL"),
        ("GA", "AL"),
        ("FL", "AL"),
        ("AL", "MS"),
        ("MS", "LA"),
        ("MS", "AR"),
        ("WI", "IL"),
        ("WI", "MI"),
        ("IL", "MO"),
        ("LA", "AR"),
        ("AR", "MO"),
    ];
    pairs.iter().map(|&(a, b)| (idx(a), idx(b))).collect()
}

/// Costs of the four colours (the paper uses "four colors with different
/// costs"); colouring a state with colour `c` costs `COLOR_COSTS[c]`.
pub const COLOR_COSTS: [u64; 4] = [1, 2, 3, 4];

/// A sequential oracle: exact minimal cost of a proper 4-colouring of the
/// first `num_states` states of [`STATES`] (the instance a run with
/// [`ColoringConfig::num_states`] solves).
pub fn solve_sequential(num_states: usize) -> u64 {
    let n = num_states;
    let mut neighbours = vec![Vec::new(); n];
    for (a, b) in adjacency() {
        if a < n && b < n {
            neighbours[a].push(b);
            neighbours[b].push(a);
        }
    }
    let mut colors = vec![usize::MAX; n];
    let mut best = u64::MAX;
    fn dfs(
        state: usize,
        n: usize,
        neighbours: &[Vec<usize>],
        colors: &mut [usize],
        cost: u64,
        best: &mut u64,
    ) {
        if cost + ((n - state) as u64) * COLOR_COSTS[0] >= *best {
            return;
        }
        if state == n {
            *best = cost;
            return;
        }
        #[allow(clippy::needless_range_loop)]
        for c in 0..4 {
            if neighbours[state]
                .iter()
                .any(|&nb| nb < state && colors[nb] == c)
            {
                continue;
            }
            colors[state] = c;
            dfs(
                state + 1,
                n,
                neighbours,
                colors,
                cost + COLOR_COSTS[c],
                best,
            );
            colors[state] = usize::MAX;
        }
    }
    dfs(0, n, &neighbours, &mut colors, 0, &mut best);
    best
}

/// Configuration of one distributed map-colouring run.
#[derive(Clone, Debug)]
pub struct ColoringConfig {
    /// Application threads per node.
    pub threads_per_node: usize,
    /// Virtual compute time charged per explored assignment, in µs.
    pub compute_per_node_us: f64,
    /// Number of states considered (≤ 29); smaller values for quick tests.
    pub num_states: usize,
    /// The cluster the search runs on (the paper uses four SISCI/SCI nodes).
    pub cluster: Pm2Config,
}

impl ColoringConfig {
    /// The paper's configuration on `nodes` nodes.
    pub fn paper(nodes: usize) -> Self {
        ColoringConfig::small(nodes, STATES.len())
    }

    /// A reduced instance for tests.
    pub fn small(nodes: usize, num_states: usize) -> Self {
        ColoringConfig {
            threads_per_node: 1,
            compute_per_node_us: 1.0,
            num_states,
            cluster: Pm2Config::sisci_sci(nodes),
        }
    }
}

/// Result of one distributed run.
#[derive(Clone, Debug)]
pub struct ColoringResult {
    /// Minimal colouring cost found.
    pub best_cost: u64,
    /// Time, statistics (inline checks under `java_ic`, page faults under
    /// `java_pf`) and engine report of the run.
    pub run: RunOutcome,
}

/// Run the branch-and-bound colouring under `protocol_name` (`"java_ic"` or
/// `"java_pf"`).
pub fn run_map_coloring(config: &ColoringConfig, protocol_name: &str) -> ColoringResult {
    assert!(config.num_states >= 2 && config.num_states <= STATES.len());
    let nodes = config.cluster.num_nodes;
    let mut engine = Engine::new();
    let rt = runtime(&engine, &config.cluster, protocol_name);
    let heap = HyperionHeap::new(&rt, rt.default_protocol());

    let n = config.num_states;
    let mut neighbours = vec![Vec::new(); n];
    for (a, b) in adjacency() {
        if a < n && b < n {
            neighbours[a].push(b);
            neighbours[b].push(a);
        }
    }

    // The graph as Hyperion objects, distributed round-robin: one object per
    // state, field 0 = neighbour count, fields 1.. = neighbour indices.
    let state_objects: Vec<ObjectRef> = (0..n)
        .map(|s| heap.alloc_object_on(NodeId(s % nodes), 1 + neighbours[s].len().max(1)))
        .collect();
    // The shared best cost: field 0, guarded by a monitor.
    let best_obj = heap.alloc_object_on(NodeId(0), 1);
    let monitor = heap.create_monitor(Some(NodeId(0)));

    let total_threads = nodes * config.threads_per_node;
    // The seeding thread and every worker meet at `seeded`, so the graph and
    // the bound are written before any worker reads them; the workers alone
    // meet at `ready` once the search is over.
    let seeded = rt.create_barrier(total_threads + 1, None);
    let ready = rt.create_barrier(total_threads, None);
    let finish = Latest::default();
    let best_costs = Arc::new(Mutex::new(Vec::new()));
    let neighbours = Arc::new(neighbours);

    // Seed the graph objects and the initial bound from a thread of node 0.
    {
        let heap_init = heap.clone();
        let neighbours = Arc::clone(&neighbours);
        let state_objects_init = state_objects.clone();
        rt.spawn_dsm_thread(NodeId(0), "coloring-init", move |ctx| {
            for (s, obj) in state_objects_init.iter().enumerate() {
                heap_init.put(ctx, *obj, 0, neighbours[s].len() as u64);
                for (i, &nb) in neighbours[s].iter().enumerate() {
                    heap_init.put(ctx, *obj, 1 + i, nb as u64);
                }
            }
            heap_init.monitor_enter(ctx, monitor);
            heap_init.put(ctx, best_obj, 0, u64::MAX / 2);
            heap_init.monitor_exit(ctx, monitor);
            ctx.dsm_barrier(seeded);
        });
    }

    // Worker threads: first-level colour choices (4 branches, then expanded to
    // 16 two-level prefixes) are dealt round-robin.
    let mut prefixes = Vec::new();
    for c0 in 0..4usize {
        for c1 in 0..4usize {
            prefixes.push((c0, c1));
        }
    }

    for t in 0..total_threads {
        let node = NodeId(t % nodes);
        let heap = heap.clone();
        let state_objects = state_objects.clone();
        let my_prefixes: Vec<(usize, usize)> = prefixes
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % total_threads == t)
            .map(|(_, p)| p)
            .collect();
        let finish = finish.clone();
        let best_costs = best_costs.clone();
        let config = config.clone();
        rt.spawn_dsm_thread(node, format!("coloring-{t}"), move |ctx| {
            ctx.dsm_barrier(seeded);
            let n = config.num_states;
            let mut colors = vec![usize::MAX; n];
            let mut local_best = u64::MAX / 2;
            let mut pending = 0u64;

            // Recursive search expressed iteratively over an explicit stack to
            // keep the borrow of `ctx` simple.
            #[allow(clippy::too_many_arguments)]
            fn dfs(
                ctx: &mut dsmpm2_core::DsmThreadCtx<'_, '_>,
                heap: &HyperionHeap,
                state_objects: &[ObjectRef],
                monitor: dsmpm2_hyperion::Monitor,
                best_obj: ObjectRef,
                colors: &mut Vec<usize>,
                state: usize,
                cost: u64,
                local_best: &mut u64,
                pending: &mut u64,
                config: &ColoringConfig,
            ) {
                let n = config.num_states;
                *pending += 1;
                if *pending >= 32 {
                    ctx.pm2.compute_shared(SimDuration::from_micros_f64(
                        config.compute_per_node_us * *pending as f64,
                    ));
                    *pending = 0;
                }
                if cost >= *local_best {
                    return;
                }
                if state == n {
                    // Complete colouring. Only synchronise when it improves
                    // on our local view of the bound: monitor entries (and
                    // the cache flushes they imply) stay rare, as in the
                    // paper's run where "remote accesses are not very
                    // frequent".
                    if cost < *local_best {
                        heap.monitor_enter(ctx, monitor);
                        let global = heap.get(ctx, best_obj, 0);
                        if cost < global {
                            heap.put(ctx, best_obj, 0, cost);
                        }
                        *local_best = global.min(cost);
                        heap.monitor_exit(ctx, monitor);
                    }
                    return;
                }
                // Read the state's neighbour list through get (object access).
                let obj = state_objects[state];
                let degree = heap.get(ctx, obj, 0) as usize;
                #[allow(clippy::needless_range_loop)]
                for c in 0..4usize {
                    let mut conflict = false;
                    for i in 0..degree {
                        let nb = heap.get(ctx, obj, 1 + i) as usize;
                        if nb < state && colors[nb] == c {
                            conflict = true;
                            break;
                        }
                    }
                    if conflict {
                        continue;
                    }
                    colors[state] = c;
                    dfs(
                        ctx,
                        heap,
                        state_objects,
                        monitor,
                        best_obj,
                        colors,
                        state + 1,
                        cost + COLOR_COSTS[c],
                        local_best,
                        pending,
                        config,
                    );
                    colors[state] = usize::MAX;
                }
            }

            for (c0, c1) in my_prefixes {
                if n < 2 {
                    continue;
                }
                colors[0] = c0;
                colors[1] = c1;
                // Skip inconsistent prefixes (states 0 and 1 adjacent & same colour).
                let degree = heap.get(ctx, state_objects[1], 0) as usize;
                let mut conflict = false;
                for i in 0..degree {
                    let nb = heap.get(ctx, state_objects[1], 1 + i) as usize;
                    if nb == 0 && c0 == c1 {
                        conflict = true;
                    }
                }
                if !conflict {
                    dfs(
                        ctx,
                        &heap,
                        &state_objects,
                        monitor,
                        best_obj,
                        &mut colors,
                        2,
                        COLOR_COSTS[c0] + COLOR_COSTS[c1],
                        &mut local_best,
                        &mut pending,
                        &config,
                    );
                }
                colors[0] = usize::MAX;
                colors[1] = usize::MAX;
            }
            if pending > 0 {
                ctx.pm2.compute_shared(SimDuration::from_micros_f64(
                    config.compute_per_node_us * pending as f64,
                ));
            }
            ctx.dsm_barrier(ready);
            heap.monitor_enter(ctx, monitor);
            best_costs.lock().push(heap.get(ctx, best_obj, 0));
            heap.monitor_exit(ctx, monitor);
            finish.record(ctx.pm2.now());
        });
    }

    let run = RunOutcome::run(&mut engine, &rt, &finish);
    let best_cost = best_costs
        .lock()
        .iter()
        .copied()
        .min()
        .expect("workers report the final cost");
    ColoringResult { best_cost, run }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_is_well_formed() {
        let adj = adjacency();
        assert!(adj.len() > 40);
        for (a, b) in adj {
            assert!(a < STATES.len() && b < STATES.len());
            assert_ne!(a, b);
        }
        assert_eq!(STATES.len(), 29);
    }

    #[test]
    fn sequential_oracle_finds_a_proper_low_cost_coloring() {
        let best = solve_sequential(STATES.len());
        // 29 states, minimum conceivable cost is 29 (all colour 0), which is
        // impossible for adjacent states; the optimum is strictly above.
        assert!(best > 29);
        assert!(best < 29 * 4);
    }

    #[test]
    fn distributed_coloring_agrees_between_java_ic_and_java_pf() {
        let config = ColoringConfig::small(2, 12);
        let ic = run_map_coloring(&config, "java_ic");
        let pf = run_map_coloring(&config, "java_pf");
        let oracle = solve_sequential(config.num_states);
        assert_eq!(ic.best_cost, oracle, "java_ic finds the optimum");
        assert_eq!(pf.best_cost, oracle, "java_pf finds the optimum");
        assert!(ic.run.stats.inline_checks > 0);
        assert_eq!(pf.run.stats.inline_checks, 0);
        assert!(pf.run.stats.total_faults() > 0);
    }

    #[test]
    fn figure5_shape_java_pf_beats_java_ic() {
        // The effect needs the object accesses to dominate the (rare) monitor
        // synchronizations; once every search starts from the seeded graph,
        // 16 of the 29 states are plenty (the full 29-state run is exercised
        // by the fig5 bench).
        let config = ColoringConfig::small(2, 16);
        let ic = run_map_coloring(&config, "java_ic");
        let pf = run_map_coloring(&config, "java_pf");
        assert_eq!((ic.best_cost, pf.best_cost), (30, 30));
        assert!(
            pf.run.elapsed < ic.run.elapsed,
            "java_pf ({}) must outperform java_ic ({}) when accesses are mostly local",
            pf.run.elapsed,
            ic.run.elapsed
        );
    }
}
