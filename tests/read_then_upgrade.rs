//! The read-then-upgrade deadlock of `li_hudak_fixed`, kept under test until
//! it is fixed (ROADMAP direction 1(a), which inverts the first assertion
//! below: the fixed protocol must run this input clean).
//!
//! Four nodes, one thread each, four pages homed on node 0. Every round, each
//! thread visits the four pages in its own seeded order and, on each, reads
//! its 64-byte slot and then writes it back incremented — a read fault, then
//! an upgrade — and the round ends at a barrier. `li_hudak` serves the same
//! input; `li_hudak_fixed` parks two application threads and the two request
//! handlers serving them on page faults, for good.

use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dsm_pm2::prelude::*;
use dsm_pm2::sim::{RunReport, SimError};

const NODES: usize = 4;
const PAGES: usize = 4;
const SLOT_BYTES: usize = 64;
const ROUNDS: usize = 200;

/// Run the rounds under `protocol`, each node's page orders drawn from
/// `seed`, and the bytes of every slot as node 0 reads them after the last
/// round (empty if the run never got there).
fn rounds(protocol: &str, seed: u64) -> (Result<RunReport, SimError>, Vec<u8>) {
    let mut engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(NODES));
    let _ = register_all_protocols(&rt);
    let id = rt
        .protocol_by_name(protocol)
        .expect("a registered protocol");
    let attr = DsmAttr::with_protocol(id).home(HomePolicy::Fixed(NodeId(0)));
    let base = rt.dsm_malloc((PAGES * PAGE_SIZE) as u64, attr);
    let barrier = rt.create_barrier(NODES, None);
    let mut rng = SmallRng::seed_from_u64(seed);
    let memory = Arc::new(Mutex::new(Vec::new()));
    for node in 0..NODES {
        let orders: Vec<[usize; PAGES]> = (0..ROUNDS)
            .map(|_| {
                let mut order: [usize; PAGES] = std::array::from_fn(|p| p);
                for i in (1..PAGES).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                order
            })
            .collect();
        let memory = Arc::clone(&memory);
        rt.spawn_dsm_thread(NodeId(node), format!("n{node}"), move |ctx| {
            let slot_of =
                |page: usize, node: usize| base.add((page * PAGE_SIZE + node * SLOT_BYTES) as u64);
            let mut slot = [0u8; SLOT_BYTES];
            for order in orders {
                for page in order {
                    let addr = slot_of(page, node);
                    ctx.read_bytes(addr, &mut slot);
                    for byte in &mut slot {
                        *byte = byte.wrapping_add(1);
                    }
                    ctx.write_bytes(addr, &slot);
                }
                ctx.dsm_barrier(barrier);
            }
            if node == 0 {
                let mut all = Vec::new();
                for page in 0..PAGES {
                    for owner in 0..NODES {
                        ctx.read_bytes(slot_of(page, owner), &mut slot);
                        all.extend_from_slice(&slot);
                    }
                }
                *memory.lock().expect("not poisoned") = all;
            }
        });
    }
    let result = engine.run();
    let memory = std::mem::take(&mut *memory.lock().expect("not poisoned"));
    (result, memory)
}

/// Each parked thread as `name blocked on reason`, its thread id dropped.
fn parked(threads: &[String]) -> Vec<String> {
    let without_id = |t: &String| {
        let (name, rest) = t.split_once(" (").expect("name (id) ...");
        let (_, reason) = rest.split_once(") ").expect("(id) blocked on ...");
        format!("{name} {reason}")
    };
    threads.iter().map(without_id).collect()
}

/// The first deadlock ROADMAP records for the read-then-upgrade probe: the
/// application threads of nodes 0 and 3 and one request handler on each of
/// those nodes wait on page faults; nodes 1 and 2 wait at the barrier, where
/// two of its handlers on node 0 are parked. `li_hudak` runs the same input
/// clean and every slot ends incremented once per round.
#[test]
fn li_hudak_fixed_deadlocks_on_read_then_upgrade_until_direction_1a() {
    const SEED: u64 = 7;
    let (result, memory) = rounds("li_hudak_fixed", SEED);
    let Err(SimError::Deadlock {
        at, parked_threads, ..
    }) = result
    else {
        panic!("li_hudak_fixed no longer deadlocks: {result:?}");
    };
    assert_eq!(
        parked(&parked_threads),
        [
            "n0 blocked on PageFault",
            "n1 blocked on Rpc",
            "n2 blocked on Rpc",
            "n3 blocked on PageFault",
            "rpc-dsm@N0 blocked on PageFault",
            "rpc-dsm@N3 blocked on PageFault",
            "rpc-dsm_barrier@N0 blocked on Barrier",
            "rpc-dsm_barrier@N0 blocked on Barrier",
        ],
        "deadlock at {at}"
    );
    assert!(memory.is_empty(), "the run never reached its last round");

    let (result, memory) = rounds("li_hudak", SEED);
    result.expect("li_hudak serves read-then-upgrade");
    assert_eq!(memory, vec![ROUNDS as u8; PAGES * NODES * SLOT_BYTES]);
}
