//! Read-then-upgrade on four nodes: the input that deadlocked
//! `li_hudak_fixed` while a unit's home parked read requests behind its own
//! fetch. Both protocols now serve it with the same request server.
//!
//! Four nodes, one thread each, four pages homed on node 0. Every round, each
//! thread visits the four pages in its own seeded order and, on each, reads
//! its 64-byte slot and then writes it back incremented — a read fault, then
//! an upgrade — and the round ends at a barrier. Both `li_hudak_fixed` and
//! `li_hudak` finish every round, and every slot ends incremented once per
//! round.

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

/// Seed 7's orders, which once parked the application threads of nodes 0
/// and 3 and one request handler on each of those nodes on page faults for
/// good. `li_hudak` runs the same input clean and every slot ends
/// incremented once per round.
#[test]
fn li_hudak_fixed_runs_read_then_upgrade_clean() {
    const SEED: u64 = 7;
    let (result, memory) = rounds("li_hudak_fixed", SEED);
    result.expect("li_hudak_fixed serves read-then-upgrade");
    assert_eq!(memory, vec![ROUNDS as u8; PAGES * NODES * SLOT_BYTES]);

    let (result, memory) = rounds("li_hudak", SEED);
    result.expect("li_hudak serves read-then-upgrade");
    assert_eq!(memory, vec![ROUNDS as u8; PAGES * NODES * SLOT_BYTES]);
}
