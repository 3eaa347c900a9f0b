//! Protocols compose in one runtime: a page's protocol behaves the same
//! whichever protocol manages another page.
//!
//! On 2 nodes, page A is under protocol X and homed on node 0; node 1 writes
//! `i` to it before barrier `i`, for five barriers, then reads it back, and
//! node 0 reads it after the last barrier. Page B is under protocol Y and
//! nothing touches it. For every ordered pair (X, Y) of the nine registered
//! protocols, page A's final words (node 0's read and node 1's read-back) and
//! the run's read and write fault counts must equal those of X alone, and
//! node 0 must read 4. `entry_sw` binds page A to no lock, and its model
//! makes no promise for unbound data, so under it only the writer's own
//! read-back of 4 is asserted.
//!
//! A second test sweeps the moment at which the home of an hbrc_mw page
//! invalidates a writer's copy across the writer's erc_sw release: each
//! protocol's release must see the node as it is when that release runs.

use std::sync::{Arc, Mutex};

use dsm_pm2::prelude::*;

const PROTOCOLS: [&str; 9] = [
    "li_hudak",
    "migrate_thread",
    "erc_sw",
    "hbrc_mw",
    "java_ic",
    "java_pf",
    "li_hudak_fixed",
    "entry_sw",
    "hlrc_notices",
];

const BARRIERS: u64 = 5;

/// What one run leaves of page A: node 0's read, node 1's read-back, and
/// the run's read and write fault counts.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PageA {
    node0_reads: u64,
    node1_reads: u64,
    read_faults: u64,
    write_faults: u64,
}

/// Run the scenario with page A under `x` and, if given, page B under `y`.
fn run(x: &str, y: Option<&str>) -> Result<PageA, String> {
    let mut engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
    let _ = register_all_protocols(&rt);
    let on_node0 = |name| {
        let id = rt.protocol_by_name(name).expect("registered");
        DsmAttr::with_protocol(id).home(HomePolicy::Fixed(NodeId(0)))
    };
    let a = rt.dsm_malloc(PAGE_SIZE as u64, on_node0(x));
    if let Some(y) = y {
        let _ = rt.dsm_malloc(PAGE_SIZE as u64, on_node0(y));
    }
    let barrier = rt.create_barrier(2, None);
    let reads = Arc::new(Mutex::new([0u64; 2]));
    let seen = Arc::clone(&reads);
    rt.spawn_dsm_thread(NodeId(0), "reader", move |ctx| {
        for _ in 0..BARRIERS {
            ctx.dsm_barrier(barrier);
        }
        let word = ctx.read::<u64>(a);
        seen.lock().unwrap()[0] = word;
    });
    let seen = Arc::clone(&reads);
    rt.spawn_dsm_thread(NodeId(1), "writer", move |ctx| {
        for i in 0..BARRIERS {
            ctx.write::<u64>(a, i);
            ctx.dsm_barrier(barrier);
        }
        let word = ctx.read::<u64>(a);
        seen.lock().unwrap()[1] = word;
    });
    engine.run().map_err(|e| format!("{e:?}"))?;
    let stats = rt.stats().snapshot();
    let [node0_reads, node1_reads] = *reads.lock().unwrap();
    Ok(PageA {
        node0_reads,
        node1_reads,
        read_faults: stats.read_faults,
        write_faults: stats.write_faults,
    })
}

#[test]
fn a_pages_protocol_behaves_as_alone_beside_every_other_protocol() {
    let mut wrong = Vec::new();
    for x in PROTOCOLS {
        let alone = run(x, None).unwrap_or_else(|e| panic!("{x} alone: {e}"));
        let last = BARRIERS - 1;
        assert_eq!(alone.node1_reads, last, "{x} alone: the writer's read-back");
        if x != "entry_sw" {
            assert_eq!(alone.node0_reads, last, "{x} alone: node 0's read");
        }
        for y in PROTOCOLS {
            let beside = run(x, Some(y));
            if beside.as_ref() != Ok(&alone) {
                wrong.push(format!("A: {x}, B: {y}: {beside:?}, alone {alone:?}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} pairs differ:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// What each node reads after the last barrier of [`run_overlapping`]:
/// the erc_sw page's word, then the hbrc_mw page's two words.
type Words = [[u64; 3]; 2];

/// Node 1 writes an erc_sw page that node 0 holds a copy of, and the first
/// word of an hbrc_mw page homed on node 0, sleeps 100 µs and enters a
/// barrier, where its erc_sw release waits for node 0's invalidation ack
/// before the hbrc_mw release runs. Node 0 sleeps `delay` after the
/// previous barrier, writes the second word of the hbrc_mw page and enters
/// the same barrier; its release invalidates node 1's copy of that page.
/// When that invalidation lands shortly before node 1's barrier, node 1's
/// server pushes the page's diff and drops the copy while node 1's erc_sw
/// release waits: the page was still written when the barrier began, and
/// is gone when the hbrc_mw release runs.
fn run_overlapping(delay: SimDuration) -> Result<Words, String> {
    let mut engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
    let _ = register_all_protocols(&rt);
    let on = |name, home| {
        let id = rt.protocol_by_name(name).expect("registered");
        DsmAttr::with_protocol(id).home(HomePolicy::Fixed(NodeId(home)))
    };
    let erc = rt.dsm_malloc(PAGE_SIZE as u64, on("erc_sw", 1));
    let hbrc = rt.dsm_malloc(PAGE_SIZE as u64, on("hbrc_mw", 0));
    let barrier = rt.create_barrier(2, None);
    let words = Arc::new(Mutex::new([[0u64; 3]; 2]));
    let read_back = move |ctx: &mut DsmThreadCtx<'_, '_>| {
        [
            ctx.read::<u64>(erc),
            ctx.read::<u64>(hbrc),
            ctx.read::<u64>(hbrc.add(8)),
        ]
    };
    let seen = Arc::clone(&words);
    rt.spawn_dsm_thread(NodeId(0), "home", move |ctx| {
        let _ = ctx.read::<u64>(erc);
        ctx.dsm_barrier(barrier);
        ctx.sim().sleep(delay);
        ctx.write::<u64>(hbrc.add(8), 2);
        ctx.dsm_barrier(barrier);
        let words = read_back(ctx);
        seen.lock().unwrap()[0] = words;
    });
    let seen = Arc::clone(&words);
    rt.spawn_dsm_thread(NodeId(1), "writer", move |ctx| {
        ctx.dsm_barrier(barrier);
        ctx.write::<u64>(erc, 1);
        ctx.write::<u64>(hbrc, 1);
        ctx.sim().sleep(SimDuration::from_micros(100));
        ctx.dsm_barrier(barrier);
        let words = read_back(ctx);
        seen.lock().unwrap()[1] = words;
    });
    engine.run().map_err(|e| format!("{e:?}"))?;
    let words = *words.lock().unwrap();
    Ok(words)
}

#[test]
fn a_release_survives_an_invalidation_landing_while_an_earlier_protocol_waits() {
    let mut wrong = Vec::new();
    for us in 0..600 {
        let delay = SimDuration::from_micros(us);
        let words = run_overlapping(delay);
        if words != Ok([[1, 1, 2]; 2]) {
            wrong.push(format!(
                "node 0 writes {us} µs after the barrier: {words:?}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} delays go wrong:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
