//! Integration tests for §2.3 of the paper: several protocols coexisting in
//! one application, user-written protocols registered at run time, and
//! switching the protocol of a memory region between two barriers.

use std::sync::Arc;

use std::sync::Mutex;

use dsm_pm2::core::{
    protolib, Access, DsmAttr, DsmProtocol, DsmRuntime, DsmScalar, FaultInfo, HomePolicy, LineIx,
    PageRequest, ServerCtx, Unit, PAGE_SIZE,
};
use dsm_pm2::prelude::*;

fn setup(nodes: usize) -> (Engine, DsmRuntime, BuiltinProtocols, ExtensionProtocols) {
    let engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::sisci_sci(nodes));
    let (builtins, extensions) = register_all_protocols(&rt);
    (engine, rt, builtins, extensions)
}

/// The paper: "this can be achieved if needed through a careful
/// synchronization at the program level (e.g. through barriers)". A region
/// starts under `li_hudak`, is switched to `migrate_thread` between two
/// barriers, and the application keeps observing consistent values while the
/// protocol actually changes behaviour (pages stop moving, threads start
/// moving).
#[test]
fn region_switches_from_page_replication_to_thread_migration_at_a_barrier() {
    let (mut engine, rt, protos, _ext) = setup(2);
    rt.set_default_protocol(protos.li_hudak);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let b = rt.create_barrier(2, None);
    let observations = Arc::new(Mutex::new(Vec::new()));

    // Node 0 performs the switch while both threads are between barriers.
    let rt_for_switch = rt.clone();
    let obs = observations.clone();
    rt.spawn_dsm_thread(NodeId(0), "switcher", move |ctx| {
        ctx.write::<u64>(addr, 5);
        ctx.dsm_barrier(b);
        // Phase 1 (li_hudak) done on both nodes.
        ctx.dsm_barrier(b);
        // Quiescent point: no other thread touches the region here.
        let pages = rt_for_switch.switch_region_protocol(
            addr,
            4096,
            rt_for_switch.protocol_by_name("migrate_thread").unwrap(),
        );
        assert_eq!(pages, 1);
        ctx.dsm_barrier(b);
        // Phase 2 (migrate_thread).
        let v = ctx.read::<u64>(addr);
        obs.lock().unwrap().push(("node0-after", v, ctx.node()));
        ctx.dsm_barrier(b);
    });

    let obs = observations.clone();
    let migrations = Arc::new(Mutex::new(0u64));
    let mig = migrations.clone();
    let state = rt.spawn_dsm_thread(NodeId(1), "worker", move |ctx| {
        ctx.dsm_barrier(b);
        // Phase 1: replicate the page to node 1 and read it there.
        let v = ctx.read::<u64>(addr);
        obs.lock()
            .unwrap()
            .push(("node1-replicated", v, ctx.node()));
        assert_eq!(ctx.node(), NodeId(1), "li_hudak replicates, no migration");
        ctx.dsm_barrier(b);
        // Switch happens here (node 0 is the only one touching the table).
        ctx.dsm_barrier(b);
        // Phase 2: under migrate_thread the same access drags the thread to
        // the data instead of copying the page.
        let v = ctx.read::<u64>(addr);
        obs.lock().unwrap().push(("node1-migrated", v, ctx.node()));
        *mig.lock().unwrap() = ctx.pm2.state().migrations();
        ctx.dsm_barrier(b);
    });
    let _ = state;

    engine.run().unwrap();
    let observations = observations.lock().unwrap();
    for &(label, v, _) in observations.iter() {
        assert_eq!(
            v, 5,
            "{label} must still observe the value written before the switch"
        );
    }
    let (_, _, node_after) = observations
        .iter()
        .find(|(l, _, _)| *l == "node1-migrated")
        .copied()
        .unwrap();
    assert_eq!(
        node_after,
        NodeId(0),
        "after the switch the worker thread migrates to the data"
    );
    assert!(*migrations.lock().unwrap() >= 1);
}

/// Switching to the protocol a region already uses is a harmless no-op, and
/// switching an unknown region panics.
#[test]
fn switch_validates_its_inputs() {
    let (_engine, rt, protos, _ext) = setup(2);
    rt.set_default_protocol(protos.li_hudak);
    let addr = rt.dsm_malloc(8192, DsmAttr::default());
    assert_eq!(rt.switch_region_protocol(addr, 8192, protos.li_hudak), 2);
    assert_eq!(
        rt.page_meta(addr.page()).protocol,
        protos.li_hudak,
        "identity switch keeps the protocol"
    );
}

#[test]
#[should_panic(expected = "not part of any DSM allocation")]
fn switching_an_unallocated_region_panics() {
    let (_engine, rt, protos, _ext) = setup(2);
    rt.set_default_protocol(protos.li_hudak);
    let addr = rt.dsm_malloc(4096, DsmAttr::default());
    // One page past the end of the allocation.
    rt.switch_region_protocol(addr.add(4096), 4096, protos.li_hudak);
}

/// Values published before the switch remain visible after it, and a replica
/// that still carries an unflushed twin diff when the switch happens is
/// folded into the home copy rather than silently dropped.
/// Regression: a single-writer owner whose access was downgraded to
/// read-only (by serving a read copy) still holds the only current copy of
/// the page; the switch must consolidate that frame into the home instead of
/// dropping it with the replica.
#[test]
fn switch_preserves_a_downgraded_owners_copy() {
    let (mut engine, rt, protos, ext) = setup(3);
    rt.set_default_protocol(protos.li_hudak);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let b = rt.create_barrier(3, None);

    let rt_for_switch = rt.clone();
    let hlrc = ext.hlrc_notices;
    // Node 1 becomes the owner, then node 2's read downgrades node 1 to
    // read-only. The switch runs at the barrier; afterwards every node must
    // still observe node 1's value.
    rt.spawn_dsm_thread(NodeId(1), "writer", move |ctx| {
        ctx.write::<u64>(addr, 77);
        ctx.dsm_barrier(b);
        ctx.dsm_barrier(b);
        assert_eq!(ctx.read::<u64>(addr), 77);
    });
    rt.spawn_dsm_thread(NodeId(2), "reader", move |ctx| {
        ctx.dsm_barrier(b);
        assert_eq!(ctx.read::<u64>(addr), 77);
        ctx.dsm_barrier(b);
        assert_eq!(ctx.read::<u64>(addr), 77);
    });
    rt.spawn_dsm_thread(NodeId(0), "switcher", move |ctx| {
        ctx.dsm_barrier(b);
        // Wait for node 2's read to land (downgrading node 1) before
        // switching: the second barrier brackets the quiescent point.
        ctx.dsm_barrier(b);
        let switched = rt_for_switch.switch_region_protocol(addr, 4096, hlrc);
        assert_eq!(switched, 1);
        assert_eq!(ctx.read::<u64>(addr), 77);
    });
    engine
        .run()
        .expect("switch with downgraded owner completes");
}

#[test]
fn switch_preserves_values_and_folds_pending_diffs_into_the_home() {
    let (mut engine, rt, protos, _ext) = setup(2);
    rt.set_default_protocol(protos.hbrc_mw);
    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let page = addr.page();
    let b = rt.create_barrier(2, None);
    let seen = Arc::new(Mutex::new((0u64, 0u64)));

    // Simulate a node-1 replica with an unflushed modification, exactly the
    // state a multiple-writer protocol leaves between a write and the next
    // release: a twin plus a dirtied working copy.
    let (unit, span) = (Unit::whole(page), (0, PAGE_SIZE));
    let data = rt.frames(NodeId(0)).snapshot(page, span);
    rt.frames(NodeId(1)).install(unit, span, data);
    rt.page_table(NodeId(1)).update(unit, |e| {
        e.access = Access::Write;
        e.modified_since_release = true;
    });
    rt.frames(NodeId(1)).make_twin(unit, span);
    rt.frames(NodeId(1))
        .with_bytes(page, 16, 8, false, |b| 99u64.store_le(b));

    let pages = rt.switch_region_protocol(addr, 4096, protos.li_hudak);
    assert_eq!(pages, 1);

    // After the switch: the home copy holds the folded modification, node 1
    // holds nothing, and the region runs under the new protocol.
    assert!(!rt.frames(NodeId(1)).has(page));
    assert_eq!(rt.page_meta(page).protocol, protos.li_hudak);

    let s = seen.clone();
    rt.spawn_dsm_thread(NodeId(0), "home-reader", move |ctx| {
        s.lock().unwrap().0 = ctx.read::<u64>(addr.add(16));
        ctx.dsm_barrier(b);
    });
    let s = seen.clone();
    rt.spawn_dsm_thread(NodeId(1), "remote-reader", move |ctx| {
        ctx.dsm_barrier(b);
        s.lock().unwrap().1 = ctx.read::<u64>(addr.add(16));
    });
    engine.run().unwrap();
    assert_eq!(
        *seen.lock().unwrap(),
        (99, 99),
        "the pending diff reached the home across the switch"
    );
}

/// The line case of the test above, across a geometry change: a 1024-byte
/// `hbrc_mw` region where node 1 holds line 2 writable, twinned and dirtied is
/// switched to `li_hudak`, which only manages whole pages.
#[test]
fn switch_folds_a_line_twin_into_the_home_and_clamps_the_region_to_pages() {
    let mut engine = Engine::new();
    let lines = Pm2Config {
        granularity: Some(1024),
        ..Pm2Config::sisci_sci(2)
    };
    let rt = DsmRuntime::new(&engine, lines);
    let (protos, _ext) = register_all_protocols(&rt);
    let attr = DsmAttr::with_protocol(protos.hbrc_mw).home(HomePolicy::Fixed(NodeId(0)));
    let addr = rt.dsm_malloc(4096, attr);
    let page = addr.page();
    let (unit, span) = (Unit::new(page, LineIx(2)), (2048, 1024));
    let word = addr.add(2048 + 16);
    let b = rt.create_barrier(2, None);
    let seen = Arc::new(Mutex::new((0u64, 0u64)));
    assert_eq!(rt.page_meta(page).line_size, 1024);

    let data = rt.frames(NodeId(0)).snapshot(page, span);
    rt.frames(NodeId(1)).install(unit, span, data);
    rt.page_table(NodeId(1)).update(unit, |e| {
        e.access = Access::Write;
        e.modified_since_release = true;
    });
    assert!(rt.frames(NodeId(1)).make_twin(unit, span));
    rt.frames(NodeId(1))
        .with_bytes(page, word.offset(), 8, false, |b| 99u64.store_le(b));

    assert_eq!(rt.switch_region_protocol(addr, 4096, protos.li_hudak), 1);

    // After the switch: the dirtied word reached the home frame, node 1
    // holds nothing, and every table and the runtime agree the page is one
    // whole-page unit now.
    let home_word = rt
        .frames(NodeId(0))
        .with_bytes(page, word.offset(), 8, false, |b| u64::load_le(b));
    assert_eq!(home_word, 99);
    assert!(!rt.frames(NodeId(1)).has(page));
    assert_eq!(rt.page_table(NodeId(0)).len(), 1);
    assert_eq!(rt.page_table(NodeId(1)).len(), 1);
    assert_eq!(rt.page_meta(page).line_size, PAGE_SIZE);
    assert!(!rt.is_dsm_page(addr.add(4096).page()));

    let s = seen.clone();
    rt.spawn_dsm_thread(NodeId(0), "home-reader", move |ctx| {
        s.lock().unwrap().0 = ctx.read::<u64>(word);
        ctx.dsm_barrier(b);
    });
    let s = seen.clone();
    rt.spawn_dsm_thread(NodeId(1), "remote-reader", move |ctx| {
        ctx.dsm_barrier(b);
        s.lock().unwrap().1 = ctx.read::<u64>(word);
    });
    engine.run().unwrap();
    assert_eq!(
        *seen.lock().unwrap(),
        (99, 99),
        "both nodes read the folded word"
    );
}

/// A write-through-to-home protocol written against the library routines:
/// read faults fetch a copy from the home, write faults fetch a writable
/// copy, no invalidations ever happen (single-phase programs only). Each read
/// fault it handles pushes the faulting node onto `read_faults`.
struct HomeFetch {
    read_faults: Arc<Mutex<Vec<NodeId>>>,
}

impl DsmProtocol for HomeFetch {
    fn name(&self) -> &str {
        "home_fetch"
    }

    fn read_fault_handler(&self, ctx: &mut DsmThreadCtx<'_, '_>, fault: FaultInfo) {
        let rt = ctx.runtime().clone();
        let node = ctx.node();
        self.read_faults.lock().unwrap().push(node);
        protolib::request_page_and_wait(ctx.pm2.sim, node, &rt, fault.unit, Access::Read);
    }

    fn read_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        protolib::serve_copy_from_home(ctx.sim, ctx.local_node, ctx.runtime, &req, Access::Read);
    }

    fn write_server(&self, ctx: &mut ServerCtx<'_>, req: PageRequest) {
        protolib::serve_copy_from_home(ctx.sim, ctx.local_node, ctx.runtime, &req, Access::Write);
    }
}

/// §2.3: several protocols can be *defined* in one program and selected
/// dynamically without recompilation; a user-written protocol is usable
/// exactly like the built-in ones.
#[test]
fn user_defined_protocol_is_selected_dynamically() {
    let (mut engine, rt, protos, _ext) = setup(2);
    let custom = rt.register_protocol(Arc::new(HomeFetch {
        read_faults: Arc::default(),
    }));

    // Select the protocol "according to the arguments provided by the user
    // without any recompilation".
    let use_custom = true;
    rt.set_default_protocol(if use_custom { custom } else { protos.li_hudak });

    let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
    let b = rt.create_barrier(2, None);
    let ok = Arc::new(Mutex::new(false));
    rt.spawn_dsm_thread(NodeId(0), "w", move |ctx| {
        ctx.write::<u32>(addr, 9);
        ctx.dsm_barrier(b);
    });
    let ok2 = ok.clone();
    rt.spawn_dsm_thread(NodeId(1), "r", move |ctx| {
        ctx.dsm_barrier(b);
        *ok2.lock().unwrap() = ctx.read::<u32>(addr) == 9;
    });
    engine.run().unwrap();
    assert!(*ok.lock().unwrap());
    assert_eq!(rt.protocol_by_name("home_fetch"), Some(custom));
}

/// A protocol that is only a name: every action is the trait's default.
struct Defaults;

impl DsmProtocol for Defaults {
    fn name(&self) -> &str {
        "defaults"
    }
}

/// A protocol inherits what it does not override from `li_hudak`: a 3-node
/// program in which every node writes its word of one page and then reads
/// all three, twice, leaves the same words, the same counters and the same
/// end time under a protocol that implements only `name` as under
/// `li_hudak`.
#[test]
fn a_protocol_that_overrides_nothing_runs_as_li_hudak() {
    let run = |defaults: bool| {
        let (mut engine, rt, protos, _ext) = setup(3);
        let custom = rt.register_protocol(Arc::new(Defaults));
        rt.set_default_protocol(if defaults { custom } else { protos.li_hudak });
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let b = rt.create_barrier(3, None);
        let seen = Arc::new(Mutex::new(Vec::new()));
        for node in 0..3u64 {
            let s = seen.clone();
            rt.spawn_dsm_thread(NodeId(node as usize), format!("t{node}"), move |ctx| {
                let mine = addr.add(8 * node);
                ctx.write::<u64>(mine, node + 1);
                for _ in 0..2 {
                    ctx.dsm_barrier(b);
                    let words: Vec<u64> =
                        (0..3).map(|i| ctx.read::<u64>(addr.add(8 * i))).collect();
                    ctx.dsm_barrier(b);
                    ctx.write::<u64>(mine, words.iter().sum());
                    s.lock().unwrap().push((node, words));
                }
            });
        }
        let report = engine.run().unwrap();
        let mut words = seen.lock().unwrap().clone();
        words.sort();
        (words, rt.stats().snapshot(), report.final_time)
    };
    let (words, stats, end) = run(true);
    assert_eq!(
        words,
        [
            (0, vec![1, 2, 3]),
            (0, vec![6, 6, 6]),
            (1, vec![1, 2, 3]),
            (1, vec![6, 6, 6]),
            (2, vec![1, 2, 3]),
            (2, vec![6, 6, 6]),
        ]
    );
    assert!(
        stats.page_transfers > 0 && stats.invalidations > 0,
        "{stats:?}"
    );
    assert_eq!((words, stats, end), run(false));
}

/// The directory is the one record of a page's protocol: once a switch has
/// rewritten it, a fault on the page runs the new protocol's handler, also
/// on a node that held a copy under the old protocol, and the request it
/// sends is served by the new protocol too.
#[test]
fn a_fault_after_a_switch_runs_the_new_protocols_handler() {
    let (mut engine, rt, protos, _ext) = setup(2);
    let read_faults = Arc::new(Mutex::new(Vec::new()));
    let custom = rt.register_protocol(Arc::new(HomeFetch {
        read_faults: read_faults.clone(),
    }));
    let addr = rt.dsm_malloc(4096, DsmAttr::with_protocol(protos.li_hudak));
    let b = rt.create_barrier(2, None);
    let rt_for_switch = rt.clone();
    rt.spawn_dsm_thread(NodeId(0), "switcher", move |ctx| {
        ctx.write::<u64>(addr, 7);
        ctx.dsm_barrier(b);
        ctx.dsm_barrier(b);
        assert_eq!(rt_for_switch.switch_region_protocol(addr, 4096, custom), 1);
        ctx.dsm_barrier(b);
    });
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    rt.spawn_dsm_thread(NodeId(1), "reader", move |ctx| {
        ctx.dsm_barrier(b);
        s.lock().unwrap().push(ctx.read::<u64>(addr));
        ctx.dsm_barrier(b);
        ctx.dsm_barrier(b);
        s.lock().unwrap().push(ctx.read::<u64>(addr));
    });
    engine.run().unwrap();
    assert_eq!(*seen.lock().unwrap(), [7, 7]);
    assert_eq!(
        *read_faults.lock().unwrap(),
        [NodeId(1)],
        "node 1's copy under li_hudak, then one fault handled by home_fetch"
    );
}

/// Regression: ownership that passes between non-home nodes bumps the
/// succession version on the serving owners only; the home learns the owner,
/// not the version. The same-geometry switch must still make the home's copy
/// newer than every succession a node has seen, or a node refuses the
/// home's copy as stale and asks again forever.
#[test]
fn a_switch_after_ownership_moved_between_non_home_nodes_serves_fresh_copies() {
    for target in ["li_hudak", "hbrc_mw"] {
        let mut engine = Engine::with_event_limit(1_000_000);
        let rt = DsmRuntime::new(&engine, Pm2Config::sisci_sci(3));
        let (protos, _ext) = register_all_protocols(&rt);
        rt.set_default_protocol(protos.li_hudak);
        let addr = rt.dsm_malloc(4096, DsmAttr::default().home(HomePolicy::Fixed(NodeId(0))));
        let b = rt.create_barrier(3, None);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let rt_for_switch = rt.clone();
        let to = rt.protocol_by_name(target).unwrap();
        rt.spawn_dsm_thread(NodeId(0), "switcher", move |ctx| {
            for _ in 0..3 {
                ctx.dsm_barrier(b);
            }
            assert_eq!(rt_for_switch.switch_region_protocol(addr, 4096, to), 1);
            ctx.dsm_barrier(b);
            ctx.dsm_barrier(b);
        });
        for node in [1, 2] {
            let s = seen.clone();
            rt.spawn_dsm_thread(NodeId(node), "writer", move |ctx| {
                // Nodes 1, 2 and 1 write in turn: three ownership moves.
                for (turn, writer) in [1, 2, 1].into_iter().enumerate() {
                    if writer == node {
                        ctx.write::<u64>(addr, turn as u64 + 1);
                    }
                    ctx.dsm_barrier(b);
                }
                ctx.dsm_barrier(b);
                let v = ctx.read::<u64>(addr);
                s.lock().unwrap().push(v);
                ctx.dsm_barrier(b);
            });
        }
        engine
            .run()
            .unwrap_or_else(|e| panic!("switch to {target}: {e:?}"));
        assert_eq!(*seen.lock().unwrap(), [3, 3], "switch to {target}");
    }
}
