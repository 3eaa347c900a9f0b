//! A typed-access hit marks and records what it writes and nothing else.
//!
//! Release-consistency protocols flush the units their node marked modified
//! (`PageTable::modified_units`), and the hit itself does the marking, under
//! the same borrow as the store. On a page split into 1024-byte lines, all
//! of them writable at their home: a read marks no line, a write marks its
//! own line only, and a write refused on a read-only line marks nothing.
//!
//! The Java protocols ship the ranges a write recorded instead of a twin
//! diff, and whether a write records is the page's protocol's to say
//! (`DsmProtocol::records_writes`), for a plain write and a checked one
//! alike.
//!
//! A protocol with nothing to publish at a release (sequential consistency)
//! keeps the default release hook, which forgets the marks: a unit written
//! once is not handed to every later release.

use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy, LineIx, Unit};
use dsm_pm2::prelude::*;

#[test]
fn a_write_hit_marks_its_own_line_and_a_read_marks_nothing() {
    let mut engine = Engine::new();
    let lines = Pm2Config {
        granularity: Some(1024),
        ..Pm2Config::bip_myrinet(2)
    };
    let rt = DsmRuntime::new(&engine, lines);
    let _ = register_all_protocols(&rt);
    let home = NodeId(0);
    let attr = DsmAttr::with_protocol(rt.protocol_by_name("li_hudak_fixed").unwrap())
        .home(HomePolicy::Fixed(home));
    let base = rt.dsm_malloc(PAGE_SIZE as u64, attr);
    assert_eq!(rt.page_meta(base.page()).line_size, 1024);
    let line = move |ix| Unit::new(base.page(), LineIx(ix));
    let hits = rt.clone();
    rt.spawn_dsm_thread(home, "marker", move |ctx| {
        let table = hits.page_table(home);
        for ix in 0..4 {
            assert_eq!(table.get(line(ix)).access, Access::Write);
        }
        let _: u64 = ctx.read(base.add(8));
        let mut bytes = [0u8; 16];
        ctx.read_bytes(base.add(3000), &mut bytes);
        assert!(table.modified_units().is_empty(), "a read marks nothing");

        ctx.write::<u64>(base.add(2048 + 8), 5);
        assert_eq!(
            table.modified_units(),
            vec![line(2)],
            "only line 2 was written"
        );

        table.update(line(3), |e| e.access = Access::Read);
        assert!(!ctx.checked_write::<u64>(base.add(3072), 7));
        assert_eq!(
            table.modified_units(),
            vec![line(2)],
            "not writable: not marked"
        );
    });
    engine
        .run()
        .expect("hits on a home's writable lines cannot deadlock");
}

/// A plain write records one range per write on a `java_pf` page and none
/// on an `hbrc_mw` page; the inline-checked write records on a `java_ic`
/// page. All three pages sit at the writer's node, so every write is a hit.
#[test]
fn the_pages_protocol_alone_decides_whether_a_write_is_recorded() {
    let mut engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
    let (protos, _) = register_all_protocols(&rt);
    let home = NodeId(0);
    let page_under = |protocol| {
        let attr = DsmAttr::with_protocol(protocol).home(HomePolicy::Fixed(home));
        rt.dsm_malloc(PAGE_SIZE as u64, attr)
    };
    let (pf, mw, ic) = (
        page_under(protos.java_pf),
        page_under(protos.hbrc_mw),
        page_under(protos.java_ic),
    );
    rt.spawn_dsm_thread(home, "writer", move |ctx| {
        for i in 0..3 {
            ctx.write::<u64>(pf.add(8 * i), i);
            ctx.write::<u64>(mw.add(8 * i), i);
        }
        assert!(ctx.checked_write::<u32>(ic.add(4), 9));
    });
    engine.run().expect("hits at the home cannot deadlock");
    let recorded = |addr: DsmAddr| rt.frames(home).recorded_ranges(addr.page());
    assert_eq!((recorded(pf), recorded(mw), recorded(ic)), (3, 0, 1));
}

/// Node 1 writes a `li_hudak_fixed` page homed on node 0 before each of five
/// barriers; after each barrier no node has a unit marked modified.
#[test]
fn a_barrier_forgets_a_single_writer_pages_marks() {
    const BARRIERS: u64 = 5;
    let mut engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
    let _ = register_all_protocols(&rt);
    let attr = DsmAttr::with_protocol(rt.protocol_by_name("li_hudak_fixed").unwrap())
        .home(HomePolicy::Fixed(NodeId(0)));
    let base = rt.dsm_malloc(PAGE_SIZE as u64, attr);
    let barrier = rt.create_barrier(2, None);
    for node in 0..2 {
        let marks = rt.clone();
        rt.spawn_dsm_thread(NodeId(node), format!("n{node}"), move |ctx| {
            let table = marks.page_table(NodeId(node));
            for i in 0..BARRIERS {
                if node == 1 {
                    ctx.write::<u64>(base, i);
                    assert_eq!(table.modified_units(), vec![Unit::whole(base.page())]);
                }
                ctx.dsm_barrier(barrier);
                assert!(
                    table.modified_units().is_empty(),
                    "node {node}, barrier {i}: the release left the write marked"
                );
            }
        });
    }
    engine.run().expect("one writer cannot deadlock");
}
