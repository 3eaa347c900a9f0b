//! A typed-access hit marks what it writes and nothing else.
//!
//! Release-consistency protocols flush the units their node marked modified
//! (`PageTable::modified_units`), and the hit itself does the marking, under
//! the same borrow as the store. On a page split into 1024-byte lines, all
//! of them writable at their home: a read marks no line, a write marks its
//! own line only, and a write refused on a read-only line marks nothing.

use dsm_pm2::core::{DsmAttr, DsmRuntime, HomePolicy, LineIx, Unit};
use dsm_pm2::prelude::*;

#[test]
fn a_write_hit_marks_its_own_line_and_a_read_marks_nothing() {
    let mut engine = Engine::new();
    let rt = DsmRuntime::new(&engine, Pm2Config::bip_myrinet(2));
    let _ = register_all_protocols(&rt);
    let home = NodeId(0);
    let attr = DsmAttr::with_protocol(rt.protocol_by_name("li_hudak_fixed").unwrap())
        .home(HomePolicy::Fixed(home))
        .granularity(1024);
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
        assert!(!ctx.checked_write_recorded::<u64>(base.add(3072), 7));
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
