//! Per-node page frames: the actual bytes of locally mapped pages.
//!
//! The page table's entries record *rights and ownership*; a frame records
//! *contents*. A node holds a frame for every page it has a copy of, plus the
//! twins used by the multiple-writer protocols and the modification ranges
//! recorded by the Java protocols' `put` primitive. A frame sits in its
//! page's slot of the node's [`PageTable`], beside the page's entries, so a
//! typed access reaches both in one lookup; [`FrameStore`] is the frame-side
//! methods over those slots.
//!
//! A frame is addressed by page; the part of it one coherence unit covers is
//! the unit's *span*, `(offset, len)` from [`crate::PageEntry::line_span`].
//! Under whole-page coherence that span is `(0, PAGE_SIZE)` of line 0 and
//! goes through the same operations as any other.
//!
//! Page-sized buffers circulate instead of being allocated and freed: one
//! pool per run (read replication moves buffers from the owner's snapshots
//! to the readers' dropped copies) takes back those of dropped twins and
//! frames and hands them out as twins, snapshots and fresh frames; a whole
//! page received from another node becomes the frame's contents as it is.

use dsmpm2_sim::SliceCell;

use crate::diff::{DiffRun, PageDiff};
use crate::page::{LineIx, PageId, Unit, PAGE_SIZE};
use crate::page_table::PageTable;

/// A locally mapped page.
///
/// One frame always holds the full `PAGE_SIZE` bytes however the page is
/// split: the *rights* in the page table decide which lines of the frame are
/// valid, while the frame itself is the backing store shared by all of them.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Current local contents.
    pub data: Vec<u8>,
    /// Pristine copies taken at the first write after an acquire (twinning),
    /// one per twinned coherence unit, each holding exactly its span's bytes.
    /// A page has at most `PAGE_SIZE / MIN_LINE_SIZE` lines and rarely
    /// twins more than a few of them, so the list is scanned.
    pub twins: Vec<(LineIx, Vec<u8>)>,
    /// Explicitly recorded modified ranges `(offset, len)` (on-the-fly diff
    /// recording used by the Java protocols).
    pub recorded: Vec<(usize, usize)>,
}

impl Frame {
    fn holding(data: Vec<u8>) -> Self {
        Frame {
            data,
            twins: Vec::new(),
            recorded: Vec::new(),
        }
    }

    fn has_twin(&self, line: LineIx) -> bool {
        self.twins.iter().any(|(l, _)| *l == line)
    }

    fn take_twin(&mut self, line: LineIx) -> Option<Vec<u8>> {
        let at = self.twins.iter().position(|(l, _)| *l == line)?;
        Some(self.twins.swap_remove(at).1)
    }
}

/// How many idle page buffers the pool keeps per node of the run; one more
/// is freed.
const SPARE_BUFFERS: usize = 32;

/// What a run keeps so as not to allocate it again.
#[derive(Default)]
pub(crate) struct Spare {
    /// Idle buffers of capacity `PAGE_SIZE`, contents unspecified: those of
    /// the twins and frames the nodes dropped, handed out again as twins,
    /// snapshots and fresh frames. There is one kind of buffer: the twin or
    /// snapshot of a line narrower than the page takes a whole one too.
    buffers: Vec<Vec<u8>>,
    /// How many idle buffers are kept.
    cap: usize,
    /// Where a twin diff collects its runs before it knows their number.
    diff_runs: Vec<DiffRun>,
}

impl Spare {
    /// An empty pool for a run of `nodes` nodes.
    pub(crate) fn for_nodes(nodes: usize) -> Self {
        Spare {
            cap: SPARE_BUFFERS * nodes,
            ..Spare::default()
        }
    }

    /// An empty buffer with room for a page.
    fn buffer(&mut self) -> Vec<u8> {
        let mut buf = self
            .buffers
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(PAGE_SIZE));
        buf.clear();
        buf
    }

    /// A buffer holding a copy of `bytes` (at most a page).
    fn copy_of(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.buffer();
        buf.extend_from_slice(bytes);
        buf
    }

    /// A frame of `PAGE_SIZE` zero bytes.
    fn zeroed_frame(&mut self) -> Frame {
        let mut buf = self.buffer();
        buf.resize(PAGE_SIZE, 0);
        Frame::holding(buf)
    }

    /// Keep `buf` for reuse if it can hold a page and there is room.
    fn give(&mut self, buf: Vec<u8>) {
        if buf.capacity() >= PAGE_SIZE && self.buffers.len() < self.cap {
            self.buffers.push(buf);
        }
    }

    /// Take back everything a dropped frame held.
    fn give_frame(&mut self, frame: Frame) {
        self.give(frame.data);
        for (_, twin) in frame.twins {
            self.give(twin);
        }
    }
}

/// The frames of one node: the frame-side methods over the slots of its
/// [`PageTable`], with the run's pool of spare buffers — each in a
/// [`SliceCell`], as simulated code reaches them one piece at a time.
#[derive(Clone, Copy)]
pub struct FrameStore<'a> {
    table: &'a PageTable,
    spare: &'a SliceCell<Spare>,
}

impl<'a> FrameStore<'a> {
    pub(crate) fn new(table: &'a PageTable, spare: &'a SliceCell<Spare>) -> Self {
        FrameStore { table, spare }
    }

    /// True if the node currently holds a copy of `page`.
    pub fn has(&self, page: PageId) -> bool {
        let slots = self.table.slots.borrow();
        slots.pages.get(page).is_some_and(|s| s.frame.is_some())
    }

    /// Make sure a zero-filled frame exists for `page` (used when a page is
    /// first allocated on its home node).
    pub fn ensure_zeroed(&self, page: PageId) {
        self.slot(page, |frame, spare| {
            frame.get_or_insert_with(|| spare.zeroed_frame());
        });
    }

    /// Install `data` as the contents of `unit`, which covers `span` of its
    /// page. Only the span is replaced: the unit's twin is dropped and
    /// recorded ranges inside the span are forgotten, the rest of the frame
    /// is untouched. A unit that is the whole page is not copied: `data`
    /// becomes the frame's contents and the buffer it replaces is kept for
    /// reuse. A narrower unit is copied into the frame, which is created
    /// zeroed if the node held no copy of the page at all.
    pub fn install(&self, unit: Unit, span: (usize, usize), data: Vec<u8>) {
        let (offset, len) = span;
        assert_eq!(data.len(), len, "installed unit must be {len} bytes");
        self.slot(unit.page, |slot, spare| {
            let frame = if len == PAGE_SIZE {
                match slot {
                    Some(frame) => {
                        spare.give(std::mem::replace(&mut frame.data, data));
                        frame
                    }
                    None => slot.insert(Frame::holding(data)),
                }
            } else {
                let frame = slot.get_or_insert_with(|| spare.zeroed_frame());
                frame.data[offset..offset + len].copy_from_slice(&data);
                spare.give(data);
                frame
            };
            if let Some(twin) = frame.take_twin(unit.line) {
                spare.give(twin);
            }
            frame
                .recorded
                .retain(|&(at, _)| at < offset || at >= offset + len);
        });
    }

    /// Drop what the node holds of an invalidated `unit` with span `span`:
    /// its twin (the modifications it tracked are dead) and, when the unit is
    /// the whole page, the frame itself — other lines of a split page may
    /// still be valid, so their frame stays. A page without a frame is left
    /// alone.
    pub fn invalidate(&self, unit: Unit, span: (usize, usize)) {
        self.slot(unit.page, |slot, spare| {
            if span.1 == PAGE_SIZE {
                if let Some(frame) = slot.take() {
                    spare.give_frame(frame);
                }
            } else if let Some(twin) = slot.as_mut().and_then(|f| f.take_twin(unit.line)) {
                spare.give(twin);
            }
        });
    }

    /// Drop the local copy of `page`; true if there was one.
    pub fn evict(&self, page: PageId) -> bool {
        self.slot(page, |slot, spare| slot.take().map(|f| spare.give_frame(f)))
            .is_some()
    }

    /// Copy the bytes of `span` within `page` (for sending a coherence unit
    /// to another node).
    pub fn snapshot(&self, page: PageId, span: (usize, usize)) -> Vec<u8> {
        self.with(page, |f, spare| {
            spare.copy_of(&f.data[span.0..span.0 + span.1])
        })
    }

    /// Run `f` on the `len` bytes at `offset` within `page`, outside any
    /// access check (set-up and inspection; a typed access moves its bytes
    /// in its own borrow). With `record`, the range is also logged as
    /// modified (on-the-fly diff recording, field granularity).
    pub fn with_bytes<R>(
        &self,
        page: PageId,
        offset: usize,
        len: usize,
        record: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        self.with(page, |frame, _| {
            if record {
                frame.recorded.push((offset, len));
            }
            f(&mut frame.data[offset..offset + len])
        })
    }

    /// Create a twin — a pristine copy of `span` — for `unit` if it has none
    /// yet. Returns true if a twin was actually created.
    pub fn make_twin(&self, unit: Unit, span: (usize, usize)) -> bool {
        self.with(unit.page, |f, spare| {
            let twinned = f.has_twin(unit.line);
            if !twinned {
                let twin = spare.copy_of(&f.data[span.0..span.0 + span.1]);
                f.twins.push((unit.line, twin));
            }
            !twinned
        })
    }

    /// True if `unit` currently has a twin.
    pub fn has_twin(&self, unit: Unit) -> bool {
        self.with(unit.page, |f, _| f.has_twin(unit.line))
    }

    /// Compute the diff of `unit`, whose span starts at byte `offset` of the
    /// page, against its twin, dropping the twin. Returns an empty diff if no
    /// twin existed. Run offsets in the result are page-absolute.
    pub fn take_twin_diff(&self, unit: Unit, offset: usize) -> PageDiff {
        self.with(unit.page, |f, spare| match f.take_twin(unit.line) {
            Some(twin) => {
                let current = &f.data[offset..offset + twin.len()];
                let diff =
                    PageDiff::compute_unit_with(&mut spare.diff_runs, unit, offset, &twin, current);
                spare.give(twin);
                diff
            }
            None => PageDiff::empty(unit),
        })
    }

    /// Build the diff of `page` from its recorded modification ranges and
    /// clear the recording.
    pub fn take_recorded_diff(&self, page: PageId) -> PageDiff {
        self.with(page, |f, _| {
            let ranges = std::mem::take(&mut f.recorded);
            PageDiff::from_recorded_ranges(page, ranges, &f.data)
        })
    }

    /// Forget the modification ranges recorded on `page` (its home copy, which
    /// nothing merges them into, is already up to date).
    pub fn clear_recorded(&self, page: PageId) {
        self.with(page, |f, _| f.recorded.clear());
    }

    /// True if `page` has recorded (not yet flushed) modifications.
    pub fn has_recorded(&self, page: PageId) -> bool {
        self.recorded_ranges(page) > 0
    }

    /// Number of modification ranges recorded on `page` and not yet
    /// flushed, one per recorded write.
    pub fn recorded_ranges(&self, page: PageId) -> usize {
        self.with(page, |f, _| f.recorded.len())
    }

    /// Apply `diff` to the local copy of `page` (home-node side).
    pub fn apply_diff(&self, page: PageId, diff: &PageDiff) {
        self.with(page, |f, _| diff.apply(&mut f.data));
    }

    /// Every page currently mapped on this node, ascending.
    pub fn pages(&self) -> Vec<PageId> {
        let slots = self.table.slots.borrow();
        let mapped = slots.pages.iter().filter(|(_, slot)| slot.frame.is_some());
        mapped.map(|(page, _)| page).collect()
    }

    /// Run `f` on the frame slot of registered `page`, and the pool.
    fn slot<R>(&self, page: PageId, f: impl FnOnce(&mut Option<Frame>, &mut Spare) -> R) -> R {
        let mut slots = self.table.slots.borrow();
        let Some(slot) = slots.pages.get_mut(page) else {
            self.table.unknown(Unit::whole(page))
        };
        f(&mut slot.frame, &mut self.spare.borrow())
    }

    /// Run `f` on the frame of `page`, which the node must hold, and the pool.
    fn with<R>(&self, page: PageId, f: impl FnOnce(&mut Frame, &mut Spare) -> R) -> R {
        self.slot(page, |frame, spare| match frame {
            Some(frame) => f(frame, spare),
            None => panic!("node {} has no frame for {page}", self.table.node),
        })
    }
}

impl std::fmt::Debug for FrameStore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (node, pages) = (self.table.node, self.pages().len());
        write!(f, "FrameStore(node={node}, {pages} pages)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::line_range;
    use dsmpm2_madeleine::NodeId;

    const PAGE: PageId = PageId(1);

    /// A node of a one-node run: its page table, with pages `0..80`
    /// registered (whole pages: frames take spans whatever the geometry),
    /// and the run's pool.
    struct Node {
        table: PageTable,
        spare: SliceCell<Spare>,
    }

    impl Node {
        fn store(&self) -> FrameStore<'_> {
            FrameStore::new(&self.table, &self.spare)
        }
    }

    /// A node holding a zeroed [`PAGE`].
    fn node_with_page() -> Node {
        let table = PageTable::new(NodeId(0));
        for page in (0..80).map(PageId) {
            table.register_lines(page, NodeId(0), false, PAGE_SIZE);
        }
        let node = Node {
            table,
            spare: SliceCell::new(Spare::for_nodes(1)),
        };
        node.store().ensure_zeroed(PAGE);
        node
    }

    /// Run `check` on a store holding a zeroed [`PAGE`], once per geometry,
    /// with the unit under test and its span: the whole page, then line 1 of
    /// four 1024-byte lines.
    fn at_both_geometries(check: impl Fn(&FrameStore<'_>, Unit, (usize, usize))) {
        for (line, line_size) in [(LineIx(0), PAGE_SIZE), (LineIx(1), 1024)] {
            let node = node_with_page();
            check(
                &node.store(),
                Unit::new(PAGE, line),
                line_range(line, line_size),
            );
        }
    }

    fn read(s: &FrameStore<'_>, page: PageId, offset: usize, buf: &mut [u8]) {
        s.with_bytes(page, offset, buf.len(), false, |b| buf.copy_from_slice(b));
    }

    fn write(s: &FrameStore<'_>, page: PageId, offset: usize, bytes: &[u8]) {
        s.with_bytes(page, offset, bytes.len(), false, |b| {
            b.copy_from_slice(bytes)
        });
    }

    #[test]
    fn zeroed_frame_reads_zero() {
        let node = node_with_page();
        let s = node.store();
        let mut buf = [1u8; 8];
        read(&s, PAGE, 100, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert!(s.has(PAGE));
        assert!(!s.has(PageId(2)));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let node = node_with_page();
        let s = node.store();
        write(&s, PAGE, 8, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        read(&s, PAGE, 8, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    /// Installing a unit replaces exactly its span, drops exactly its twin
    /// and forgets exactly the ranges recorded inside the span.
    #[test]
    fn install_replaces_the_span_and_clears_its_twin() {
        at_both_geometries(|s, unit, span| {
            let (offset, len) = span;
            write(s, PAGE, offset, &[9]);
            s.make_twin(unit, span);
            s.with_bytes(PAGE, offset + 8, 4, true, |b| b.fill(6));
            let new = vec![7u8; len];
            s.install(unit, span, new.clone());
            assert_eq!(s.snapshot(PAGE, span), new);
            assert!(!s.has_twin(unit));
            assert!(!s.has_recorded(PAGE));
            if len < PAGE_SIZE {
                // The rest of a split page is another unit's business.
                let other = Unit::new(PAGE, LineIx(0));
                write(s, PAGE, 0, &[5; 64]);
                s.make_twin(other, (0, len));
                s.with_bytes(PAGE, 16, 4, true, |b| b.fill(5));
                s.install(unit, span, vec![3u8; len]);
                assert_eq!(s.snapshot(PAGE, (0, 4)), vec![5, 5, 5, 5]);
                assert_eq!(s.snapshot(PAGE, (offset, 2)), vec![3, 3]);
                assert!(
                    s.has_twin(other),
                    "installing one line keeps other lines' twins"
                );
                assert!(s.has_recorded(PAGE), "and their recorded ranges");
                s.install(other, (0, len), vec![1u8; len]);
                assert!(!s.has_twin(other));
            }
            // Installing on a node with no frame creates a zeroed frame.
            let fresh = Unit::new(PageId(9), unit.line);
            s.install(fresh, span, vec![3u8; len]);
            assert_eq!(s.snapshot(fresh.page, (offset, 1)), vec![3]);
            if offset > 0 {
                assert_eq!(s.snapshot(fresh.page, (0, 1)), vec![0]);
            }
        });
    }

    #[test]
    fn twin_diff_captures_writes_since_twin() {
        at_both_geometries(|s, unit, span| {
            let (offset, len) = span;
            write(s, PAGE, offset, &[5; 16]);
            assert!(s.make_twin(unit, span));
            assert!(!s.make_twin(unit, span), "second twin request is a no-op");
            assert!(s.has_twin(unit));
            write(s, PAGE, offset + 4, &[9; 4]);
            if len < PAGE_SIZE {
                // A write to the next line is not this unit's modification.
                assert!(!s.has_twin(Unit::new(PAGE, LineIx(2))));
                write(s, PAGE, offset + len, &[8; 4]);
            }
            let diff = s.take_twin_diff(unit, offset);
            assert_eq!(diff.unit, unit);
            assert_eq!(
                diff.iter().collect::<Vec<_>>(),
                [(offset + 4, &[9u8; 4][..])],
                "offsets page-absolute"
            );
            assert!(!s.has_twin(unit));
            // Without a twin the diff is empty.
            let none = s.take_twin_diff(unit, offset);
            assert!(none.is_empty());
            assert_eq!(none.unit, unit);
        });
    }

    /// Invalidating a unit kills its twin; only a unit that is the whole page
    /// takes the frame with it.
    #[test]
    fn invalidate_drops_the_twin_and_a_whole_pages_frame() {
        at_both_geometries(|s, unit, span| {
            s.make_twin(unit, span);
            s.invalidate(unit, span);
            if span.1 == PAGE_SIZE {
                assert!(!s.has(PAGE));
            } else {
                assert!(s.has(PAGE));
                assert!(!s.has_twin(unit));
            }
            s.invalidate(Unit::new(PageId(2), unit.line), span);
            assert!(!s.has(PageId(2)), "no frame: nothing to do");
        });
    }

    #[test]
    fn recorded_diff_tracks_explicit_writes() {
        let node = node_with_page();
        let s = node.store();
        s.with_bytes(PAGE, 10, 2, true, |b| b.fill(1));
        s.with_bytes(PAGE, 40, 3, true, |b| b.fill(2));
        assert!(s.has_recorded(PAGE));
        let diff = s.take_recorded_diff(PAGE);
        assert_eq!(
            diff.iter().collect::<Vec<_>>(),
            [(10, &[1u8, 1][..]), (40, &[2u8, 2, 2][..])]
        );
        assert!(!s.has_recorded(PAGE));
    }

    #[test]
    fn apply_diff_updates_home_copy() {
        let node = node_with_page();
        let s = node.store();
        let mut other = vec![0u8; PAGE_SIZE];
        other[100] = 42;
        let diff = PageDiff::compute(PAGE, &vec![0u8; PAGE_SIZE], &other);
        s.apply_diff(PAGE, &diff);
        let mut b = [0u8; 1];
        read(&s, PAGE, 100, &mut b);
        assert_eq!(b[0], 42);
    }

    #[test]
    fn evict_removes_the_frame() {
        let node = node_with_page();
        let s = node.store();
        assert!(s.evict(PAGE));
        assert!(!s.has(PAGE));
        assert!(!s.evict(PAGE));
        assert!(s.pages().is_empty());
    }

    fn spare_buffers(s: &FrameStore<'_>) -> usize {
        s.spare.borrow().buffers.len()
    }

    fn frame_of<R>(s: &FrameStore<'_>, page: PageId, f: impl FnOnce(&Frame) -> R) -> R {
        s.with(page, |frame, _| f(frame))
    }

    /// A buffer that held other bytes and was kept for reuse comes back as
    /// exactly what was asked for: a zeroed frame, a twin equal to the span,
    /// a snapshot equal to the span — no stale byte, no stale length.
    #[test]
    fn recycled_buffers_carry_nothing_over() {
        at_both_geometries(|s, unit, span| {
            let (offset, len) = span;
            // Three buffers full of 0xAA go back: a frame's and two twins'.
            write(s, PAGE, 0, &[0xAA; PAGE_SIZE]);
            assert!(s.make_twin(unit, span));
            assert!(s.make_twin(Unit::new(PAGE, LineIx(9)), (0, PAGE_SIZE)));
            assert!(s.evict(PAGE));
            assert_eq!(spare_buffers(s), 3);

            s.ensure_zeroed(PAGE);
            assert_eq!(spare_buffers(s), 2, "the frame is a recycled buffer");
            assert_eq!(s.snapshot(PAGE, (0, PAGE_SIZE)), vec![0u8; PAGE_SIZE]);
            assert_eq!(spare_buffers(s), 1, "and so was that snapshot");

            let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            write(s, PAGE, offset, &pattern);
            assert!(s.make_twin(unit, span));
            assert_eq!(spare_buffers(s), 0);
            assert_eq!(frame_of(s, PAGE, |f| f.twins[0].1.clone()), pattern);
            // The twin's buffer returns and is the next snapshot.
            assert!(s.take_twin_diff(unit, offset).is_empty());
            assert_eq!(spare_buffers(s), 1);
            assert_eq!(s.snapshot(PAGE, (offset + 8, 16)), pattern[8..24]);
            assert_eq!(spare_buffers(s), 0);
            // With nothing to recycle the results are the same.
            assert_eq!(s.snapshot(PAGE, span), pattern);
            s.ensure_zeroed(PageId(2));
            assert_eq!(s.snapshot(PageId(2), span), vec![0u8; len]);
        });
    }

    /// What a store keeps is bounded, and only buffers that can hold a page
    /// are kept.
    #[test]
    fn spare_buffers_are_capped() {
        let node = node_with_page();
        let s = node.store();
        for page in 10..10 + 2 * SPARE_BUFFERS as u64 {
            s.ensure_zeroed(PageId(page));
            s.make_twin(Unit::whole(PageId(page)), (0, PAGE_SIZE));
        }
        for page in 10..10 + 2 * SPARE_BUFFERS as u64 {
            s.invalidate(Unit::whole(PageId(page)), (0, PAGE_SIZE));
            assert!(spare_buffers(&s) <= SPARE_BUFFERS);
        }
        assert_eq!(spare_buffers(&s), SPARE_BUFFERS);
        assert_eq!(
            Spare::for_nodes(3).cap,
            3 * SPARE_BUFFERS,
            "per node of the run"
        );
        let fresh = node_with_page();
        let s = fresh.store();
        let line = Unit::new(PAGE, LineIx(1));
        s.install(line, (1024, 1024), vec![1u8; 1024]);
        assert_eq!(spare_buffers(&s), 0, "a line-sized buffer is not kept");
    }

    /// A whole page is installed by adoption: the frame's contents are the
    /// very buffer that was handed in, and the one it replaces is kept.
    #[test]
    fn whole_page_install_adopts_the_buffer() {
        let node = node_with_page();
        let s = node.store();
        let whole = (0, PAGE_SIZE);
        for page in [PAGE, PageId(7)] {
            let data = vec![7u8; PAGE_SIZE];
            let address = data.as_ptr();
            s.install(Unit::whole(page), whole, data);
            frame_of(&s, page, |frame| {
                assert_eq!(frame.data.as_ptr(), address);
                assert_eq!(frame.data, vec![7u8; PAGE_SIZE]);
            });
            // Only `PAGE` had a frame whose buffer could be replaced.
            assert_eq!(spare_buffers(&s), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no frame")]
    fn reading_unmapped_page_panics() {
        let node = node_with_page();
        let s = node.store();
        let mut buf = [0u8; 1];
        read(&s, PageId(2), 0, &mut buf);
    }

    #[test]
    fn installing_short_unit_panics() {
        at_both_geometries(|s, unit, span| {
            let install = std::panic::AssertUnwindSafe(|| s.install(unit, span, vec![0u8; 10]));
            let message = *std::panic::catch_unwind(install)
                .unwrap_err()
                .downcast::<String>()
                .unwrap();
            assert!(message.contains(&format!("{} bytes", span.1)), "{message}");
        });
    }
}
