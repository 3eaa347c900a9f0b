//! Per-node page frames: the actual bytes of locally mapped pages.
//!
//! The page table records *rights and ownership*; the frame store records
//! *contents*. A node holds a frame for every page it has a copy of, plus the
//! twins used by the multiple-writer protocols and the modification ranges
//! recorded by the Java protocols' `put` primitive.
//!
//! A frame is addressed by page; the part of it one coherence unit covers is
//! the unit's *span*, `(offset, len)` from [`crate::PageEntry::line_span`].
//! Under whole-page coherence that span is `(0, PAGE_SIZE)` of line 0 and
//! goes through the same operations as any other.

use std::collections::hash_map::{Entry, HashMap};

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::SliceCell;

use crate::diff::PageDiff;
use crate::page::{IdMap, LineIx, PageId, Unit, PAGE_SIZE};

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
    pub twins: HashMap<LineIx, Vec<u8>>,
    /// Explicitly recorded modified ranges `(offset, len)` (on-the-fly diff
    /// recording used by the Java protocols).
    pub recorded: Vec<(usize, usize)>,
}

impl Frame {
    fn zeroed() -> Self {
        Frame {
            data: vec![0u8; PAGE_SIZE],
            twins: HashMap::new(),
            recorded: Vec::new(),
        }
    }
}

/// All frames held by one node. Like the node's [`crate::PageTable`], a
/// store is reached by one piece of simulated code at a time, so the frames
/// sit in a [`SliceCell`] and not behind a lock.
pub struct FrameStore {
    node: NodeId,
    frames: SliceCell<IdMap<PageId, Frame>>,
}

impl FrameStore {
    /// An empty store for `node`.
    pub fn new(node: NodeId) -> Self {
        FrameStore {
            node,
            frames: SliceCell::default(),
        }
    }

    /// True if the node currently holds a copy of `page`.
    pub fn has(&self, page: PageId) -> bool {
        self.frames.borrow().contains_key(&page)
    }

    /// Make sure a zero-filled frame exists for `page` (used when a page is
    /// first allocated on its home node).
    pub fn ensure_zeroed(&self, page: PageId) {
        self.frames
            .borrow()
            .entry(page)
            .or_insert_with(Frame::zeroed);
    }

    /// Install `data` as the contents of `unit`, which covers `span` of its
    /// page (creating a zeroed frame first if the node held no copy at all).
    /// Only the span is replaced: the unit's twin is dropped and recorded
    /// ranges inside the span are forgotten, the rest of the frame is
    /// untouched.
    pub fn install(&self, unit: Unit, span: (usize, usize), data: &[u8]) {
        let (offset, len) = span;
        assert_eq!(data.len(), len, "installed unit must be {len} bytes");
        let mut frames = self.frames.borrow();
        let frame = frames.entry(unit.page).or_insert_with(Frame::zeroed);
        frame.data[offset..offset + len].copy_from_slice(data);
        frame.twins.remove(&unit.line);
        frame
            .recorded
            .retain(|&(at, _)| at < offset || at >= offset + len);
    }

    /// Drop what the node holds of an invalidated `unit` with span `span`:
    /// its twin (the modifications it tracked are dead) and, when the unit is
    /// the whole page, the frame itself — other lines of a split page may
    /// still be valid, so their frame stays. A page without a frame is left
    /// alone.
    pub fn invalidate(&self, unit: Unit, span: (usize, usize)) {
        let mut frames = self.frames.borrow();
        if span.1 == PAGE_SIZE {
            frames.remove(&unit.page);
        } else if let Some(frame) = frames.get_mut(&unit.page) {
            frame.twins.remove(&unit.line);
        }
    }

    /// Drop the local copy of `page`, returning its last contents.
    pub fn evict(&self, page: PageId) -> Option<Vec<u8>> {
        self.frames.borrow().remove(&page).map(|f| f.data)
    }

    /// Copy the bytes of `span` within `page` (for sending a coherence unit
    /// to another node).
    pub fn snapshot(&self, page: PageId, span: (usize, usize)) -> Vec<u8> {
        self.with(page, |f| f.data[span.0..span.0 + span.1].to_vec())
    }

    /// Run `f` on the `len` bytes at `offset` within `page` — the one way the
    /// typed accessors touch frame contents: `f` copies a scalar out of or
    /// into the slice, so no buffer sits in between. With `record`, the range
    /// is also logged as modified (on-the-fly diff recording, field
    /// granularity).
    pub fn with_bytes<R>(
        &self,
        page: PageId,
        offset: usize,
        len: usize,
        record: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        self.with(page, |frame| {
            if record {
                frame.recorded.push((offset, len));
            }
            f(&mut frame.data[offset..offset + len])
        })
    }

    /// Create a twin — a pristine copy of `span` — for `unit` if it has none
    /// yet. Returns true if a twin was actually created.
    pub fn make_twin(&self, unit: Unit, span: (usize, usize)) -> bool {
        self.with(unit.page, |f| match f.twins.entry(unit.line) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(f.data[span.0..span.0 + span.1].to_vec());
                true
            }
        })
    }

    /// True if `unit` currently has a twin.
    pub fn has_twin(&self, unit: Unit) -> bool {
        self.with(unit.page, |f| f.twins.contains_key(&unit.line))
    }

    /// Compute the diff of `unit`, whose span starts at byte `offset` of the
    /// page, against its twin, dropping the twin. Returns an empty diff if no
    /// twin existed. Run offsets in the result are page-absolute.
    pub fn take_twin_diff(&self, unit: Unit, offset: usize) -> PageDiff {
        self.with(unit.page, |f| match f.twins.remove(&unit.line) {
            Some(twin) => {
                let current = &f.data[offset..offset + twin.len()];
                PageDiff::compute_unit(unit, offset, &twin, current)
            }
            None => PageDiff::empty(unit),
        })
    }

    /// Build the diff of `page` from its recorded modification ranges and
    /// clear the recording.
    pub fn take_recorded_diff(&self, page: PageId) -> PageDiff {
        self.with(page, |f| {
            let ranges = std::mem::take(&mut f.recorded);
            PageDiff::from_recorded_ranges(page, &ranges, &f.data)
        })
    }

    /// True if `page` has recorded (not yet flushed) modifications.
    pub fn has_recorded(&self, page: PageId) -> bool {
        self.with(page, |f| !f.recorded.is_empty())
    }

    /// Apply `diff` to the local copy of `page` (home-node side).
    pub fn apply_diff(&self, page: PageId, diff: &PageDiff) {
        self.with(page, |f| diff.apply(&mut f.data));
    }

    /// Every page currently mapped on this node.
    pub fn pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.frames.borrow().keys().copied().collect();
        pages.sort();
        pages
    }

    fn with<R>(&self, page: PageId, f: impl FnOnce(&mut Frame) -> R) -> R {
        let mut frames = self.frames.borrow();
        let frame = frames
            .get_mut(&page)
            .unwrap_or_else(|| panic!("node {} has no frame for {page}", self.node));
        f(frame)
    }
}

impl std::fmt::Debug for FrameStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrameStore(node={}, {} pages)",
            self.node,
            self.frames.borrow().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::line_range;

    const PAGE: PageId = PageId(1);

    /// Run `check` on a store holding a zeroed [`PAGE`], once per geometry,
    /// with the unit under test and its span: the whole page, then line 1 of
    /// four 1024-byte lines.
    fn at_both_geometries(check: impl Fn(&FrameStore, Unit, (usize, usize))) {
        for (line, line_size) in [(LineIx(0), PAGE_SIZE), (LineIx(1), 1024)] {
            check(&store(), Unit::new(PAGE, line), line_range(line, line_size));
        }
    }

    fn store() -> FrameStore {
        let s = FrameStore::new(NodeId(0));
        s.ensure_zeroed(PAGE);
        s
    }

    fn read(s: &FrameStore, page: PageId, offset: usize, buf: &mut [u8]) {
        s.with_bytes(page, offset, buf.len(), false, |b| buf.copy_from_slice(b));
    }

    fn write(s: &FrameStore, page: PageId, offset: usize, bytes: &[u8]) {
        s.with_bytes(page, offset, bytes.len(), false, |b| {
            b.copy_from_slice(bytes)
        });
    }

    #[test]
    fn zeroed_frame_reads_zero() {
        let s = store();
        let mut buf = [1u8; 8];
        read(&s, PAGE, 100, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert!(s.has(PAGE));
        assert!(!s.has(PageId(2)));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let s = store();
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
            s.install(unit, span, &new);
            assert_eq!(s.snapshot(PAGE, span), new);
            assert!(!s.has_twin(unit));
            assert!(!s.has_recorded(PAGE));
            if len < PAGE_SIZE {
                // The rest of a split page is another unit's business.
                let other = Unit::new(PAGE, LineIx(0));
                write(s, PAGE, 0, &[5; 64]);
                s.make_twin(other, (0, len));
                s.with_bytes(PAGE, 16, 4, true, |b| b.fill(5));
                s.install(unit, span, &vec![3u8; len]);
                assert_eq!(s.snapshot(PAGE, (0, 4)), vec![5, 5, 5, 5]);
                assert_eq!(s.snapshot(PAGE, (offset, 2)), vec![3, 3]);
                assert!(
                    s.has_twin(other),
                    "installing one line keeps other lines' twins"
                );
                assert!(s.has_recorded(PAGE), "and their recorded ranges");
                s.install(other, (0, len), &vec![1u8; len]);
                assert!(!s.has_twin(other));
            }
            // Installing on a node with no frame creates a zeroed frame.
            let fresh = Unit::new(PageId(9), unit.line);
            s.install(fresh, span, &vec![3u8; len]);
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
            assert_eq!(diff.runs.len(), 1);
            assert_eq!(diff.runs[0].offset, offset + 4, "offsets page-absolute");
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
        let s = store();
        s.with_bytes(PAGE, 10, 2, true, |b| b.fill(1));
        s.with_bytes(PAGE, 40, 3, true, |b| b.fill(2));
        assert!(s.has_recorded(PAGE));
        let diff = s.take_recorded_diff(PAGE);
        assert_eq!(diff.runs.len(), 2);
        assert!(!s.has_recorded(PAGE));
    }

    #[test]
    fn apply_diff_updates_home_copy() {
        let s = store();
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
        let s = store();
        write(&s, PAGE, 0, &[3]);
        let data = s.evict(PAGE).unwrap();
        assert_eq!(data[0], 3);
        assert!(!s.has(PAGE));
        assert!(s.evict(PAGE).is_none());
        assert!(s.pages().is_empty());
    }

    #[test]
    #[should_panic(expected = "no frame")]
    fn reading_unmapped_page_panics() {
        let s = store();
        let mut buf = [0u8; 1];
        read(&s, PageId(99), 0, &mut buf);
    }

    #[test]
    fn installing_short_unit_panics() {
        at_both_geometries(|s, unit, span| {
            let install = std::panic::AssertUnwindSafe(|| s.install(unit, span, &[0u8; 10]));
            let message = *std::panic::catch_unwind(install)
                .unwrap_err()
                .downcast::<String>()
                .unwrap();
            assert!(message.contains(&format!("{} bytes", span.1)), "{message}");
        });
    }
}
