//! Per-node page frames: the actual bytes of locally mapped pages.
//!
//! The page table records *rights and ownership*; the frame store records
//! *contents*. A node holds a frame for every page it has a copy of, plus the
//! optional twin used by the multiple-writer protocols and the modification
//! ranges recorded by the Java protocols' `put` primitive.

use std::collections::HashMap;

use parking_lot::Mutex;

use dsmpm2_madeleine::NodeId;

use crate::diff::PageDiff;
use crate::page::{IdMap, LineIx, PageId, PAGE_SIZE};

/// A locally mapped page.
///
/// One frame always holds the full `PAGE_SIZE` bytes even when the page is
/// managed at sub-page granularity: line-level *rights* in the page table
/// decide which parts of the frame are valid, while the frame itself is the
/// backing store shared by all of the page's lines. Multiple-writer twinning
/// happens per coherence unit: the whole-page `twin` at the default
/// granularity, per-line pristine copies in `line_twins` otherwise.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Current local contents.
    pub data: Vec<u8>,
    /// Pristine copy taken at the first write after an acquire (twinning).
    pub twin: Option<Vec<u8>>,
    /// Pristine per-line copies for sub-page-granularity pages, keyed by line
    /// index (each holds exactly the line's bytes).
    pub line_twins: HashMap<LineIx, Vec<u8>>,
    /// Explicitly recorded modified ranges `(offset, len)` (on-the-fly diff
    /// recording used by the Java protocols).
    pub recorded: Vec<(usize, usize)>,
}

impl Frame {
    fn zeroed() -> Self {
        Frame {
            data: vec![0u8; PAGE_SIZE],
            twin: None,
            line_twins: HashMap::new(),
            recorded: Vec::new(),
        }
    }
}

/// All frames held by one node.
pub struct FrameStore {
    node: NodeId,
    frames: Mutex<IdMap<PageId, Frame>>,
}

impl FrameStore {
    /// An empty store for `node`.
    pub fn new(node: NodeId) -> Self {
        FrameStore {
            node,
            frames: Mutex::new(IdMap::default()),
        }
    }

    /// True if the node currently holds a copy of `page`.
    pub fn has(&self, page: PageId) -> bool {
        self.frames.lock().contains_key(&page)
    }

    /// Make sure a zero-filled frame exists for `page` (used when a page is
    /// first allocated on its home node).
    pub fn ensure_zeroed(&self, page: PageId) {
        self.frames.lock().entry(page).or_insert_with(Frame::zeroed);
    }

    /// Install (or replace) the local copy of `page` with `data`.
    pub fn install(&self, page: PageId, data: Vec<u8>) {
        assert_eq!(
            data.len(),
            PAGE_SIZE,
            "installed page must be {PAGE_SIZE} bytes"
        );
        let mut frames = self.frames.lock();
        let frame = frames.entry(page).or_insert_with(Frame::zeroed);
        frame.data = data;
        frame.twin = None;
        frame.line_twins.clear();
        frame.recorded.clear();
    }

    /// Install the contents of one coherence line of `page` (creating a
    /// zeroed frame first if the node held no copy at all). Only the line's
    /// byte range is replaced; other lines of the frame are untouched, and
    /// only that line's twin is dropped.
    pub fn install_line(&self, page: PageId, line: LineIx, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= PAGE_SIZE,
            "installed line escapes the page"
        );
        let mut frames = self.frames.lock();
        let frame = frames.entry(page).or_insert_with(Frame::zeroed);
        frame.data[offset..offset + data.len()].copy_from_slice(data);
        frame.line_twins.remove(&line);
    }

    /// Drop the local copy of `page`, returning its last contents.
    pub fn evict(&self, page: PageId) -> Option<Vec<u8>> {
        self.frames.lock().remove(&page).map(|f| f.data)
    }

    /// Copy the contents of `page` (for sending it to another node).
    pub fn snapshot(&self, page: PageId) -> Vec<u8> {
        self.with(page, |f| f.data.clone())
    }

    /// Copy `len` bytes at `offset` of `page` (for sending one coherence
    /// line to another node).
    pub fn snapshot_range(&self, page: PageId, offset: usize, len: usize) -> Vec<u8> {
        self.with(page, |f| f.data[offset..offset + len].to_vec())
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

    /// Create a twin of `page` if none exists yet. Returns true if a twin was
    /// actually created.
    pub fn make_twin(&self, page: PageId) -> bool {
        self.with(page, |f| {
            if f.twin.is_none() {
                f.twin = Some(f.data.clone());
                true
            } else {
                false
            }
        })
    }

    /// True if `page` currently has a twin.
    pub fn has_twin(&self, page: PageId) -> bool {
        self.with(page, |f| f.twin.is_some())
    }

    /// Compute the diff of `page` against its twin, dropping the twin.
    /// Returns an empty diff if no twin existed.
    pub fn take_twin_diff(&self, page: PageId) -> PageDiff {
        self.with(page, |f| match f.twin.take() {
            Some(twin) => PageDiff::compute(page, &twin, &f.data),
            None => PageDiff::empty(page),
        })
    }

    /// Create a pristine twin of one coherence line of `page` if none exists
    /// yet (sub-page-granularity twinning). Returns true if a twin was
    /// actually created.
    pub fn make_line_twin(&self, page: PageId, line: LineIx, offset: usize, len: usize) -> bool {
        self.with(page, |f| {
            if f.line_twins.contains_key(&line) {
                false
            } else {
                f.line_twins
                    .insert(line, f.data[offset..offset + len].to_vec());
                true
            }
        })
    }

    /// True if line `line` of `page` currently has a twin.
    pub fn has_line_twin(&self, page: PageId, line: LineIx) -> bool {
        self.with(page, |f| f.line_twins.contains_key(&line))
    }

    /// Drop the twin of line `line` of `page` without computing a diff (the
    /// line was invalidated, so its modifications are dead).
    pub fn drop_line_twin(&self, page: PageId, line: LineIx) {
        self.with(page, |f| {
            f.line_twins.remove(&line);
        });
    }

    /// Compute the line-scoped diff of line `line` of `page` against its
    /// twin, dropping the twin. Returns an empty diff if no twin existed.
    /// `offset` is the line's base offset within the page (run offsets in the
    /// result are page-absolute).
    pub fn take_line_twin_diff(&self, page: PageId, line: LineIx, offset: usize) -> PageDiff {
        self.with(page, |f| match f.line_twins.remove(&line) {
            Some(twin) => {
                let current = &f.data[offset..offset + twin.len()];
                PageDiff::compute_range(page, line, offset, &twin, current)
            }
            None => {
                let mut d = PageDiff::empty(page);
                d.line = line;
                d
            }
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
        let mut pages: Vec<PageId> = self.frames.lock().keys().copied().collect();
        pages.sort();
        pages
    }

    fn with<R>(&self, page: PageId, f: impl FnOnce(&mut Frame) -> R) -> R {
        let mut frames = self.frames.lock();
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
            self.frames.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> FrameStore {
        let s = FrameStore::new(NodeId(0));
        s.ensure_zeroed(PageId(1));
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
        read(&s, PageId(1), 100, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert!(s.has(PageId(1)));
        assert!(!s.has(PageId(2)));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let s = store();
        write(&s, PageId(1), 8, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        read(&s, PageId(1), 8, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn install_replaces_contents_and_clears_twin() {
        let s = store();
        write(&s, PageId(1), 0, &[9]);
        s.make_twin(PageId(1));
        let new = vec![7u8; PAGE_SIZE];
        s.install(PageId(1), new.clone());
        assert_eq!(s.snapshot(PageId(1)), new);
        assert!(!s.has_twin(PageId(1)));
    }

    #[test]
    fn twin_diff_captures_writes_since_twin() {
        let s = store();
        write(&s, PageId(1), 0, &[5; 16]);
        assert!(s.make_twin(PageId(1)));
        assert!(!s.make_twin(PageId(1)), "second twin request is a no-op");
        write(&s, PageId(1), 4, &[9; 4]);
        let diff = s.take_twin_diff(PageId(1));
        assert_eq!(diff.runs.len(), 1);
        assert_eq!(diff.runs[0].offset, 4);
        assert!(!s.has_twin(PageId(1)));
        // Without a twin the diff is empty.
        assert!(s.take_twin_diff(PageId(1)).is_empty());
    }

    #[test]
    fn line_twins_are_independent_per_line() {
        let s = store();
        let line_size = 1024;
        // Twin line 1, modify lines 1 and 2; only line 1's diff sees it.
        assert!(s.make_line_twin(PageId(1), LineIx(1), line_size, line_size));
        assert!(
            !s.make_line_twin(PageId(1), LineIx(1), line_size, line_size),
            "second line-twin request is a no-op"
        );
        assert!(s.has_line_twin(PageId(1), LineIx(1)));
        assert!(!s.has_line_twin(PageId(1), LineIx(2)));
        write(&s, PageId(1), line_size + 4, &[9; 4]);
        write(&s, PageId(1), 2 * line_size, &[8; 4]);
        let diff = s.take_line_twin_diff(PageId(1), LineIx(1), line_size);
        assert_eq!(diff.line, LineIx(1));
        assert_eq!(diff.runs.len(), 1);
        assert_eq!(diff.runs[0].offset, line_size + 4, "offsets page-absolute");
        assert!(!s.has_line_twin(PageId(1), LineIx(1)));
        // Without a twin the line diff is empty.
        assert!(s
            .take_line_twin_diff(PageId(1), LineIx(1), line_size)
            .is_empty());
    }

    #[test]
    fn install_line_replaces_only_its_range() {
        let s = store();
        write(&s, PageId(1), 0, &[7; 64]);
        s.make_line_twin(PageId(1), LineIx(0), 0, 1024);
        s.install_line(PageId(1), LineIx(2), 2048, &vec![5u8; 1024]);
        assert_eq!(s.snapshot_range(PageId(1), 0, 4), vec![7, 7, 7, 7]);
        assert_eq!(s.snapshot_range(PageId(1), 2048, 2), vec![5, 5]);
        assert!(
            s.has_line_twin(PageId(1), LineIx(0)),
            "installing one line keeps other lines' twins"
        );
        s.install_line(PageId(1), LineIx(0), 0, &vec![1u8; 1024]);
        assert!(!s.has_line_twin(PageId(1), LineIx(0)));
        // Installing a line on a node with no frame creates a zeroed frame.
        s.install_line(PageId(9), LineIx(1), 1024, &vec![3u8; 1024]);
        assert_eq!(s.snapshot_range(PageId(9), 0, 1), vec![0]);
        assert_eq!(s.snapshot_range(PageId(9), 1024, 1), vec![3]);
    }

    #[test]
    fn recorded_diff_tracks_explicit_writes() {
        let s = store();
        s.with_bytes(PageId(1), 10, 2, true, |b| b.fill(1));
        s.with_bytes(PageId(1), 40, 3, true, |b| b.fill(2));
        assert!(s.has_recorded(PageId(1)));
        let diff = s.take_recorded_diff(PageId(1));
        assert_eq!(diff.runs.len(), 2);
        assert!(!s.has_recorded(PageId(1)));
    }

    #[test]
    fn apply_diff_updates_home_copy() {
        let s = store();
        let mut other = vec![0u8; PAGE_SIZE];
        other[100] = 42;
        let diff = PageDiff::compute(PageId(1), &vec![0u8; PAGE_SIZE], &other);
        s.apply_diff(PageId(1), &diff);
        let mut b = [0u8; 1];
        read(&s, PageId(1), 100, &mut b);
        assert_eq!(b[0], 42);
    }

    #[test]
    fn evict_removes_the_frame() {
        let s = store();
        write(&s, PageId(1), 0, &[3]);
        let data = s.evict(PageId(1)).unwrap();
        assert_eq!(data[0], 3);
        assert!(!s.has(PageId(1)));
        assert!(s.evict(PageId(1)).is_none());
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
    #[should_panic(expected = "4096 bytes")]
    fn installing_short_page_panics() {
        store().install(PageId(1), vec![0u8; 10]);
    }
}
