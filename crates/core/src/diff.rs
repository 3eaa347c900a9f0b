//! Twins and diffs.
//!
//! Multiple-writer protocols (the paper's `hbrc_mw`, `java_ic`, `java_pf`)
//! let several nodes modify private copies of the same page concurrently and
//! reconcile at release time by shipping *diffs* to the page's home node.
//! A diff is computed either against a *twin* (a pristine copy of the page
//! saved at the first write fault, the "classical twinning technique"), or
//! recorded on the fly with word/field granularity when accesses go through
//! explicit `put` primitives (the Hyperion path).

use crate::page::{PageId, Unit, PAGE_SIZE};

/// One modified run of bytes within a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset within the page.
    pub offset: usize,
    /// Number of modified bytes.
    pub len: usize,
}

/// The set of modifications made to one coherence unit since its twin was
/// created (or to one page since modification recording started).
///
/// A diff of any number of runs is two buffers: the run headers, and the new
/// bytes of every run back to back in run order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDiff {
    /// Coherence unit the diff applies to (run offsets are page-absolute
    /// whatever the unit, so `apply` takes the full page).
    pub unit: Unit,
    /// Modified runs, sorted by offset, non-overlapping and non-adjacent.
    runs: Vec<DiffRun>,
    /// The new bytes of the runs, concatenated: `runs[i]` owns the `len`
    /// bytes that follow those of `runs[..i]`.
    bytes: Vec<u8>,
}

/// Call `emit(start, len)` for every maximal run of positions at which `twin`
/// and `current` (of equal length) differ, in increasing order — the runs a
/// byte-by-byte comparison finds, found without looking at most bytes: equal
/// 64-byte blocks are skipped whole, a block that differs is read a machine
/// word at a time, and a word that differs is reduced to one bit per byte, of
/// which only the transitions are visited.
#[inline]
fn for_each_run(twin: &[u8], current: &[u8], mut emit: impl FnMut(usize, usize)) {
    const WORD: usize = std::mem::size_of::<u64>();
    const BLOCK: usize = 8 * WORD;
    /// Up to a word of bytes, the missing ones zero: the first byte is bits
    /// 0-7 whatever the host's endianness.
    fn load(bytes: &[u8]) -> u64 {
        let mut word = [0u8; WORD];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    }
    /// Bit `i` set iff byte `i` of `xor` is non-zero.
    fn differing_bytes(xor: u64) -> u32 {
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        // The top bit of each byte: set by the carry out of its low seven
        // bits or by the byte's own top bit, so set iff the byte is non-zero.
        let top = (((xor & LOW7) + LOW7) | xor) & !LOW7;
        // Eight bits 8 apart, each 0 or 1, gathered into the top byte: the
        // partial products never collide, so no carry crosses between them.
        ((top >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
    }
    // Start of the run that reaches the position being looked at.
    let mut open: Option<usize> = None;
    // Account for the word at `at`, `xor` being twin ^ current there.
    let mut word = |at: usize, xor: u64| {
        if xor == 0 {
            if let Some(start) = open.take() {
                emit(start, at - start);
            }
            return;
        }
        let differs = differing_bytes(xor);
        let mut byte = 0;
        loop {
            let start = match open.take() {
                Some(start) => start,
                None if differs >> byte == 0 => return,
                None => {
                    byte += (differs >> byte).trailing_zeros();
                    at + byte as usize
                }
            };
            byte += (!(differs >> byte)).trailing_zeros();
            if byte as usize >= WORD {
                // The run reaches the end of the word: the next one goes on.
                open = Some(start);
                return;
            }
            emit(start, at + byte as usize - start);
        }
    };
    let mut twin_blocks = twin.chunks_exact(BLOCK);
    let mut current_blocks = current.chunks_exact(BLOCK);
    let mut at = 0;
    for (t, c) in (&mut twin_blocks).zip(&mut current_blocks) {
        if t == c {
            word(at, 0);
        } else {
            for (i, (t, c)) in t.chunks_exact(WORD).zip(c.chunks_exact(WORD)).enumerate() {
                word(at + i * WORD, load(t) ^ load(c));
            }
        }
        at += BLOCK;
    }
    // Less than a block is left, and its last word may be short.
    let tail = twin_blocks.remainder().chunks(WORD);
    for (i, (t, c)) in tail
        .zip(current_blocks.remainder().chunks(WORD))
        .enumerate()
    {
        word(at + i * WORD, load(t) ^ load(c));
    }
    word(twin.len(), 0);
}

impl PageDiff {
    /// An empty diff for `unit`.
    pub fn empty(unit: Unit) -> Self {
        PageDiff {
            unit,
            runs: Vec::new(),
            bytes: Vec::new(),
        }
    }

    /// True if nothing was modified.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The modified runs, sorted by page-absolute offset.
    pub fn runs(&self) -> &[DiffRun] {
        &self.runs
    }

    /// Every run as `(page-absolute offset, new bytes)`, in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut rest = self.bytes.as_slice();
        self.runs.iter().map(move |run| {
            let (bytes, tail) = rest.split_at(run.len);
            rest = tail;
            (run.offset, bytes)
        })
    }

    /// Number of payload bytes carried by the diff (used for network costing).
    pub fn payload_bytes(&self) -> usize {
        // Each run ships its bytes plus a small (offset, length) header.
        self.bytes.len() + 8 * self.runs.len()
    }

    /// Compute the diff between a pristine `twin` and the `current` contents
    /// of a whole page: [`PageDiff::compute_unit`] for the unit that is the
    /// page.
    pub fn compute(page: PageId, twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be a full page");
        Self::compute_unit(Unit::whole(page), 0, twin, current)
    }

    /// Compute the diff between the pristine `twin` and the `current`
    /// contents of `unit`, whose span starts at byte `offset` of the page.
    /// Adjacent modified bytes are coalesced into runs; run offsets are
    /// page-absolute, so the diff applies to a full-page reference copy
    /// whatever the unit's size.
    pub fn compute_unit(unit: Unit, offset: usize, twin: &[u8], current: &[u8]) -> Self {
        let mut runs = Vec::new();
        let bytes = Self::scan(&mut runs, offset, twin, current);
        PageDiff { unit, runs, bytes }
    }

    /// [`PageDiff::compute_unit`] with the run headers collected in `scratch`
    /// (whose contents are lost) and copied out at their exact number: with a
    /// scratch that has grown to its working size the diff costs two
    /// allocations however many runs it has, and none if it is empty.
    pub(crate) fn compute_unit_with(
        scratch: &mut Vec<DiffRun>,
        unit: Unit,
        offset: usize,
        twin: &[u8],
        current: &[u8],
    ) -> Self {
        let bytes = Self::scan(scratch, offset, twin, current);
        PageDiff {
            unit,
            runs: scratch.clone(),
            bytes,
        }
    }

    /// Replace the contents of `runs` by the runs in which `current` differs
    /// from `twin`, both the span that starts at byte `offset` of the page,
    /// and return the new bytes of those runs.
    fn scan(runs: &mut Vec<DiffRun>, offset: usize, twin: &[u8], current: &[u8]) -> Vec<u8> {
        let len = twin.len();
        assert_eq!(
            current.len(),
            len,
            "twin and copy must have the same length"
        );
        assert!(offset + len <= PAGE_SIZE, "unit escapes the page");
        runs.clear();
        let mut modified = 0;
        for_each_run(twin, current, |start, len| {
            runs.push(DiffRun {
                offset: offset + start,
                len,
            });
            modified += len;
        });
        let mut bytes = Vec::with_capacity(modified);
        for run in runs.iter() {
            let start = run.offset - offset;
            bytes.extend_from_slice(&current[start..start + run.len]);
        }
        bytes
    }

    /// Build a diff from explicitly recorded modified ranges `(offset, len)`
    /// (the on-the-fly recording used by the Java protocols), reading the new
    /// bytes from `current`. Overlapping and adjacent ranges merge.
    pub fn from_recorded_ranges(
        page: PageId,
        mut ranges: Vec<(usize, usize)>,
        current: &[u8],
    ) -> Self {
        assert_eq!(current.len(), PAGE_SIZE);
        assert!(
            ranges.iter().all(|&(start, len)| start + len <= PAGE_SIZE),
            "recorded range escapes the page"
        );
        ranges.retain(|&(_, len)| len > 0);
        if !ranges.is_sorted() {
            ranges.sort_unstable();
        }
        // Merge in place: a range that starts inside or right after the one
        // kept before it extends that one.
        ranges.dedup_by(|next, kept| {
            let end = kept.0 + kept.1;
            let merges = next.0 <= end;
            if merges {
                kept.1 = end.max(next.0 + next.1) - kept.0;
            }
            merges
        });
        let mut bytes = Vec::with_capacity(ranges.iter().map(|&(_, len)| len).sum());
        let runs = ranges
            .iter()
            .map(|&(offset, len)| {
                bytes.extend_from_slice(&current[offset..offset + len]);
                DiffRun { offset, len }
            })
            .collect();
        PageDiff {
            unit: Unit::whole(page),
            runs,
            bytes,
        }
    }

    /// Apply the diff to `target` (the home node's reference copy).
    pub fn apply(&self, target: &mut [u8]) {
        assert_eq!(target.len(), PAGE_SIZE, "target must be a full page");
        for (offset, bytes) in self.iter() {
            target[offset..offset + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Number of modified bytes.
    pub fn modified_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{line_range, LineIx};
    use proptest::prelude::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    /// The byte-at-a-time comparison the word-wise kernel replaced, one
    /// buffer per run: the reference `compute_unit` is checked against.
    fn reference_runs(offset: usize, twin: &[u8], current: &[u8]) -> Vec<(usize, Vec<u8>)> {
        let len = twin.len();
        let mut runs = Vec::new();
        let mut i = 0;
        while i < len {
            if twin[i] != current[i] {
                let start = i;
                while i < len && twin[i] != current[i] {
                    i += 1;
                }
                runs.push((offset + start, current[start..i].to_vec()));
            } else {
                i += 1;
            }
        }
        runs
    }

    /// `compute_unit` yields the reference's runs, bytes and payload size.
    fn assert_matches_reference(unit: Unit, offset: usize, twin: &[u8], current: &[u8]) {
        let diff = PageDiff::compute_unit(unit, offset, twin, current);
        let reference = reference_runs(offset, twin, current);
        let runs: Vec<(usize, Vec<u8>)> = diff.iter().map(|(at, b)| (at, b.to_vec())).collect();
        assert_eq!(runs, reference);
        let lens: Vec<usize> = diff.runs().iter().map(|r| r.len).collect();
        assert_eq!(
            lens,
            reference.iter().map(|(_, b)| b.len()).collect::<Vec<_>>()
        );
        let modified: usize = reference.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(diff.modified_bytes(), modified);
        assert_eq!(diff.payload_bytes(), modified + 8 * reference.len());
        assert_eq!(diff.is_empty(), reference.is_empty());
    }

    #[test]
    fn identical_pages_produce_empty_diff() {
        let twin = page_of(7);
        let diff = PageDiff::compute(PageId(0), &twin, &twin);
        assert!(diff.is_empty());
        assert_eq!(diff.modified_bytes(), 0);
        assert_eq!(diff.payload_bytes(), 0);
    }

    /// One changed word is one small run at its page-absolute offset, for
    /// the unit that is the page and for a 256-byte line in the middle of it.
    #[test]
    fn single_word_change_is_one_small_run() {
        for (line, line_size) in [(LineIx(0), PAGE_SIZE), (LineIx(3), 256)] {
            let unit = Unit::new(PageId(1), line);
            let (offset, len) = line_range(line, line_size);
            let twin = vec![0u8; len];
            let mut cur = twin.clone();
            cur[100..104].copy_from_slice(&[1, 2, 3, 4]);
            let diff = PageDiff::compute_unit(unit, offset, &twin, &cur);
            assert_eq!(diff.unit, unit);
            assert_eq!(
                diff.iter().collect::<Vec<_>>(),
                [(offset + 100, &[1u8, 2, 3, 4][..])]
            );
            assert_eq!(
                diff.runs(),
                [DiffRun {
                    offset: offset + 100,
                    len: 4
                }]
            );
            assert_eq!(diff.modified_bytes(), 4);
            assert!(diff.payload_bytes() < 64);
            let mut home = page_of(0);
            diff.apply(&mut home);
            assert_eq!(home[offset + 100..offset + 104], [1, 2, 3, 4]);
            assert_eq!(home.iter().filter(|&&b| b != 0).count(), 4);
        }
        // `compute` is the whole-page unit of the same loop.
        let (twin, cur) = (page_of(0), page_of(1));
        let whole = Unit::whole(PageId(1));
        assert_eq!(
            PageDiff::compute(whole.page, &twin, &cur),
            PageDiff::compute_unit(whole, 0, &twin, &cur)
        );
    }

    /// Runs that start and end on word boundaries, inside a word, straddle
    /// one or several words, or sit in a tail shorter than a word, are the
    /// reference's — as are no run at all and one run covering everything.
    #[test]
    fn word_wise_scan_matches_the_byte_loop_at_word_edges() {
        let unit = Unit::new(PageId(0), LineIx(1));
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 61, 256] {
            let twin = vec![0x55u8; len];
            assert_matches_reference(unit, 256, &twin, &twin);
            assert_matches_reference(unit, 256, &twin, &vec![0xAAu8; len]);
            for start in 0..len.min(26) {
                for end in start + 1..=len.min(start + 19) {
                    let mut cur = twin.clone();
                    cur[start..end].fill(9);
                    assert_matches_reference(unit, 256, &twin, &cur);
                    // A second run one equal byte further on.
                    if end + 1 < len {
                        cur[end + 1] = 3;
                        assert_matches_reference(unit, 256, &twin, &cur);
                    }
                }
            }
        }
    }

    #[test]
    fn apply_reproduces_the_modified_page() {
        let twin = page_of(0xAA);
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[500..600].fill(2);
        cur[PAGE_SIZE - 1] = 3;
        let diff = PageDiff::compute(PageId(2), &twin, &cur);
        let mut home = twin.clone();
        diff.apply(&mut home);
        assert_eq!(home, cur);
    }

    #[test]
    fn recorded_ranges_merge_and_apply() {
        let mut cur = page_of(0);
        cur[10..20].fill(5);
        cur[20..30].fill(6);
        cur[100..104].fill(7);
        let ranges = vec![(20, 10), (10, 10), (100, 4), (50, 0), (12, 3)];
        let diff = PageDiff::from_recorded_ranges(PageId(3), ranges, &cur);
        assert_eq!(
            diff.runs(),
            [
                DiffRun {
                    offset: 10,
                    len: 20
                },
                DiffRun {
                    offset: 100,
                    len: 4
                }
            ],
            "adjacent and nested ranges merge, empty ones vanish"
        );
        assert_eq!(diff.modified_bytes(), 24);
        let mut home = page_of(0);
        diff.apply(&mut home);
        assert_eq!(home[10..30], cur[10..30]);
        assert_eq!(home[100..104], cur[100..104]);
        assert_eq!(home[0], 0);
        // Ranges recorded in order need no sort and give the same diff.
        let ordered = vec![(10, 10), (12, 3), (20, 10), (100, 4)];
        assert_eq!(
            PageDiff::from_recorded_ranges(PageId(3), ordered, &cur),
            diff
        );
    }

    #[test]
    #[should_panic(expected = "escapes the page")]
    fn recorded_range_outside_page_panics() {
        let cur = page_of(0);
        let _ = PageDiff::from_recorded_ranges(PageId(0), vec![(PAGE_SIZE - 2, 4)], &cur);
    }

    #[test]
    fn empty_diff_constructor() {
        let d = PageDiff::empty(Unit::whole(PageId(9)));
        assert!(d.is_empty());
        assert_eq!(d.unit.page, PageId(9));
    }

    proptest! {
        /// Twin + diff == current, for arbitrary modifications (the key
        /// correctness property of the multiple-writer protocols).
        #[test]
        fn prop_diff_apply_roundtrip(
            seed_twin in any::<u8>(),
            writes in proptest::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..200)
        ) {
            let twin = vec![seed_twin; PAGE_SIZE];
            let mut cur = twin.clone();
            for (pos, val) in writes {
                cur[pos] = val;
            }
            let diff = PageDiff::compute(PageId(0), &twin, &cur);
            let mut rebuilt = twin.clone();
            diff.apply(&mut rebuilt);
            prop_assert_eq!(rebuilt, cur);
        }

        /// The word-wise kernel equals the byte loop — same runs, same bytes,
        /// same payload — for the whole page and for 256 B and 1 KiB lines at
        /// non-zero offsets, whose span is cut to a length that is no
        /// multiple of the word; `fills` paints ranges that start, end on and
        /// straddle word boundaries, `writes` scatters single bytes (some of
        /// them equal to the twin's). Applying the diff to a copy of the twin
        /// page gives the current page.
        #[test]
        fn prop_kernel_matches_byte_loop(
            shape in (0usize..3, 1usize..4, 0usize..8, 0usize..8),
            seed_twin in any::<u8>(),
            fills in proptest::collection::vec((0usize..PAGE_SIZE, 1usize..40, any::<u8>()), 0..12),
            writes in proptest::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..60),
        ) {
            let (geometry, line, cut, extreme) = shape;
            let line_size = [PAGE_SIZE, 1024, 256][geometry];
            let line = if line_size == PAGE_SIZE { LineIx(0) } else { LineIx(line as u16) };
            let unit = Unit::new(PageId(4), line);
            let (offset, full) = line_range(line, line_size);
            let len = full - cut;
            let twin: Vec<u8> = (0..len).map(|i| seed_twin.wrapping_add((i / 3) as u8)).collect();
            let mut cur = twin.clone();
            for (at, n, val) in fills {
                let at = at % len;
                let end = (at + n).min(len);
                cur[at..end].fill(val);
            }
            for (at, val) in writes {
                cur[at % len] = val;
            }
            match extreme {
                0 => cur.copy_from_slice(&twin),
                1 => cur.iter_mut().for_each(|b| *b = !*b),
                _ => {}
            }
            assert_matches_reference(unit, offset, &twin, &cur);
            let mut twin_page = page_of(seed_twin);
            twin_page[offset..offset + len].copy_from_slice(&twin);
            let mut cur_page = twin_page.clone();
            cur_page[offset..offset + len].copy_from_slice(&cur);
            PageDiff::compute_unit(unit, offset, &twin, &cur).apply(&mut twin_page);
            prop_assert_eq!(twin_page, cur_page);
        }

        /// Diffs of concurrent writers to disjoint ranges commute: applying
        /// both (in either order) yields the same merged page. This is the
        /// property the home-based MRMW protocols rely on.
        #[test]
        fn prop_disjoint_diffs_commute(
            cut in 1usize..(PAGE_SIZE - 1),
            a in any::<u8>(),
            b in any::<u8>(),
        ) {
            let base = vec![0u8; PAGE_SIZE];
            let mut writer1 = base.clone();
            writer1[..cut].fill(a.wrapping_add(1));
            let mut writer2 = base.clone();
            writer2[cut..].fill(b.wrapping_add(1));
            let d1 = PageDiff::compute(PageId(0), &base, &writer1);
            let d2 = PageDiff::compute(PageId(0), &base, &writer2);

            let mut order1 = base.clone();
            d1.apply(&mut order1);
            d2.apply(&mut order1);
            let mut order2 = base.clone();
            d2.apply(&mut order2);
            d1.apply(&mut order2);
            prop_assert_eq!(order1, order2);
        }

        /// Recorded-range diffs never lose a recorded write.
        #[test]
        fn prop_recorded_ranges_cover_writes(
            ranges in proptest::collection::vec((0usize..(PAGE_SIZE - 16), 1usize..16), 1..40)
        ) {
            let mut cur = vec![0u8; PAGE_SIZE];
            for (i, (off, len)) in ranges.iter().enumerate() {
                for b in 0..*len {
                    cur[off + b] = (i as u8).wrapping_add(1);
                }
            }
            let diff = PageDiff::from_recorded_ranges(PageId(0), ranges.clone(), &cur);
            let mut rebuilt = vec![0u8; PAGE_SIZE];
            diff.apply(&mut rebuilt);
            for (off, len) in &ranges {
                prop_assert_eq!(&rebuilt[*off..*off + *len], &cur[*off..*off + *len]);
            }
        }
    }
}
