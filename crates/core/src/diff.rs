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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset within the page.
    pub offset: usize,
    /// The new bytes.
    pub bytes: Vec<u8>,
}

/// The set of modifications made to one coherence unit since its twin was
/// created (or to one page since modification recording started).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDiff {
    /// Coherence unit the diff applies to (run offsets are page-absolute
    /// whatever the unit, so `apply` takes the full page).
    pub unit: Unit,
    /// Modified runs, sorted by offset and non-overlapping.
    pub runs: Vec<DiffRun>,
}

impl PageDiff {
    /// An empty diff for `unit`.
    pub fn empty(unit: Unit) -> Self {
        PageDiff {
            unit,
            runs: Vec::new(),
        }
    }

    /// True if nothing was modified.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of payload bytes carried by the diff (used for network costing).
    pub fn payload_bytes(&self) -> usize {
        // Each run ships its bytes plus a small (offset, length) header.
        self.runs.iter().map(|r| r.bytes.len() + 8).sum()
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
        let len = twin.len();
        assert_eq!(
            current.len(),
            len,
            "twin and copy must have the same length"
        );
        assert!(offset + len <= PAGE_SIZE, "unit escapes the page");
        let mut runs = Vec::new();
        let mut i = 0;
        while i < len {
            if twin[i] != current[i] {
                let start = i;
                while i < len && twin[i] != current[i] {
                    i += 1;
                }
                runs.push(DiffRun {
                    offset: offset + start,
                    bytes: current[start..i].to_vec(),
                });
            } else {
                i += 1;
            }
        }
        PageDiff { unit, runs }
    }

    /// Build a diff from explicitly recorded modified ranges (the
    /// on-the-fly recording used by the Java protocols), reading the new
    /// bytes from `current`.
    pub fn from_recorded_ranges(page: PageId, ranges: &[(usize, usize)], current: &[u8]) -> Self {
        assert_eq!(current.len(), PAGE_SIZE);
        let mut sorted: Vec<(usize, usize)> = ranges.to_vec();
        sorted.sort_unstable();
        // Merge overlapping or adjacent ranges.
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for (start, len) in sorted {
            assert!(start + len <= PAGE_SIZE, "recorded range escapes the page");
            if let Some(last) = merged.last_mut() {
                if start <= last.0 + last.1 {
                    let end = (start + len).max(last.0 + last.1);
                    last.1 = end - last.0;
                    continue;
                }
            }
            merged.push((start, len));
        }
        let runs = merged
            .into_iter()
            .filter(|&(_, len)| len > 0)
            .map(|(offset, len)| DiffRun {
                offset,
                bytes: current[offset..offset + len].to_vec(),
            })
            .collect();
        PageDiff {
            unit: Unit::whole(page),
            runs,
        }
    }

    /// Apply the diff to `target` (the home node's reference copy).
    pub fn apply(&self, target: &mut [u8]) {
        assert_eq!(target.len(), PAGE_SIZE, "target must be a full page");
        for run in &self.runs {
            target[run.offset..run.offset + run.bytes.len()].copy_from_slice(&run.bytes);
        }
    }

    /// Number of modified bytes.
    pub fn modified_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.bytes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
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
        use crate::page::{line_range, LineIx};
        for (line, line_size) in [(LineIx(0), PAGE_SIZE), (LineIx(3), 256)] {
            let unit = Unit::new(PageId(1), line);
            let (offset, len) = line_range(line, line_size);
            let twin = vec![0u8; len];
            let mut cur = twin.clone();
            cur[100..104].copy_from_slice(&[1, 2, 3, 4]);
            let diff = PageDiff::compute_unit(unit, offset, &twin, &cur);
            assert_eq!(diff.unit, unit);
            assert_eq!(diff.runs.len(), 1);
            assert_eq!(diff.runs[0].offset, offset + 100);
            assert_eq!(diff.runs[0].bytes, vec![1, 2, 3, 4]);
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
        let diff = PageDiff::from_recorded_ranges(PageId(3), &[(20, 10), (10, 10), (100, 4)], &cur);
        assert_eq!(diff.runs.len(), 2, "adjacent ranges merge");
        let mut home = page_of(0);
        diff.apply(&mut home);
        assert_eq!(home[10..30], cur[10..30]);
        assert_eq!(home[100..104], cur[100..104]);
        assert_eq!(home[0], 0);
    }

    #[test]
    #[should_panic(expected = "escapes the page")]
    fn recorded_range_outside_page_panics() {
        let cur = page_of(0);
        let _ = PageDiff::from_recorded_ranges(PageId(0), &[(PAGE_SIZE - 2, 4)], &cur);
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
            let diff = PageDiff::from_recorded_ranges(PageId(0), &ranges, &cur);
            let mut rebuilt = vec![0u8; PAGE_SIZE];
            diff.apply(&mut rebuilt);
            for (off, len) in &ranges {
                prop_assert_eq!(&rebuilt[*off..*off + *len], &cur[*off..*off + *len]);
            }
        }
    }
}
