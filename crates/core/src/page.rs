//! Pages, addresses and access rights.
//!
//! DSM-PM2 is a page-based DSM: the shared address space is divided into
//! fixed-size pages, each managed individually by the page manager and the
//! consistency protocols. Addresses are cluster-wide iso-addresses, handed
//! out from [`SHARED_BASE`] up by `DsmRuntime::dsm_malloc`, so a [`DsmAddr`]
//! designates the same datum on every node.
//!
//! What the runtime keeps per page sits in a [`PageMap`], indexed by page
//! number rather than hashed: shared pages are handed out contiguously, so a
//! page's entry is reached the way a page manager reaches it — by position.

use std::fmt;

/// Size of a DSM page in bytes. The paper's measurements use common 4 kB pages.
pub const PAGE_SIZE: usize = 4096;

/// The first shared iso-address: `dsm_malloc` hands out page-aligned regions
/// back to back from here.
pub const SHARED_BASE: u64 = 0x0000_1000_0000_0000;

/// Smallest supported coherence-line size, in bytes. Lines below this would
/// explode the per-page entry count (and the paper's own argument for
/// sub-page units is false sharing between *objects*, not between bytes).
pub const MIN_LINE_SIZE: usize = 64;

/// Index of a coherence line within its page.
///
/// The coherence unit of a page is either the whole page (the default — the
/// page then consists of exactly one line, line 0, spanning all of
/// [`PAGE_SIZE`]) or one of `PAGE_SIZE / granularity` equal-sized lines when
/// the region was allocated with a sub-page granularity. Every piece of
/// per-unit protocol state (rights, ownership, copysets, twins, versions) is
/// keyed by [`Unit`], so at the default granularity the historical
/// page-level behaviour is reproduced bit-for-bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineIx(pub u16);

/// Line 0: the whole page at page granularity, the first line otherwise.
pub const LINE0: LineIx = LineIx(0);

impl LineIx {
    /// Raw line index as a usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LineIx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for LineIx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A coherence unit: line `line` of page `page` — *the* key of the page
/// table, of twins, and of every protocol message and library routine. Under
/// whole-page coherence a page is its one unit, [`Unit::whole`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Unit {
    /// The page.
    pub page: PageId,
    /// The line within the page.
    pub line: LineIx,
}

impl Unit {
    /// Line `line` of `page`.
    pub fn new(page: PageId, line: LineIx) -> Self {
        Unit { page, line }
    }

    /// The unit of a page that is one line: what protocols that only manage
    /// whole pages address when they walk bound pages, cached frames or
    /// write notices.
    pub fn whole(page: PageId) -> Self {
        Unit { page, line: LINE0 }
    }

    /// Every unit of `page` when it is split into `line_size`-byte lines.
    pub fn all_of(page: PageId, line_size: usize) -> impl Iterator<Item = Unit> {
        (0..lines_per_page(line_size)).map(move |ix| Unit::new(page, LineIx(ix)))
    }
}

/// Check that `line_size` is a valid coherence-line size: it must divide
/// [`PAGE_SIZE`] evenly and be at least [`MIN_LINE_SIZE`]. Returns it back.
pub fn validate_line_size(line_size: usize) -> usize {
    assert!(
        (MIN_LINE_SIZE..=PAGE_SIZE).contains(&line_size),
        "coherence granularity {line_size} out of range [{MIN_LINE_SIZE}, {PAGE_SIZE}]"
    );
    assert!(
        PAGE_SIZE.is_multiple_of(line_size),
        "coherence granularity {line_size} does not divide the page size {PAGE_SIZE}"
    );
    line_size
}

/// Number of lines per page at `line_size` granularity.
pub fn lines_per_page(line_size: usize) -> u16 {
    (PAGE_SIZE / line_size) as u16
}

/// The line containing byte `offset` of a page split into `line_size` lines.
/// A shift, not a division: every line size the runtime admits divides
/// [`PAGE_SIZE`] and so is a power of two.
#[inline]
pub fn line_of_offset(offset: usize, line_size: usize) -> LineIx {
    debug_assert!(offset < PAGE_SIZE);
    debug_assert!(line_size.is_power_of_two());
    LineIx((offset >> line_size.trailing_zeros()) as u16)
}

/// Byte range `(offset, len)` of `line` within its page.
pub fn line_range(line: LineIx, line_size: usize) -> (usize, usize) {
    (line.index() * line_size, line_size)
}

/// A table with one slot per page, for what the runtime keeps per DSM page
/// (the directory, each node's page table and the frames in it). DSM pages
/// are dense: `dsm_malloc` bumps page-aligned ranges up from
/// [`SHARED_BASE`], so slot `i` holds page `base + i` and a lookup is one
/// subtraction and one bounds check — no hashing, no probing. A page below
/// the base wraps to an index past the end, so a page outside every slot is
/// simply absent. The base is the lowest page ever given a slot: a page
/// below it (a node may receive pages in any order) shifts the slots up.
#[derive(Debug)]
pub(crate) struct PageMap<T> {
    /// Page number of slot 0.
    base: u64,
    slots: Vec<Option<T>>,
}

impl<T> Default for PageMap<T> {
    fn default() -> Self {
        PageMap {
            base: 0,
            slots: Vec::new(),
        }
    }
}

impl<T> PageMap<T> {
    #[inline(always)]
    fn index(&self, page: PageId) -> usize {
        page.0.wrapping_sub(self.base) as usize
    }

    /// The value of `page`, if it has one.
    #[inline(always)]
    pub fn get(&self, page: PageId) -> Option<&T> {
        self.slots.get(self.index(page))?.as_ref()
    }

    /// The value of `page`, mutably, if it has one.
    #[inline(always)]
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut T> {
        let at = self.index(page);
        self.slots.get_mut(at)?.as_mut()
    }

    /// The slot of `page`, created empty (with any slot between it and the
    /// others) if the map did not reach it.
    pub fn slot(&mut self, page: PageId) -> &mut Option<T> {
        if self.slots.is_empty() {
            self.base = page.0;
        } else if page.0 < self.base {
            let shift = (self.base - page.0) as usize;
            self.slots
                .splice(0..0, std::iter::repeat_with(|| None).take(shift));
            self.base = page.0;
        }
        let at = self.index(page);
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        &mut self.slots[at]
    }

    /// Give `page` the value `value`, returning the one it replaces.
    pub fn insert(&mut self, page: PageId, value: T) -> Option<T> {
        self.slot(page).replace(value)
    }

    /// Every page with a value, ascending, with its value.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| Some((PageId(base + i as u64), slot.as_ref()?)))
    }

    /// Number of pages with a value.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }
}

/// A cluster-wide shared-memory address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DsmAddr(pub u64);

/// Identity of a DSM page.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Access rights of a node on a page, as recorded in its page table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord, Default)]
pub enum Access {
    /// The page is not mapped locally: any access faults.
    #[default]
    None,
    /// Read-only copy: writes fault.
    Read,
    /// Full access (the node is the writer or holds a writable replica).
    Write,
}

impl Access {
    /// True if rights `self` are sufficient to perform an access of kind
    /// `needed` (where `needed` is `Read` or `Write`).
    pub fn permits(self, needed: Access) -> bool {
        match needed {
            Access::None => true,
            Access::Read => self >= Access::Read,
            Access::Write => self == Access::Write,
        }
    }
}

impl DsmAddr {
    /// The page containing this address.
    pub fn page(self) -> PageId {
        PageId(self.0 / PAGE_SIZE as u64)
    }

    /// Byte offset of this address within its page.
    pub fn offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// Address `bytes` further.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> DsmAddr {
        DsmAddr(self.0 + bytes)
    }

    /// Raw address value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl PageId {
    /// First address of the page.
    pub fn base(self) -> DsmAddr {
        DsmAddr(self.0 * PAGE_SIZE as u64)
    }

    /// Raw page number.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for DsmAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for DsmAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u64> for DsmAddr {
    fn from(value: u64) -> Self {
        DsmAddr(value)
    }
}

/// Enumerate the pages covered by the byte range `[start, start + len)`.
pub fn pages_covering(start: DsmAddr, len: u64) -> Vec<PageId> {
    if len == 0 {
        return Vec::new();
    }
    let first = start.page().0;
    let last = DsmAddr(start.0 + len - 1).page().0;
    (first..=last).map(PageId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_to_page_and_offset() {
        let a = DsmAddr(4096 * 3 + 17);
        assert_eq!(a.page(), PageId(3));
        assert_eq!(a.offset(), 17);
        assert_eq!(PageId(3).base(), DsmAddr(4096 * 3));
        assert_eq!(a.add(4096).page(), PageId(4));
    }

    #[test]
    fn access_ordering_and_permits() {
        assert!(Access::Write.permits(Access::Read));
        assert!(Access::Write.permits(Access::Write));
        assert!(Access::Read.permits(Access::Read));
        assert!(!Access::Read.permits(Access::Write));
        assert!(!Access::None.permits(Access::Read));
        assert!(Access::None.permits(Access::None));
        assert!(Access::None < Access::Read && Access::Read < Access::Write);
    }

    /// The shift gives the quotient for every admitted line size and every
    /// offset of a page.
    #[test]
    fn line_of_offset_shifts_like_it_divides() {
        let sizes: Vec<usize> = (MIN_LINE_SIZE..=PAGE_SIZE)
            .filter(|&s| PAGE_SIZE.is_multiple_of(s))
            .map(validate_line_size)
            .collect();
        assert_eq!(sizes, [64, 128, 256, 512, 1024, 2048, 4096]);
        for s in sizes {
            for o in 0..PAGE_SIZE {
                assert_eq!(line_of_offset(o, s).index(), o / s, "offset {o}, size {s}");
            }
        }
    }

    #[test]
    fn pages_covering_ranges() {
        assert!(pages_covering(DsmAddr(0), 0).is_empty());
        assert_eq!(pages_covering(DsmAddr(0), 1), vec![PageId(0)]);
        assert_eq!(pages_covering(DsmAddr(0), 4096), vec![PageId(0)]);
        assert_eq!(pages_covering(DsmAddr(0), 4097), vec![PageId(0), PageId(1)]);
        assert_eq!(
            pages_covering(DsmAddr(4000), 200),
            vec![PageId(0), PageId(1)]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", DsmAddr(0x1000)), "0x1000");
        assert_eq!(format!("{}", PageId(7)), "P7");
    }

    /// Page numbers of the shared iso range, where DSM pages live.
    const SHARED: u64 = 1 << 32;

    #[test]
    fn page_map_reaches_pages_by_position() {
        let mut map = PageMap::default();
        assert_eq!(map.get(PageId(SHARED)), None);
        assert_eq!(map.insert(PageId(SHARED + 2), 'c'), None);
        assert_eq!(map.insert(PageId(SHARED), 'a'), None, "below the first");
        assert_eq!(map.insert(PageId(SHARED + 2), 'C'), Some('c'));
        assert_eq!(map.get(PageId(SHARED)), Some(&'a'));
        assert_eq!(map.get(PageId(SHARED + 1)), None, "a gap is a slot");
        assert_eq!(map.get(PageId(SHARED + 3)), None, "past the end");
        assert_eq!(map.get(PageId(0)), None, "far below the base");
        assert_eq!(map.get(PageId(u64::MAX)), None);
        *map.get_mut(PageId(SHARED)).unwrap() = 'A';
        let all: Vec<_> = map.iter().map(|(p, &v)| (p.0 - SHARED, v)).collect();
        assert_eq!(all, [(0, 'A'), (2, 'C')]);
        assert_eq!(map.slot(PageId(SHARED)).take(), Some('A'));
        assert_eq!(map.len(), 1);
        assert!(map.get(PageId(SHARED + 2)).is_some());
    }

    proptest! {
        /// A `PageMap` is an ordered map of pages under any sequence of
        /// inserts, removals and lookups, whatever order its pages come in:
        /// a node installs frames in the order pages reach it, below the
        /// first page it got included.
        #[test]
        fn prop_page_map_matches_a_btree_map(
            ops in proptest::collection::vec((0u8..3, 0u64..40, any::<u32>()), 1..120),
        ) {
            let mut map = PageMap::default();
            let mut model = std::collections::BTreeMap::new();
            for (op, page, value) in ops {
                let page = PageId(SHARED + page);
                match op {
                    0 => prop_assert_eq!(map.insert(page, value), model.insert(page, value)),
                    1 => prop_assert_eq!(map.slot(page).take(), model.remove(&page)),
                    _ => {
                        if let Some(v) = map.get_mut(page) {
                            *v = value;
                        }
                        if let Some(v) = model.get_mut(&page) {
                            *v = value;
                        }
                    }
                }
                for p in (SHARED - 2..SHARED + 42).map(PageId) {
                    prop_assert_eq!(map.get(p), model.get(&p));
                }
                let listed: Vec<_> = map.iter().map(|(p, &v)| (p, v)).collect();
                let expected: Vec<_> = model.iter().map(|(&p, &v)| (p, v)).collect();
                prop_assert_eq!(listed, expected);
                prop_assert_eq!(map.len(), model.len());
            }
        }

        /// Page/offset decomposition is a bijection.
        #[test]
        fn prop_page_offset_roundtrip(addr in 0u64..(1 << 40)) {
            let a = DsmAddr(addr);
            let rebuilt = a.page().base().add(a.offset() as u64);
            prop_assert_eq!(rebuilt, a);
        }

        /// pages_covering returns contiguous pages covering exactly the range.
        #[test]
        fn prop_pages_covering_is_contiguous(start in 0u64..(1 << 30), len in 1u64..100_000) {
            let pages = pages_covering(DsmAddr(start), len);
            prop_assert!(!pages.is_empty());
            for w in pages.windows(2) {
                prop_assert_eq!(w[1].0, w[0].0 + 1);
            }
            prop_assert_eq!(pages[0], DsmAddr(start).page());
            prop_assert_eq!(*pages.last().unwrap(), DsmAddr(start + len - 1).page());
        }
    }
}
