//! The DSM page manager: per-node page tables.
//!
//! Each node keeps a table with one entry per *coherence unit*. A set of
//! fields is common to virtually all protocols (local access rights, probable
//! owner, home node, copyset); protocols reuse or ignore fields according to
//! their own page-management strategy, exactly as in the original design
//! where "a field may have different semantics in different protocols and may
//! even be left unused by some protocols". Generic auxiliary fields
//! (`aux_node`, `flags`, `pending_acks`, ...) give user-defined protocols
//! room to stash their own per-page state without modifying the core.
//!
//! # Coherence units
//!
//! By default the unit is the whole page: each page has exactly one entry,
//! keyed `(page, line 0)`, and every page-level method below addresses it —
//! this reproduces the historical page-granularity table bit-for-bit. Regions
//! allocated with a sub-page granularity split each page into
//! `PAGE_SIZE / granularity` lines, each with its own independently-owned
//! entry keyed `(page, line)`. Resolving an offset to its line entry takes
//! the table lock once: the `(page, line 0)` entry always exists and records
//! the page's line size (the *geometry*), and the target entry lives behind
//! the same lock.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::WaitSet;

use crate::page::{
    line_of_offset, lines_per_page, Access, IdMap, LineIx, PageId, LINE0, PAGE_SIZE,
};
use crate::protocol::ProtocolId;

/// One page-table entry: the coherence state of one line of one page (the
/// whole page at the default granularity), as seen by one node.
#[derive(Clone, Debug)]
pub struct PageEntry {
    /// The page this entry describes.
    pub page: PageId,
    /// The coherence line this entry describes (line 0 at page granularity).
    pub line: LineIx,
    /// Size in bytes of this page's coherence lines (`PAGE_SIZE` at the
    /// default granularity). Identical across all entries of one page.
    pub line_size: usize,
    /// Local access rights of this node.
    pub access: Access,
    /// True if this node considers itself the owner of the page (MRSW
    /// protocols move this flag along with write ownership).
    pub owned: bool,
    /// Probable owner (dynamic distributed manager) — the node to which
    /// requests are sent; updated as ownership hints flow through the system.
    pub prob_owner: NodeId,
    /// Home node (fixed distributed manager / home-based protocols).
    pub home: NodeId,
    /// Protocol managing this page.
    pub protocol: ProtocolId,
    /// Whether that protocol records writes on the fly
    /// ([`crate::DsmProtocol::records_writes`]), captured when the entry is
    /// installed so a write hit need not consult the protocol registry.
    pub records_writes: bool,
    /// Nodes believed to hold a copy (meaningful at the owner / home node).
    pub copyset: BTreeSet<NodeId>,
    /// Version counter bumped whenever the reference copy changes.
    pub version: u64,
    /// Highest ownership-succession version this node has heard of; guards
    /// `prob_owner` against rewinds by late invalidations (see
    /// [`crate::msg::Invalidation::version`]).
    pub owner_version: u64,
    /// True while a fetch for this page is in flight from this node (avoids
    /// duplicate requests when several local threads fault concurrently).
    pub pending_fetch: bool,
    /// Tail of the distributed write-acquisition queue as last seen by this
    /// node: the requester of the most recent write request it forwarded (or
    /// sent). Write requests chain behind it (and may be parked at it, see
    /// the `queued` flag on [`crate::msg::PageRequest`]); `prob_owner` itself only ever
    /// records ownership *history*, so routing always has a terminating
    /// fallback even when the queue information is stale.
    pub queue_tail: Option<NodeId>,
    /// Bumped every time a new fetch starts. Lets a deferred server request
    /// wait for exactly the fetch that was in flight when it arrived, rather
    /// than being re-trapped by a later fetch (whose completion may depend on
    /// the deferred request itself — a deadlock).
    pub fetch_seq: u64,
    /// Outstanding acknowledgements this node is waiting for (invalidations,
    /// diff acks).
    pub pending_acks: usize,
    /// True if this node wrote the page since the last release (used by the
    /// release-consistency protocols to know what to flush).
    pub modified_since_release: bool,
    /// Generic per-protocol node hint (e.g. the node to forward to).
    pub aux_node: Option<NodeId>,
    /// Generic per-protocol flag word.
    pub flags: u32,
}

impl PageEntry {
    /// A fresh entry for one coherence line of `page`.
    pub fn new_line(
        page: PageId,
        line: LineIx,
        line_size: usize,
        home: NodeId,
        protocol: ProtocolId,
        records_writes: bool,
    ) -> Self {
        PageEntry {
            page,
            line,
            line_size,
            access: Access::None,
            owned: false,
            prob_owner: home,
            home,
            protocol,
            records_writes,
            copyset: BTreeSet::new(),
            version: 0,
            owner_version: 0,
            queue_tail: None,
            fetch_seq: 0,
            pending_fetch: false,
            pending_acks: 0,
            modified_since_release: false,
            aux_node: None,
            flags: 0,
        }
    }

    /// Byte range `(offset, len)` this entry's line covers within its page.
    pub fn line_span(&self) -> (usize, usize) {
        crate::page::line_range(self.line, self.line_size)
    }
}

/// What a typed access needs to know about the coherence unit it touches: a
/// small `Copy` view resolved by [`PageTable::resolve`], in place of a clone
/// of the whole entry (copyset included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnitView {
    /// Local access rights on the unit.
    pub access: Access,
    /// The coherence line (line 0 at page granularity).
    pub line: LineIx,
    /// Size in bytes of the page's coherence lines.
    pub line_size: usize,
    /// Protocol managing the unit.
    pub protocol: ProtocolId,
    /// Whether that protocol records writes on the fly.
    pub records_writes: bool,
}

/// The page table of one node: one map of entries, one map of wait sets.
/// One simulated thread runs at a time, so neither lock is ever contended.
pub struct PageTable {
    node: NodeId,
    entries: Mutex<IdMap<(PageId, LineIx), PageEntry>>,
    waiters: Mutex<IdMap<(PageId, LineIx), Arc<WaitSet>>>,
}

impl PageTable {
    /// An empty table for `node`.
    pub fn new(node: NodeId) -> Self {
        PageTable {
            node,
            entries: Mutex::default(),
            waiters: Mutex::default(),
        }
    }

    /// Install the line entries of `page` at granularity `line_size` if none
    /// exist yet (`line_size == PAGE_SIZE` gives the single whole-page
    /// entry). All lines are created under one lock. `records_writes`
    /// is `protocol`'s [`crate::DsmProtocol::records_writes`].
    pub fn ensure_lines(
        &self,
        page: PageId,
        home: NodeId,
        protocol: ProtocolId,
        records_writes: bool,
        line_size: usize,
    ) {
        let mut entries = self.entries.lock();
        for ix in 0..lines_per_page(line_size) {
            entries.entry((page, LineIx(ix))).or_insert_with(|| {
                PageEntry::new_line(page, LineIx(ix), line_size, home, protocol, records_writes)
            });
        }
    }

    /// Drop every line entry (and waiter set) of `page`. Only used when a
    /// region is re-registered with a different protocol or granularity; the
    /// caller must have quiesced all activity on the page first.
    pub fn remove_page(&self, page: PageId) {
        let lines = {
            let mut entries = self.entries.lock();
            let keys: Vec<(PageId, LineIx)> = entries
                .keys()
                .filter(|(p, _)| *p == page)
                .copied()
                .collect();
            for k in &keys {
                entries.remove(k);
            }
            keys
        };
        let mut waiters = self.waiters.lock();
        for k in &lines {
            waiters.remove(k);
        }
    }

    /// True if the table knows about `page`.
    pub fn contains(&self, page: PageId) -> bool {
        self.entries.lock().contains_key(&(page, LINE0))
    }

    /// A copy of the whole-page (line 0) entry for `page`.
    ///
    /// # Panics
    /// Panics if the page is not registered on this node — this corresponds
    /// to a wild access outside any DSM allocation.
    pub fn get(&self, page: PageId) -> PageEntry {
        self.get_at(page, LINE0)
    }

    /// A copy of the entry for line `line` of `page`.
    ///
    /// # Panics
    /// Panics if the unit is not registered on this node.
    pub fn get_at(&self, page: PageId, line: LineIx) -> PageEntry {
        self.entries
            .lock()
            .get(&(page, line))
            .cloned()
            .unwrap_or_else(|| panic!("node {} has no page-table entry for {page}", self.node))
    }

    /// A copy of the entry for line `line`, or `None` if unknown.
    pub fn try_get_at(&self, page: PageId, line: LineIx) -> Option<PageEntry> {
        self.entries.lock().get(&(page, line)).cloned()
    }

    /// Resolve the coherence unit governing byte `offset` of `page` into a
    /// [`UnitView`], or `None` if the page is unknown. This is the per-access
    /// hot path: geometry, line entry and view all come from one lock
    /// and nothing is cloned. With `mark_write` — the access is a write hit in
    /// the making — a unit that is writable is marked modified since the last
    /// release in the same critical section; one that is not is left alone
    /// (the access will fault and come back).
    pub fn resolve(&self, page: PageId, offset: usize, mark_write: bool) -> Option<UnitView> {
        let mut entries = self.entries.lock();
        let mut entry = entries.get_mut(&(page, LINE0))?;
        if entry.line_size != PAGE_SIZE {
            let line = line_of_offset(offset, entry.line_size);
            if line != LINE0 {
                entry = entries.get_mut(&(page, line))?;
            }
        }
        if mark_write && entry.access == Access::Write {
            entry.modified_since_release = true;
        }
        Some(UnitView {
            access: entry.access,
            line: entry.line,
            line_size: entry.line_size,
            protocol: entry.protocol,
            records_writes: entry.records_writes,
        })
    }

    /// Run `f` with shared access to the line-0 entry for `page`, without
    /// cloning it (cloning copies the whole copyset). The table lock is held
    /// for the duration of `f`: keep it short and never call back into the
    /// same table from inside.
    ///
    /// # Panics
    /// Panics if the page is not registered on this node.
    pub fn read<R>(&self, page: PageId, f: impl FnOnce(&PageEntry) -> R) -> R {
        self.read_at(page, LINE0, f)
    }

    /// Run `f` with shared access to the entry for line `line` of `page`.
    ///
    /// # Panics
    /// Panics if the unit is not registered on this node.
    pub fn read_at<R>(&self, page: PageId, line: LineIx, f: impl FnOnce(&PageEntry) -> R) -> R {
        let entries = self.entries.lock();
        let entry = entries
            .get(&(page, line))
            .unwrap_or_else(|| panic!("node {} has no page-table entry for {page}", self.node));
        f(entry)
    }

    /// Run `f` with mutable access to the line-0 entry for `page`.
    ///
    /// # Panics
    /// Panics if the page is not registered on this node.
    pub fn update<R>(&self, page: PageId, f: impl FnOnce(&mut PageEntry) -> R) -> R {
        self.update_at(page, LINE0, f)
    }

    /// Run `f` with mutable access to the entry for line `line` of `page`.
    ///
    /// # Panics
    /// Panics if the unit is not registered on this node.
    pub fn update_at<R>(
        &self,
        page: PageId,
        line: LineIx,
        f: impl FnOnce(&mut PageEntry) -> R,
    ) -> R {
        let mut entries = self.entries.lock();
        let entry = entries
            .get_mut(&(page, line))
            .unwrap_or_else(|| panic!("node {} has no page-table entry for {page}", self.node));
        f(entry)
    }

    /// Current local access rights on line 0 of `page` (`None` if unknown).
    pub fn access(&self, page: PageId) -> Access {
        self.access_at(page, LINE0)
    }

    /// Current local access rights on line `line` of `page`.
    pub fn access_at(&self, page: PageId, line: LineIx) -> Access {
        self.entries
            .lock()
            .get(&(page, line))
            .map(|e| e.access)
            .unwrap_or(Access::None)
    }

    /// Set the local access rights on line 0 of `page`.
    pub fn set_access(&self, page: PageId, access: Access) {
        self.update(page, |e| e.access = access);
    }

    /// Set the local access rights on line `line` of `page`.
    pub fn set_access_at(&self, page: PageId, line: LineIx, access: Access) {
        self.update_at(page, line, |e| e.access = access);
    }

    /// The wait set threads block on while line 0 of `page` is being fetched
    /// or while acknowledgements are outstanding.
    pub fn waiters(&self, page: PageId) -> Arc<WaitSet> {
        self.waiters_at(page, LINE0)
    }

    /// The wait set for line `line` of `page`.
    pub fn waiters_at(&self, page: PageId, line: LineIx) -> Arc<WaitSet> {
        Arc::clone(
            self.waiters
                .lock()
                .entry((page, line))
                .or_insert_with(|| Arc::new(WaitSet::new())),
        )
    }

    /// Every page registered in this table (each page once, regardless of how
    /// many lines it is split into).
    pub fn pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .entries
            .lock()
            .keys()
            .filter(|(_, l)| *l == LINE0)
            .map(|(p, _)| *p)
            .collect();
        pages.sort();
        pages
    }

    /// Pages this node wrote since the last release (release-consistency
    /// bookkeeping). A page appears once even if several of its lines are
    /// modified.
    pub fn modified_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .entries
            .lock()
            .iter()
            .filter(|(_, e)| e.modified_since_release)
            .map(|((p, _), _)| *p)
            .collect();
        pages.sort();
        pages.dedup();
        pages
    }

    /// Coherence units this node wrote since the last release — the
    /// line-granularity analogue of [`PageTable::modified_pages`]. At the
    /// default granularity every unit is `(page, line 0)`.
    pub fn modified_units(&self) -> Vec<(PageId, LineIx)> {
        let mut units: Vec<(PageId, LineIx)> = self
            .entries
            .lock()
            .iter()
            .filter(|(_, e)| e.modified_since_release)
            .map(|(k, _)| *k)
            .collect();
        units.sort();
        units
    }

    /// Number of entries (line entries count individually).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl std::fmt::Debug for PageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageTable(node={}, {} entries)", self.node, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageTable {
        let t = PageTable::new(NodeId(1));
        t.ensure_lines(PageId(7), NodeId(0), ProtocolId(0), false, PAGE_SIZE);
        t
    }

    #[test]
    fn ensure_is_idempotent() {
        let t = table();
        t.update(PageId(7), |e| e.access = Access::Write);
        t.ensure_lines(PageId(7), NodeId(0), ProtocolId(0), false, PAGE_SIZE);
        assert_eq!(t.get(PageId(7)).access, Access::Write);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn new_entries_start_unmapped_and_homed() {
        let t = table();
        let e = t.get(PageId(7));
        assert_eq!(e.access, Access::None);
        assert!(!e.owned);
        assert_eq!(e.home, NodeId(0));
        assert_eq!(e.prob_owner, NodeId(0));
        assert!(e.copyset.is_empty());
        assert_eq!(e.version, 0);
        assert!(!e.pending_fetch);
        assert_eq!(e.line, LINE0);
        assert_eq!(e.line_size, PAGE_SIZE);
        assert_eq!(e.line_span(), (0, PAGE_SIZE));
    }

    #[test]
    fn update_and_access_helpers() {
        let t = table();
        t.set_access(PageId(7), Access::Read);
        assert_eq!(t.access(PageId(7)), Access::Read);
        assert_eq!(t.access(PageId(99)), Access::None);
        t.update(PageId(7), |e| {
            e.copyset.insert(NodeId(2));
            e.modified_since_release = true;
            e.version += 1;
        });
        let e = t.get(PageId(7));
        assert!(e.copyset.contains(&NodeId(2)));
        assert_eq!(e.version, 1);
        assert_eq!(t.modified_pages(), vec![PageId(7)]);
        assert_eq!(t.modified_units(), vec![(PageId(7), LINE0)]);
    }

    #[test]
    fn waiters_are_shared_per_page() {
        let t = table();
        let a = t.waiters(PageId(7));
        let b = t.waiters(PageId(7));
        assert!(Arc::ptr_eq(&a, &b));
        let c = t.waiters(PageId(8));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn pages_are_sorted() {
        let t = PageTable::new(NodeId(0));
        for p in [5u64, 1, 3] {
            t.ensure_lines(PageId(p), NodeId(0), ProtocolId(0), false, PAGE_SIZE);
        }
        assert_eq!(t.pages(), vec![PageId(1), PageId(3), PageId(5)]);
    }

    #[test]
    fn read_sees_the_entry_without_cloning() {
        let t = table();
        t.update(PageId(7), |e| {
            e.copyset.insert(NodeId(4));
            e.access = Access::Read;
        });
        let (len, access) = t.read(PageId(7), |e| (e.copyset.len(), e.access));
        assert_eq!(len, 1);
        assert_eq!(access, Access::Read);
    }

    #[test]
    fn line_entries_are_independent() {
        let t = PageTable::new(NodeId(0));
        let line_size = 1024; // 4 lines per page
        t.ensure_lines(PageId(9), NodeId(0), ProtocolId(0), false, line_size);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(PageId(9)).line_size, line_size);
        assert_eq!(t.pages(), vec![PageId(9)], "a page lists once");

        t.set_access_at(PageId(9), LineIx(2), Access::Write);
        t.update_at(PageId(9), LineIx(2), |e| {
            e.owned = true;
            e.modified_since_release = true;
        });
        assert_eq!(t.access_at(PageId(9), LineIx(2)), Access::Write);
        assert_eq!(t.access_at(PageId(9), LineIx(1)), Access::None);
        assert!(!t.get_at(PageId(9), LineIx(0)).owned);
        assert!(t.get_at(PageId(9), LineIx(2)).owned);
        assert_eq!(t.modified_units(), vec![(PageId(9), LineIx(2))]);
        assert_eq!(t.modified_pages(), vec![PageId(9)]);

        // Waiters are per line.
        let w2 = t.waiters_at(PageId(9), LineIx(2));
        let w3 = t.waiters_at(PageId(9), LineIx(3));
        assert!(!Arc::ptr_eq(&w2, &w3));

        t.remove_page(PageId(9));
        assert!(t.is_empty());
        assert!(!t.contains(PageId(9)));
    }

    /// `resolve` at both geometries: picks the line of the offset, reports
    /// that entry's rights / protocol / flag, marks only a writable unit and
    /// only for a write, and knows no page it was not told about.
    #[test]
    fn resolve_views_the_unit_of_an_offset() {
        for line_size in [PAGE_SIZE, 1024] {
            let t = PageTable::new(NodeId(1));
            let page = PageId(9);
            t.ensure_lines(page, NodeId(0), ProtocolId(3), true, line_size);
            let last = LineIx(lines_per_page(line_size) - 1);
            let view = |offset, mark| t.resolve(page, offset, mark).unwrap();
            t.set_access_at(page, last, Access::Read);
            let expected = UnitView {
                access: Access::Read,
                line: last,
                line_size,
                protocol: ProtocolId(3),
                records_writes: true,
            };
            assert_eq!(view(PAGE_SIZE - 8, true), expected);
            assert!(t.modified_units().is_empty(), "not writable: not marked");
            t.set_access_at(page, last, Access::Write);
            assert_eq!(view(PAGE_SIZE - 1, false).access, Access::Write);
            assert!(t.modified_units().is_empty(), "a read marks nothing");
            view(PAGE_SIZE - 8, true);
            assert_eq!(t.modified_units(), vec![(page, last)]);
            assert_eq!(view(line_size - 1, false).line, LINE0);
            if last != LINE0 {
                assert_eq!(view(0, true).access, Access::None);
                assert_eq!(view(line_size, false).line, LineIx(1));
            }
            assert_eq!(t.resolve(PageId(10), 0, true), None);
        }
    }

    #[test]
    #[should_panic(expected = "no page-table entry")]
    fn unknown_page_access_panics() {
        table().get(PageId(1000));
    }

    #[test]
    fn try_get_does_not_panic() {
        assert!(table().try_get_at(PageId(1000), LINE0).is_none());
        assert!(table().try_get_at(PageId(7), LINE0).is_some());
    }
}
