//! The DSM page manager: per-node page tables.
//!
//! Each node keeps a table with one entry per *coherence unit*. A set of
//! fields is common to virtually all protocols (local access rights, probable
//! owner, copyset); protocols reuse or ignore fields according to their own
//! page-management strategy, exactly as in the original design where "a
//! field may have different semantics in different protocols and may even be
//! left unused by some protocols". A protocol that needs per-page state
//! beyond these fields keeps it in its own tables, as `entry_sw` and
//! `hlrc_notices` do, without modifying the core.
//!
//! An entry holds what this node knows of the unit. What every node knows
//! alike — the page's home, its protocol and its line size — is the
//! runtime's directory ([`crate::PageMeta`]), the one record a fault and a
//! message both dispatch on. Two facts of it are copied into each entry,
//! because a typed-access hit reads them inside its one borrow of the
//! table: the line size (to find the unit of an offset) and whether the
//! protocol records writes. Registering a page writes both.
//!
//! # One key
//!
//! Every accessor takes the [`Unit`] it addresses; there is no page-keyed
//! variant. A page split into `PAGE_SIZE / granularity` lines has one
//! independently-owned entry per line; whole-page coherence is the case of
//! one line per page, whose only unit is [`Unit::whole`] and whose
//! [`PageEntry::line_span`] is `(0, PAGE_SIZE)` — the same entries, reached
//! through the same code. One function maps a byte offset to its unit, for
//! [`PageTable::resolve`] and the typed accesses alike: line 0's entry always
//! exists and records the page's line size (the *geometry*), and the target
//! entry sits in the same slot (`resolve_views_the_unit_of_an_offset` covers
//! both geometries).
//!
//! # One slot per page, the frame in it
//!
//! The table is a [`PageMap`]: one slot per page, reached by position, with
//! line 0 inline and a split page's other lines in one boxed slice beside
//! it. As an MMU's entry names the physical frame, the slot also holds the
//! page's [`Frame`] when the node has a copy ([`crate::FrameStore`] is the
//! frame-side methods over the same slots): a hit finds rights and bytes
//! with one subtraction and a bounds check or two.
//!
//! # One borrow, no lock
//!
//! A table is reached only by simulated code of one engine — a slice, a
//! scheduler event, or the host thread outside `Engine::run` — which the
//! hand-off runs one at a time, so the slots and the node's hit counters sit
//! in one [`SliceCell`]: a hit borrows them with a flag check, not an atomic
//! read-modify-write. The closures passed to [`PageTable::read`] and
//! [`PageTable::update`] run inside that borrow and must not call back into
//! the same table or the node's frames (the cell panics if they do).

use std::collections::BTreeSet;

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::{BlockReason, EngineCtl, SimDuration, SimHandle, SliceCell, WaitSet};

use crate::frames::Frame;
use crate::page::{line_of_offset, Access, LineIx, PageId, PageMap, Unit, PAGE_SIZE};

/// One page-table entry: the coherence state of one line of one page (the
/// whole page at the default granularity), as seen by one node.
#[derive(Clone, Debug)]
pub struct PageEntry {
    /// The coherence unit this entry describes.
    pub unit: Unit,
    /// Size in bytes of this page's coherence lines (`PAGE_SIZE` at the
    /// default granularity), [`crate::PageMeta::line_size`] copied for the
    /// hit path. Identical across all entries of one page.
    pub line_size: usize,
    /// Local access rights of this node.
    pub access: Access,
    /// True if this node considers itself the owner of the page (MRSW
    /// protocols move this flag along with write ownership).
    pub owned: bool,
    /// Probable owner (dynamic distributed manager) — the node to which
    /// requests are sent; updated as ownership hints flow through the system.
    pub prob_owner: NodeId,
    /// Whether the page's protocol records writes on the fly
    /// ([`crate::DsmProtocol::records_writes`]), captured when the entry is
    /// installed so a write hit need not consult the directory and the
    /// protocol registry.
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
}

impl PageEntry {
    /// A fresh entry for `unit`, one `line_size`-byte line of its page,
    /// naming `prob_owner` as its probable owner.
    fn new_line(unit: Unit, line_size: usize, prob_owner: NodeId, records_writes: bool) -> Self {
        PageEntry {
            unit,
            line_size,
            access: Access::None,
            owned: false,
            prob_owner,
            records_writes,
            copyset: BTreeSet::new(),
            version: 0,
            owner_version: 0,
            queue_tail: None,
            fetch_seq: 0,
            pending_fetch: false,
            pending_acks: 0,
            modified_since_release: false,
        }
    }

    /// Byte range `(offset, len)` this entry's line covers within its page.
    pub fn line_span(&self) -> (usize, usize) {
        crate::page::line_range(self.unit.line, self.line_size)
    }
}

/// What one node keeps of one page: its entries — line 0 inline, the page's
/// other lines (none at whole-page granularity) in one boxed slice, line `i`
/// at `rest[i - 1]` — and its frame, if the node holds a copy.
pub(crate) struct PageSlot {
    first: PageEntry,
    rest: Box<[PageEntry]>,
    pub(crate) frame: Option<Frame>,
}

impl PageSlot {
    /// Fresh entries for every `line_size`-byte line of `page`, no frame.
    fn new(page: PageId, line_size: usize, prob_owner: NodeId, records_writes: bool) -> Self {
        let mut lines = Unit::all_of(page, line_size)
            .map(|unit| PageEntry::new_line(unit, line_size, prob_owner, records_writes));
        PageSlot {
            first: lines.next().expect("a page has at least one line"),
            rest: lines.collect(),
            frame: None,
        }
    }

    fn line_mut(&mut self, line: LineIx) -> Option<&mut PageEntry> {
        match line.index() {
            0 => Some(&mut self.first),
            i => self.rest.get_mut(i - 1),
        }
    }

    /// The entry of the unit holding byte `offset` (the one place an offset
    /// is mapped to its line), and the page's frame beside it.
    #[inline(always)]
    pub(crate) fn unit_at(&mut self, offset: usize) -> (&mut PageEntry, &mut Option<Frame>) {
        let line_size = self.first.line_size;
        let entry = if line_size == PAGE_SIZE {
            &mut self.first
        } else {
            match line_of_offset(offset, line_size).index() {
                0 => &mut self.first,
                i => &mut self.rest[i - 1],
            }
        };
        (entry, &mut self.frame)
    }

    /// Every entry of the page, by line.
    fn iter(&self) -> impl Iterator<Item = &PageEntry> {
        std::iter::once(&self.first).chain(self.rest.iter())
    }
}

/// What a typed access reads of the coherence unit an offset falls in: a
/// small `Copy` view resolved by [`PageTable::resolve`] as the hit resolves
/// it, in place of a clone of the whole entry (copyset included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnitView {
    /// Local access rights on the unit.
    pub access: Access,
    /// The coherence line (line 0 at page granularity).
    pub line: LineIx,
    /// Size in bytes of the page's coherence lines.
    pub line_size: usize,
    /// Whether the page's protocol records writes on the fly.
    pub records_writes: bool,
}

/// A node's pages and its hit counters: all a typed-access hit reads or
/// writes, in the one cell a hit borrows.
#[derive(Default)]
pub(crate) struct NodePages {
    pub(crate) pages: PageMap<PageSlot>,
    /// This node's share of [`crate::DsmStatsSnapshot::local_accesses`].
    pub(crate) local_accesses: u64,
    /// This node's share of [`crate::DsmStatsSnapshot::inline_checks`].
    pub(crate) inline_checks: u64,
}

/// The page table of one node: one slot per page, holding the page's line
/// entries and its frame, and one wait set whose waiters are keyed by the
/// unit they block on — while it is fetched, or while acknowledgements for
/// it are outstanding. One piece of simulated code runs at a time, which is
/// why neither is behind a lock (see the module documentation). A thread
/// blocks on a unit only through [`PageTable::wait_until`], the wait set's
/// own loop, so its pending compute is slept off before it can be woken.
pub struct PageTable {
    pub(crate) node: NodeId,
    pub(crate) slots: SliceCell<NodePages>,
    waiters: WaitSet<Unit>,
}

impl PageTable {
    /// An empty table for `node`.
    pub fn new(node: NodeId) -> Self {
        PageTable {
            node,
            slots: SliceCell::default(),
            waiters: WaitSet::new(),
        }
    }

    /// Give `page` fresh entries, one per `line_size`-byte line (a
    /// `PAGE_SIZE` line is the single whole-page entry), each naming
    /// `prob_owner` (the page's home) as probable owner, replacing any it
    /// had; its frame, if the node holds one, stays. `records_writes` is the
    /// page's protocol's [`crate::DsmProtocol::records_writes`].
    /// Re-registering a page (a protocol switch) needs all activity on it
    /// quiesced first.
    pub fn register_lines(
        &self,
        page: PageId,
        prob_owner: NodeId,
        records_writes: bool,
        line_size: usize,
    ) {
        let mut slots = self.slots.borrow();
        let slot = slots.pages.slot(page);
        let frame = slot.take().and_then(|old| old.frame);
        let fresh = PageSlot::new(page, line_size, prob_owner, records_writes);
        *slot = Some(PageSlot { frame, ..fresh });
    }

    /// True if the table knows about `page`.
    pub fn contains(&self, page: PageId) -> bool {
        self.slots.borrow().pages.get(page).is_some()
    }

    /// A copy of the entry for `unit`.
    ///
    /// # Panics
    /// Panics if the unit is not registered on this node — this corresponds
    /// to a wild access outside any DSM allocation.
    pub fn get(&self, unit: Unit) -> PageEntry {
        self.read(unit, PageEntry::clone)
    }

    /// Resolve the coherence unit governing byte `offset` of `page` into a
    /// [`UnitView`] — in one borrow, cloning nothing, as a typed access does
    /// inside its own — or `None` if the page is unknown.
    pub fn resolve(&self, page: PageId, offset: usize) -> Option<UnitView> {
        let mut slots = self.slots.borrow();
        let (entry, _) = slots.pages.get_mut(page)?.unit_at(offset);
        Some(UnitView {
            access: entry.access,
            line: entry.unit.line,
            line_size: entry.line_size,
            records_writes: entry.records_writes,
        })
    }

    /// Run `f` with shared access to the entry for `unit`, without cloning it
    /// (cloning copies the whole copyset), or return `None` if this node does
    /// not know the unit. The slots stay borrowed for the duration of `f`:
    /// never call back into the same table or the node's frames from inside.
    pub fn try_read<R>(&self, unit: Unit, f: impl FnOnce(&PageEntry) -> R) -> Option<R> {
        let mut slots = self.slots.borrow();
        slots
            .pages
            .get_mut(unit.page)?
            .line_mut(unit.line)
            .map(|e| f(e))
    }

    /// [`PageTable::try_read`] for a unit that must be registered.
    ///
    /// # Panics
    /// Panics if the unit is not registered on this node.
    pub fn read<R>(&self, unit: Unit, f: impl FnOnce(&PageEntry) -> R) -> R {
        self.try_read(unit, f).unwrap_or_else(|| self.unknown(unit))
    }

    /// Run `f` with mutable access to the entry for `unit`.
    ///
    /// # Panics
    /// Panics if the unit is not registered on this node.
    pub fn update<R>(&self, unit: Unit, f: impl FnOnce(&mut PageEntry) -> R) -> R {
        let mut slots = self.slots.borrow();
        let entry = slots
            .pages
            .get_mut(unit.page)
            .and_then(|slot| slot.line_mut(unit.line))
            .unwrap_or_else(|| self.unknown(unit));
        f(entry)
    }

    pub(crate) fn unknown(&self, unit: Unit) -> ! {
        panic!(
            "node {} has no page-table entry for {}",
            self.node, unit.page
        )
    }

    /// Current local access rights on `unit` (`None` if unknown).
    pub fn access(&self, unit: Unit) -> Access {
        self.try_read(unit, |e| e.access).unwrap_or(Access::None)
    }

    /// Set the local access rights on `unit`.
    pub fn set_access(&self, unit: Unit, access: Access) {
        self.update(unit, |e| e.access = access);
    }

    /// Block the calling thread until `condition` holds, parked on `unit`
    /// between checks (see [`WaitSet::wait_until_why`]). The condition runs
    /// outside any borrow of the waiters and may read the table.
    pub fn wait_until(
        &self,
        unit: Unit,
        sim: &mut SimHandle,
        reason: BlockReason,
        condition: impl FnMut() -> bool + Send,
    ) {
        self.waiters.wait_until_why(unit, sim, reason, condition);
    }

    /// Wake every thread parked on `unit`, now.
    pub fn notify_all(&self, unit: Unit, ctl: &EngineCtl) {
        self.waiters.notify_all(unit, ctl, SimDuration::ZERO);
    }

    /// Coherence units this node wrote since the last release
    /// (release-consistency bookkeeping), sorted: the slots are walked by
    /// page and each page by line.
    pub fn modified_units(&self) -> Vec<Unit> {
        let slots = self.slots.borrow();
        let entries = slots.pages.iter().flat_map(|(_, slot)| slot.iter());
        entries
            .filter(|e| e.modified_since_release)
            .map(|e| e.unit)
            .collect()
    }

    /// Number of entries (line entries count individually).
    pub fn len(&self) -> usize {
        let slots = self.slots.borrow();
        slots
            .pages
            .iter()
            .map(|(_, slot)| 1 + slot.rest.len())
            .sum()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    use crate::page::{lines_per_page, LINE0};

    const PAGE: PageId = PageId(7);

    /// Run `check` on a table holding [`PAGE`] at both geometries, with the
    /// page's last unit: `Unit::whole(PAGE)` for whole pages, line 3 of 4
    /// otherwise.
    fn at_both_geometries(check: impl Fn(&PageTable, usize, Unit)) {
        for line_size in [PAGE_SIZE, 1024] {
            let t = PageTable::new(NodeId(1));
            t.register_lines(PAGE, NodeId(0), false, line_size);
            let last = LineIx(lines_per_page(line_size) - 1);
            check(&t, line_size, Unit::new(PAGE, last));
        }
    }

    /// Registering a page again — a protocol switch does, at the same or
    /// another granularity — gives it fresh entries and keeps its frame.
    #[test]
    fn registering_again_starts_afresh_and_keeps_the_frame() {
        at_both_geometries(|t, line_size, unit| {
            assert_eq!(t.len(), PAGE_SIZE / line_size);
            t.update(unit, |e| e.access = Access::Write);
            let frame = Frame {
                data: vec![7; PAGE_SIZE],
                twins: Vec::new(),
                recorded: Vec::new(),
            };
            t.slots.borrow().pages.get_mut(PAGE).unwrap().frame = Some(frame);
            for again in [line_size, PAGE_SIZE / 2] {
                t.register_lines(PAGE, NodeId(0), false, again);
                assert_eq!(t.access(unit), Access::None);
                assert_eq!(t.len(), PAGE_SIZE / again);
                let slots = t.slots.borrow();
                let frame = slots.pages.get(PAGE).unwrap().frame.as_ref();
                assert_eq!(frame.unwrap().data, vec![7; PAGE_SIZE]);
            }
        });
    }

    #[test]
    fn new_entries_start_unmapped_and_homed() {
        at_both_geometries(|t, line_size, unit| {
            let e = t.get(unit);
            assert_eq!(e.access, Access::None);
            assert!(!e.owned);
            assert_eq!(e.prob_owner, NodeId(0));
            assert!(e.copyset.is_empty());
            assert_eq!(e.version, 0);
            assert!(!e.pending_fetch);
            assert_eq!(e.unit, unit);
            assert_eq!(e.line_size, line_size);
            assert_eq!(e.line_span(), (PAGE_SIZE - line_size, line_size));
            assert_eq!(t.get(Unit::whole(PAGE)).line_size, line_size);
            assert_eq!(t.get(Unit::whole(PAGE)).line_span(), (0, line_size));
        });
    }

    /// The helpers address exactly their unit: the page's other lines (when
    /// it has any) and other pages keep their state.
    #[test]
    fn update_and_access_helpers() {
        at_both_geometries(|t, _, unit| {
            t.set_access(unit, Access::Read);
            assert_eq!(t.access(unit), Access::Read);
            assert_eq!(t.access(Unit::whole(PageId(99))), Access::None);
            t.set_access(unit, Access::Write);
            t.update(unit, |e| {
                e.copyset.insert(NodeId(2));
                e.owned = true;
                e.modified_since_release = true;
                e.version += 1;
            });
            let e = t.get(unit);
            assert!(e.copyset.contains(&NodeId(2)));
            assert_eq!(e.version, 1);
            assert_eq!(t.access(unit), Access::Write);
            assert_eq!(t.modified_units(), vec![unit]);
            if unit.line != LINE0 {
                assert_eq!(t.access(Unit::new(PAGE, LineIx(1))), Access::None);
                assert!(!t.get(Unit::whole(PAGE)).owned);
            }
            assert!(t.get(unit).owned);
            assert!(t.contains(PAGE) && !t.is_empty());
            assert!(!t.contains(PageId(99)));
        });
    }

    #[test]
    fn waiters_are_per_unit() {
        use dsmpm2_sim::Engine;
        use std::sync::Arc;
        for line_size in [PAGE_SIZE, 1024] {
            let t = Arc::new(PageTable::new(NodeId(1)));
            t.register_lines(PAGE, NodeId(0), false, line_size);
            let unit = Unit::new(PAGE, LineIx(lines_per_page(line_size) - 1));
            let mut engine = Engine::new();
            let waiter = Arc::clone(&t);
            engine.spawn("waiter", move |sim| {
                waiter.wait_until(unit, sim, BlockReason::PageFault, || {
                    waiter.access(unit) == Access::Read
                });
                assert_eq!(
                    sim.now().as_nanos(),
                    2_000,
                    "woken by its own unit's notify"
                );
            });
            let notifier = Arc::clone(&t);
            engine.spawn("notifier", move |sim| {
                sim.sleep(SimDuration::from_micros(1));
                // Another page, and (when split) another line of this one:
                // nobody to wake.
                notifier.set_access(unit, Access::Read);
                notifier.notify_all(Unit::whole(PageId(8)), sim.ctl());
                if unit.line != LINE0 {
                    notifier.notify_all(Unit::whole(PAGE), sim.ctl());
                }
                sim.sleep(SimDuration::from_micros(1));
                notifier.notify_all(unit, sim.ctl());
            });
            engine.run().expect("the waiter is woken");
        }
    }

    /// A thread that charged compute and then waits on a unit is not resumed
    /// before its charge has elapsed, however early the unit's notify comes.
    #[test]
    fn a_notify_during_a_pending_charge_does_not_cut_it_short() {
        use dsmpm2_sim::Engine;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let t = Arc::new(PageTable::new(NodeId(1)));
        t.register_lines(PAGE, NodeId(0), false, PAGE_SIZE);
        let unit = Unit::whole(PAGE);
        let resumed_at = Arc::new(AtomicU64::new(0));
        let mut engine = Engine::new();
        let (waiter, r) = (Arc::clone(&t), resumed_at.clone());
        engine.spawn("waiter", move |sim| {
            sim.charge(SimDuration::from_micros(100));
            waiter.wait_until(unit, sim, BlockReason::PageFault, || {
                waiter.access(unit) == Access::Read
            });
            r.store(sim.now().as_nanos(), Ordering::SeqCst);
        });
        engine.spawn("installer", move |sim| {
            sim.sleep(SimDuration::from_micros(30));
            t.set_access(unit, Access::Read);
            t.notify_all(unit, sim.ctl());
        });
        engine.run().expect("the waiter resumes");
        assert_eq!(resumed_at.load(Ordering::SeqCst), 100_000);
    }

    /// Modified units come out by page, then line, however the pages were
    /// registered — below the first one included.
    #[test]
    fn modified_units_are_sorted() {
        let t = PageTable::new(NodeId(0));
        for p in [5u64, 1, 3] {
            t.register_lines(PageId(p), NodeId(0), false, 1024);
        }
        let written = [(5, 0), (1, 3), (3, 1), (5, 2), (1, 0)];
        for (page, line) in written {
            t.update(Unit::new(PageId(page), LineIx(line)), |e| {
                e.modified_since_release = true
            });
        }
        let units = |list: &[(u64, u16)]| -> Vec<Unit> {
            let unit = |&(page, line): &(u64, u16)| Unit::new(PageId(page), LineIx(line));
            list.iter().map(unit).collect()
        };
        let sorted = [(1, 0), (1, 3), (3, 1), (5, 0), (5, 2)];
        assert_eq!(t.modified_units(), units(&sorted));
        t.register_lines(PageId(1), NodeId(0), false, PAGE_SIZE);
        assert_eq!(t.modified_units(), units(&sorted[2..]));
        assert_eq!(t.len(), 9);
    }

    /// The lines of a split page share its slot: line 0 inline, the others
    /// beside it. Each resolves to, updates and loses its rights as its own
    /// entry, and dropping the page takes them all.
    #[test]
    fn the_lines_of_a_split_page_are_independent_entries() {
        let t = PageTable::new(NodeId(1));
        let page = PageId(4);
        t.register_lines(page, NodeId(0), false, 1024);
        let (first, third) = (Unit::whole(page), Unit::new(page, LineIx(2)));
        for unit in [first, third] {
            t.update(unit, |e| {
                e.access = Access::Write;
                e.copyset.insert(NodeId(1));
            });
        }
        assert_eq!(t.resolve(page, 8).unwrap().line, LINE0);
        assert_eq!(t.resolve(page, 2048 + 8).unwrap().line, LineIx(2));
        // Invalidate line 2 as a protocol would: rights and copy go.
        t.update(third, |e| {
            e.access = Access::None;
            e.copyset.clear();
        });
        let view = t.resolve(page, 3000).unwrap();
        assert_eq!((view.line, view.access), (LineIx(2), Access::None));
        assert_eq!(t.access(first), Access::Write, "line 0 keeps its rights");
        assert!(t.get(first).copyset.contains(&NodeId(1)));
        assert_eq!(t.access(Unit::new(page, LineIx(1))), Access::None);
        assert_eq!(t.try_read(Unit::new(page, LineIx(4)), |_| ()), None);
        t.register_lines(page, NodeId(0), false, 1024);
        assert_eq!(t.access(first), Access::None, "re-registered afresh");
        assert_eq!(t.resolve(PageId(5), 8), None);
    }

    #[test]
    fn read_sees_the_entry_without_cloning() {
        at_both_geometries(|t, _, unit| {
            t.update(unit, |e| {
                e.copyset.insert(NodeId(4));
                e.access = Access::Read;
            });
            let (len, access) = t.read(unit, |e| (e.copyset.len(), e.access));
            assert_eq!(len, 1);
            assert_eq!(access, Access::Read);
        });
    }

    /// `resolve` at both geometries: picks the line of the offset, reports
    /// that entry's rights / line / flag, marks nothing, and knows no
    /// page it was not told about.
    #[test]
    fn resolve_views_the_unit_of_an_offset() {
        for line_size in [PAGE_SIZE, 1024] {
            let t = PageTable::new(NodeId(1));
            let page = PageId(9);
            t.register_lines(page, NodeId(0), true, line_size);
            let last = LineIx(lines_per_page(line_size) - 1);
            let view = |offset| t.resolve(page, offset).unwrap();
            t.set_access(Unit::new(page, last), Access::Read);
            let expected = UnitView {
                access: Access::Read,
                line: last,
                line_size,
                records_writes: true,
            };
            assert_eq!(view(PAGE_SIZE - 8), expected);
            t.set_access(Unit::new(page, last), Access::Write);
            assert_eq!(view(PAGE_SIZE - 1).access, Access::Write);
            assert!(t.modified_units().is_empty(), "resolving marks nothing");
            assert_eq!(view(line_size - 1).line, LINE0);
            if last != LINE0 {
                assert_eq!(view(0).access, Access::None);
                assert_eq!(view(line_size).line, LineIx(1));
            }
            assert_eq!(t.resolve(PageId(10), 0), None);
        }
    }

    #[test]
    #[should_panic(expected = "no page-table entry")]
    fn unknown_page_access_panics() {
        at_both_geometries(|t, _, _| {
            t.get(Unit::whole(PageId(1000)));
        });
    }

    #[test]
    fn try_read_does_not_panic() {
        at_both_geometries(|t, _, unit| {
            assert!(t.try_read(Unit::whole(PageId(1000)), |_| ()).is_none());
            assert_eq!(t.try_read(unit, |e| e.unit), Some(unit));
            if unit.line != LINE0 {
                assert!(t
                    .try_read(Unit::new(PageId(1000), unit.line), |_| ())
                    .is_none());
            }
        });
    }
}
