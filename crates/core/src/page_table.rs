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
//! # One key
//!
//! Every accessor takes the [`Unit`] it addresses; there is no page-keyed
//! variant. A page split into `PAGE_SIZE / granularity` lines has one
//! independently-owned entry per line; whole-page coherence is the case of
//! one line per page, whose only unit is [`Unit::whole`] and whose
//! [`PageEntry::line_span`] is `(0, PAGE_SIZE)` — the same entries, reached
//! through the same code. The one place that maps a byte offset to its unit
//! is [`PageTable::resolve`]: line 0's entry always exists and records the
//! page's line size (the *geometry*), and the target entry lives in the same
//! map (`resolve_views_the_unit_of_an_offset` covers both geometries).
//!
//! # No lock
//!
//! A table is reached only by simulated code of one engine — a slice, a
//! scheduler event, or the host thread outside `Engine::run` — which the
//! hand-off runs one at a time, so its maps sit in [`SliceCell`]s: a hit
//! borrows the entries with a flag check, not an atomic read-modify-write.
//! The closures passed to [`PageTable::read`] and [`PageTable::update`] run
//! inside that borrow and must not call back into the same table (the cell
//! panics if they do).

use std::collections::BTreeSet;

use dsmpm2_madeleine::NodeId;
use dsmpm2_sim::{BlockReason, EngineCtl, SimDuration, SimHandle, SliceCell, WaitSet};

use crate::page::{line_of_offset, Access, IdMap, LineIx, PageId, Unit, LINE0, PAGE_SIZE};
use crate::protocol::ProtocolId;

/// One page-table entry: the coherence state of one line of one page (the
/// whole page at the default granularity), as seen by one node.
#[derive(Clone, Debug)]
pub struct PageEntry {
    /// The coherence unit this entry describes.
    pub unit: Unit,
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
    /// A fresh entry for `unit`, one `line_size`-byte line of its page.
    fn new_line(
        unit: Unit,
        line_size: usize,
        home: NodeId,
        protocol: ProtocolId,
        records_writes: bool,
    ) -> Self {
        PageEntry {
            unit,
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
        crate::page::line_range(self.unit.line, self.line_size)
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

/// The page table of one node: one map of entries, and one wait set whose
/// waiters are keyed by the unit they block on — while it is fetched, or
/// while acknowledgements for it are outstanding. One piece of simulated
/// code runs at a time, which is why neither is behind a lock (see the
/// module documentation). A thread blocks on a unit only through
/// [`PageTable::wait_until`], the wait set's own loop, so its pending
/// compute is slept off before it can be woken.
pub struct PageTable {
    node: NodeId,
    entries: SliceCell<IdMap<Unit, PageEntry>>,
    waiters: WaitSet<Unit>,
}

impl PageTable {
    /// An empty table for `node`.
    pub fn new(node: NodeId) -> Self {
        PageTable {
            node,
            entries: SliceCell::default(),
            waiters: WaitSet::new(),
        }
    }

    /// Install the line entries of `page` at granularity `line_size` if none
    /// exist yet (a `PAGE_SIZE` line gives the single whole-page entry). All
    /// lines are created in one borrow. `records_writes` is `protocol`'s
    /// [`crate::DsmProtocol::records_writes`].
    pub fn ensure_lines(
        &self,
        page: PageId,
        home: NodeId,
        protocol: ProtocolId,
        records_writes: bool,
        line_size: usize,
    ) {
        let mut entries = self.entries.borrow();
        for unit in Unit::all_of(page, line_size) {
            entries.entry(unit).or_insert_with(|| {
                PageEntry::new_line(unit, line_size, home, protocol, records_writes)
            });
        }
    }

    /// Drop every line entry of `page`. Only used when a region is
    /// re-registered with a different protocol or granularity; the caller
    /// must have quiesced all activity on the page first.
    pub fn remove_page(&self, page: PageId) {
        self.entries.borrow().retain(|unit, _| unit.page != page);
    }

    /// True if the table knows about `page`.
    pub fn contains(&self, page: PageId) -> bool {
        self.entries.borrow().contains_key(&Unit::whole(page))
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
    /// [`UnitView`], or `None` if the page is unknown. This is the per-access
    /// hot path: geometry, line entry and view all come from one borrow of
    /// the entries and nothing is cloned. With `mark_write` — the access is a
    /// write hit in the making — a unit that is writable is marked modified
    /// since the last release in the same borrow; one that is not is left
    /// alone (the access will fault and come back).
    #[inline(always)]
    pub fn resolve(&self, page: PageId, offset: usize, mark_write: bool) -> Option<UnitView> {
        let mut entries = self.entries.borrow();
        let mut entry = entries.get_mut(&Unit::whole(page))?;
        if entry.line_size != PAGE_SIZE {
            let line = line_of_offset(offset, entry.line_size);
            if line != LINE0 {
                entry = entries.get_mut(&Unit { page, line })?;
            }
        }
        if mark_write && entry.access == Access::Write {
            entry.modified_since_release = true;
        }
        Some(UnitView {
            access: entry.access,
            line: entry.unit.line,
            line_size: entry.line_size,
            protocol: entry.protocol,
            records_writes: entry.records_writes,
        })
    }

    /// Run `f` with shared access to the entry for `unit`, without cloning it
    /// (cloning copies the whole copyset), or return `None` if this node does
    /// not know the unit. The entries stay borrowed for the duration of `f`:
    /// never call back into the same table from inside.
    pub fn try_read<R>(&self, unit: Unit, f: impl FnOnce(&PageEntry) -> R) -> Option<R> {
        self.entries.borrow().get(&unit).map(f)
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
        let mut entries = self.entries.borrow();
        let entry = entries.get_mut(&unit).unwrap_or_else(|| self.unknown(unit));
        f(entry)
    }

    fn unknown(&self, unit: Unit) -> ! {
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
        condition: impl FnMut() -> bool,
    ) {
        self.waiters.wait_until_why(unit, sim, reason, condition);
    }

    /// Wake every thread parked on `unit`, now.
    pub fn notify_all(&self, unit: Unit, ctl: &EngineCtl) {
        self.waiters.notify_all(unit, ctl, SimDuration::ZERO);
    }

    /// Every page registered in this table (each page once, regardless of how
    /// many lines it is split into).
    pub fn pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .entries
            .borrow()
            .keys()
            .filter(|unit| unit.line == LINE0)
            .map(|unit| unit.page)
            .collect();
        pages.sort();
        pages
    }

    /// Coherence units this node wrote since the last release
    /// (release-consistency bookkeeping), sorted.
    pub fn modified_units(&self) -> Vec<Unit> {
        let mut units: Vec<Unit> = self
            .entries
            .borrow()
            .iter()
            .filter(|(_, e)| e.modified_since_release)
            .map(|(unit, _)| *unit)
            .collect();
        units.sort();
        units
    }

    /// Number of entries (line entries count individually).
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
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
    use crate::page::lines_per_page;

    const PAGE: PageId = PageId(7);

    /// Run `check` on a table holding [`PAGE`] at both geometries, with the
    /// page's last unit: `Unit::whole(PAGE)` for whole pages, line 3 of 4
    /// otherwise.
    fn at_both_geometries(check: impl Fn(&PageTable, usize, Unit)) {
        for line_size in [PAGE_SIZE, 1024] {
            let t = PageTable::new(NodeId(1));
            t.ensure_lines(PAGE, NodeId(0), ProtocolId(0), false, line_size);
            let last = LineIx(lines_per_page(line_size) - 1);
            check(&t, line_size, Unit::new(PAGE, last));
        }
    }

    #[test]
    fn ensure_is_idempotent() {
        at_both_geometries(|t, line_size, unit| {
            let lines = PAGE_SIZE / line_size;
            assert_eq!(t.len(), lines);
            t.update(unit, |e| e.access = Access::Write);
            t.ensure_lines(PAGE, NodeId(0), ProtocolId(0), false, line_size);
            assert_eq!(t.get(unit).access, Access::Write);
            assert_eq!(t.len(), lines);
            assert!(!t.is_empty());
            assert_eq!(t.pages(), vec![PAGE], "a page lists once");
        });
    }

    #[test]
    fn new_entries_start_unmapped_and_homed() {
        at_both_geometries(|t, line_size, unit| {
            let e = t.get(unit);
            assert_eq!(e.access, Access::None);
            assert!(!e.owned);
            assert_eq!(e.home, NodeId(0));
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

            t.remove_page(PAGE);
            assert!(t.is_empty());
            assert!(!t.contains(PAGE));
        });
    }

    #[test]
    fn waiters_are_per_unit() {
        use dsmpm2_sim::Engine;
        use std::sync::Arc;
        for line_size in [PAGE_SIZE, 1024] {
            let t = Arc::new(PageTable::new(NodeId(1)));
            t.ensure_lines(PAGE, NodeId(0), ProtocolId(0), false, line_size);
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
        t.ensure_lines(PAGE, NodeId(0), ProtocolId(0), false, PAGE_SIZE);
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
            t.set_access(Unit::new(page, last), Access::Read);
            let expected = UnitView {
                access: Access::Read,
                line: last,
                line_size,
                protocol: ProtocolId(3),
                records_writes: true,
            };
            assert_eq!(view(PAGE_SIZE - 8, true), expected);
            assert!(t.modified_units().is_empty(), "not writable: not marked");
            t.set_access(Unit::new(page, last), Access::Write);
            assert_eq!(view(PAGE_SIZE - 1, false).access, Access::Write);
            assert!(t.modified_units().is_empty(), "a read marks nothing");
            view(PAGE_SIZE - 8, true);
            assert_eq!(t.modified_units(), vec![Unit::new(page, last)]);
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
